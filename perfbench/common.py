"""Helpers shared by the workloads: exact quantiles, memory, seeding and
the host-speed probe that normalizes timed figures."""

from __future__ import annotations

import hashlib
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "repro" / "data"
EXAMPLES = ROOT / "examples"
OUT = HERE / "out"


def rng_for(seed: int, stream: str) -> random.Random:
    """An independent, reproducible random stream per (seed, purpose)."""
    digest = hashlib.sha256(f"{seed}:{stream}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def suite_text(name: str) -> str:
    """The frozen ``.bench`` text of a suite circuit."""
    return (DATA / f"{name}.bench").read_text(encoding="utf-8")


def median(samples) -> float:
    return statistics.median(samples) if samples else 0.0


#: median :func:`probe_s` on the reference host (a 2-vCPU VM, CPython
#: 3.11).  A normalized time is ``raw * PROBE_REF_S / probe``: what the
#: work would have taken had the host run at its reference speed.
PROBE_REF_S = 0.004


def _probe_work() -> int:
    """A fixed pure-Python loop (dict updates, integer ops, a sort): the
    same kind of interpreter work the program does, none of its code."""
    table: dict = {}
    acc = 0
    for i in range(20_000):
        key = i % 97
        table[key] = table.get(key, 0) + i
        acc ^= (i * 31) & 0xFFFF
    return acc + min(sorted(table, key=table.__getitem__))


def probe_s(reps: int = 3) -> float:
    """The host's current speed: median wall time of :func:`_probe_work`.

    The host's speed drifts by tens of percent within seconds and
    between minutes (other tenants share its cores and caches), and CPU
    time drifts with it.  Timed figures are therefore normalized by the
    median of probes taken between the ops they cover."""
    walls = []
    for _ in range(reps):
        start = time.perf_counter()
        _probe_work()
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def host_scale(probes) -> float:
    """Factor turning raw seconds into reference-host seconds."""
    return PROBE_REF_S / median(probes)


def percentile(samples, q: float) -> float:
    """Exact nearest-rank percentile (``q`` in 0..100) of raw samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb(pid: "int | str" = "self") -> float:
    """Peak resident set size (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_env() -> dict:
    """Environment for subprocesses: this checkout's ``src`` first and
    temporary files inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # the fleet puts its worker sockets under TMPDIR; unix socket paths
    # are capped near 108 bytes, so a deep checkout keeps the default
    if len(str(OUT)) <= 60:
        env["TMPDIR"] = str(OUT)
    return env


def run_child(argv: list, timeout: float = 120) -> "tuple[float, str]":
    """Run a fresh interpreter; return (wall seconds, stdout).  A non-zero
    exit raises ``RuntimeError`` with the child's stderr."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable] + argv,
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=timeout,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(
            f"{' '.join(argv[:3])} exited {proc.returncode}: "
            f"{proc.stderr.strip()[-400:]}"
        )
    return wall, proc.stdout


def source_digest() -> str:
    """sha256 over the checkout's ``src`` tree; it identifies the code
    when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and ".egg-info" not in str(path):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> "str | None":
    """HEAD of the checkout when it is its own git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None
