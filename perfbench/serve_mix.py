"""``serve-mix``: a closed loop over one connection to a store-backed fleet.

``repro-rd serve --workers 2 --store`` runs as a subprocess; one client
sends the next request only after the previous reply (closed loop, one
connection, no think time).  The seed draws the request sequence:

* 8 in 10: ``classify`` of suite ``.bench`` text the warm-up already
  stored (warm hits: parse, fingerprint, store reads, wire);
* 1 in 10: fresh ``random_dag`` netlists (misses: compute + store writes);
* 1 in 10: ``cones=true`` FS requests on one-gate edits of s7552-mix at
  its most local edit sites (ECO: cone reads plus writes).

After the loop, warm ``repro-rd classify --store`` CLI runs read the
same store.  Every answer is checked against an in-process reference
computed after the timed region.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import sqlite3
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext

from common import (OUT, child_env, peak_rss_mb, probe_s, rng_for, run_child,
                    suite_text)

from repro.circuit import bench
from repro.circuit.bench import write_bench
from repro.circuit.gates import GateType
from repro.classify.conditions import Criterion
from repro.classify.session import CircuitSession
from repro.errors import ReproError
from repro.gen.random_logic import random_dag
from repro.incremental import conefp
from repro.service.client import ServiceClient
from repro.store.db import ResultStore

HITS = ("c17", "z5xp-b", "apex-a", "bw-d", "misex-f", "xcmp16", "s880-alu",
        "s432-rand", "s1355-par")
ECO_BASE = "s7552-mix"
#: flippable gates of the ECO base, most local first, that edits use
ECO_SITES = 60
#: longest request sequence; the loop normally stops at --seconds first
SEQUENCE = 6000
CLI_RUNS = 5
#: requests between host-speed probes in the closed loop
PROBE_EVERY = 10
#: hit circuits replayed in process per traced run (store.* layers)
REPLAYS_PER_HIT = 5

TINY = {"hits": ("c17", "z5xp-b", "apex-a"), "eco_sites": 6}

_ALTERNATIVES = {
    GateType.AND: (GateType.OR, GateType.NAND, GateType.NOR),
    GateType.OR: (GateType.AND, GateType.NOR, GateType.NAND),
    GateType.NAND: (GateType.NOR, GateType.AND, GateType.OR),
    GateType.NOR: (GateType.NAND, GateType.OR, GateType.AND),
}


def local_edit_sites(circuit, count: int) -> list:
    """Flippable gates with the smallest dirty footprint: fewest
    reachable outputs, then fewest dirty-cone gates, then name."""
    index = conefp.cone_index(circuit)
    scored = []
    for gid in range(circuit.num_gates):
        if circuit.gate_type(gid) in _ALTERNATIVES:
            reached = [c for c in index.cones if (c.mask >> gid) & 1]
            scored.append((len(reached), sum(c.num_gates for c in reached),
                           circuit.gate_name(gid)))
    scored.sort()
    return [name for _n, _g, name in scored[:count]]


def setup_inputs(seed: int, size: str) -> dict:
    tiny = size == "tiny"
    hits = TINY["hits"] if tiny else HITS
    base = bench.parse_bench(suite_text(ECO_BASE), name=ECO_BASE)
    sites = local_edit_sites(base, TINY["eco_sites"] if tiny else ECO_SITES)
    rng = rng_for(seed, "serve-mix.sequence")
    edits = [(gate, alt) for gate in sites
             for alt in range(len(_ALTERNATIVES[GateType.AND]))]
    rng.shuffle(edits)
    # every block of ten holds exactly 8 hits, 1 miss and 1 ECO edit in
    # seeded order, and hits cycle through shuffled rounds of the hit
    # set, so any prefix has the same mix whatever the seed
    hit_order: list = []
    while len(hit_order) < SEQUENCE:
        round_ = list(range(len(hits)))
        rng.shuffle(round_)
        hit_order += round_
    sequence = []
    for block in range(SEQUENCE // 10):
        kinds = [("hit", hit_order[8 * block + i]) for i in range(8)]
        kinds += [("miss", block), ("eco", block)]
        rng.shuffle(kinds)
        sequence += kinds
    return {
        "seed": seed,
        "hits": [(name, suite_text(name)) for name in hits],
        "base": base,
        "edits": edits,
        "sequence": sequence,
        "cache": {},
    }


def request_fields(inputs: dict, kind: str, index: int) -> dict:
    """The wire fields of one request (netlists built lazily, memoized)."""
    key = (kind, index)
    cached = inputs["cache"].get(key)
    if cached is not None:
        return cached
    if kind == "hit":
        name, text = inputs["hits"][index]
        fields = {"bench": text, "name": name}
    elif kind == "miss":
        rng = rng_for(inputs["seed"], f"serve-mix.miss.{index}")
        circuit = random_dag(rng.randint(8, 10), rng.randint(30, 40),
                             seed=rng.randrange(1 << 30))
        fields = {"bench": write_bench(circuit), "name": f"miss-{index}"}
    else:
        gate, alt = inputs["edits"][index % len(inputs["edits"])]
        edited = inputs["base"].copy(f"{ECO_BASE}-eco{index}")
        gid = edited.gate_by_name(gate)
        edited.replace_gate(gate, _ALTERNATIVES[edited.gate_type(gid)][alt],
                            list(edited.fanin(gid)))
        fields = {"bench": write_bench(edited), "name": edited.name,
                  "criterion": "fs", "cones": True}
    inputs["cache"][key] = fields
    return fields


class Fleet:
    """``repro-rd serve --workers 2 --store`` on an ephemeral TCP port."""

    def __init__(self, store: str, log: str):
        self.log_path = log
        with open(log, "w") as log_file:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--workers", "2", "--store", store],
                env=child_env(), stdout=log_file, stderr=subprocess.STDOUT,
            )
        try:
            self.address = self._await_announce(60.0)
            self.client = ServiceClient.connect(self.address, timeout=120)
            self.pids = [self.proc.pid] + self.worker_pids()
        except BaseException:
            self.stop()
            raise

    def _await_announce(self, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self.log_path) as log:
                for line in log:
                    if " on tcp://" in line:
                        return line.rsplit("tcp://", 1)[1].strip()
            if self.proc.poll() is not None:
                break
            time.sleep(0.02)
        raise RuntimeError(f"fleet did not start; see {self.log_path}")

    def worker_pids(self) -> list:
        return [w["pid"] for w in self.client.stats()["workers"] if w["pid"]]

    def cpu_ticks(self) -> int:
        """CPU clock ticks charged so far to the front-end and workers."""
        total = 0
        for pid in self.pids:
            try:
                with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
                    fields = stat.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            total += int(fields[11]) + int(fields[12])  # utime + stime
        return total

    def counters(self) -> dict:
        return self.client.metrics()["metrics"]["counters"]

    def stop(self) -> None:
        """SIGTERM drains the fleet and its workers; a front-end that
        does not exit in time is killed, and so is any worker it left."""
        client = getattr(self, "client", None)
        pids = []
        if client is not None:
            try:
                pids = self.worker_pids()
            except (ReproError, OSError):
                pass
            client.close()
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(30)
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


def start(inputs: dict, workdir: str, store: "str | None" = None) -> Fleet:
    """One set-up: the fleet on ``store`` (a fresh one if None) and the
    warm-up requests (every hit circuit, then the ECO base at cone
    granularity)."""
    if store is None:
        store = os.path.join(workdir, f"store-{len(os.listdir(workdir))}.sqlite")
    fleet = Fleet(store, store + ".log")
    fleet.store = store
    try:
        for index in range(len(inputs["hits"])):
            fleet.client.request("classify", **request_fields(inputs, "hit", index))
        fleet.client.request(
            "classify", bench=write_bench(inputs["base"]), name=ECO_BASE,
            criterion="fs", cones=True,
        )
    except BaseException:
        fleet.stop()
        raise
    return fleet


def _span(tracer, name: str):
    return nullcontext() if tracer is None else tracer.span(name)


def closed_loop(fleet: Fleet, inputs: dict, seconds: float, tracer=None,
                probes: "list | None" = None) -> list:
    """Send the sequence until ``seconds`` pass; one record per request:
    ``(kind, index, round-trip seconds, result or exception)``.  With
    ``probes``, the host's speed is probed (outside every round trip)
    before each ``PROBE_EVERY`` requests; a probe during which a fleet
    process was charged CPU time is dropped, so the fleet's own work
    after a reply does not slow the probes that are kept."""
    records = []
    began = time.perf_counter()
    for kind, index in inputs["sequence"]:
        if time.perf_counter() - began >= seconds:
            break
        if probes is not None and len(records) % PROBE_EVERY == 0:
            ticks = fleet.cpu_ticks()
            probe = probe_s()
            if fleet.cpu_ticks() == ticks:
                probes.append(probe)
        fields = request_fields(inputs, kind, index)
        if tracer is not None:
            tracer.rid = f"{kind}#{len(records)}"
        with _span(tracer, "service.request"):
            t0 = time.perf_counter()
            try:
                value = fleet.client.request("classify", **fields)
            except ReproError as exc:
                value = exc
            elapsed = time.perf_counter() - t0
        records.append((kind, index, elapsed, value))
    return records


def cli_runs(fleet: Fleet, inputs: dict, workdir: str, tracer=None) -> list:
    """Warm ``repro-rd classify --store --json`` runs: (name, seconds, json)."""
    out = []
    for run in range(CLI_RUNS):
        name, text = inputs["hits"][-1 - run % len(inputs["hits"])]
        path = os.path.join(workdir, f"{name}.bench")
        if not os.path.exists(path):
            with open(path, "w") as handle:
                handle.write(text)
        if tracer is not None:
            tracer.rid = f"cli#{run}"
        with _span(tracer, "cli.run"):
            wall, stdout = run_child(
                ["-m", "repro", "classify", path, "--store", fleet.store, "--json"])
        out.append((name, wall, stdout))
    return out


def import_probe(tracer, runs: int = 3) -> list:
    """Fresh-interpreter ``import repro.cli`` wall times."""
    walls = []
    for run in range(runs):
        tracer.rid = f"import#{run}"
        with tracer.span("cli.import"):
            wall, _ = run_child(["-c", "import repro.cli"])
        walls.append(wall)
    return walls


def fleet_rss_mb(fleet: Fleet) -> float:
    """Summed peak RSS of the fleet's worker processes."""
    return sum(peak_rss_mb(pid) for pid in fleet.worker_pids())


def store_copy(fleet: Fleet, workdir: str) -> str:
    """A consistent snapshot of the fleet's store (sqlite backup API)."""
    path = os.path.join(workdir, "replay.sqlite")
    source = sqlite3.connect(fleet.store)
    try:
        target = sqlite3.connect(path)
        try:
            source.backup(target)
        finally:
            target.close()
    finally:
        source.close()
    return path


def replay(inputs: dict, records: list, store_path: str, tracer) -> list:
    """In-process replays on a copy of the fleet's store: the hit path
    (parse + fingerprint + store reads), ten fresh misses (store writes)
    and ``cone_index`` on the ECO inputs.  Returns hit replay seconds."""
    hit_walls = []
    with ResultStore(store_path) as store:
        for index, (name, text) in enumerate(inputs["hits"]):
            for rep in range(REPLAYS_PER_HIT):
                tracer.rid = f"replay-hit#{index}.{rep}"
                t0 = time.perf_counter()
                session = CircuitSession(bench.parse_bench(text, name=name), store=store)
                session.counts
                session.classify(Criterion.SIGMA_PI, sort=session.heuristic2_sort())
                hit_walls.append(time.perf_counter() - t0)
        # misses the loop never sent, so the copy has not stored them
        sent = sum(1 for kind, *_rest in records if kind == "miss")
        for index in range(sent, sent + 10):
            tracer.rid = f"replay-miss#{index}"
            text = request_fields(inputs, "miss", index)["bench"]
            session = CircuitSession(bench.parse_bench(text), store=store)
            session.classify(Criterion.SIGMA_PI, sort=session.heuristic2_sort())
    for kind, index, _t, _v in records:
        if kind == "eco":
            tracer.rid = f"replay-eco#{index}"
            conefp.cone_index(bench.parse_bench(request_fields(inputs, kind, index)["bench"]))
    return hit_walls


# -- references (outside every timed region) ----------------------------
def _sigma_heu2(circuit) -> tuple:
    session = CircuitSession(circuit)
    result = session.classify(Criterion.SIGMA_PI, sort=session.heuristic2_sort())
    return result.accepted, result.total_logical


def _fs_per_cone(circuit, outputs=None) -> dict:
    counts = {}
    for po in circuit.outputs if outputs is None else outputs:
        cone, _mapping = circuit.extract_cone(po)
        result = CircuitSession(cone).classify(Criterion.FS)
        counts[po] = (result.accepted, result.total_logical)
    return counts


def _reached_outputs(circuit, gate: int) -> list:
    """Outputs in the transitive fanout of ``gate`` (the cones it dirties)."""
    seen, stack = {gate}, [gate]
    while stack:
        for dst, _pin in circuit.fanout(stack.pop()):
            if dst not in seen:
                seen.add(dst)
                stack.append(dst)
    return [po for po in circuit.outputs if po in seen]


def check(inputs: dict, records: list, cli: list) -> list:
    """Every fleet and CLI answer must equal an in-process reference:
    SIGMA_PI/heu2 from scratch for hits and misses; for ECO edits, the
    base's per-cone FS counts with the cones the edit reaches recomputed."""
    problems = []
    refs = {}
    for name, text in inputs["hits"]:
        refs[name] = _sigma_heu2(bench.parse_bench(text, name=name))
    base = inputs["base"]
    base_cones = _fs_per_cone(base) if any(k == "eco" for k, *_ in records) else {}
    for kind, index, _t, value in records:
        if isinstance(value, Exception):
            continue  # counted as a failed op
        fields = request_fields(inputs, kind, index)
        if kind == "hit":
            want = refs[inputs["hits"][index][0]]
        elif kind == "miss":
            want = _sigma_heu2(bench.parse_bench(fields["bench"]))
        else:
            edited = bench.parse_bench(fields["bench"])
            gate = edited.gate_by_name(inputs["edits"][index % len(inputs["edits"])][0])
            dirty = _reached_outputs(edited, gate)
            cones = dict(base_cones)
            cones.update(_fs_per_cone(edited, dirty))
            want = (sum(a for a, _ in cones.values()), sum(t for _, t in cones.values()))
        got = (value["accepted"], value["total_logical"])
        if got != want:
            problems.append(f"{kind} #{index}: fleet answered {got}, reference {want}")
    for name, _wall, stdout in cli:
        payload = json.loads(stdout)
        got = (payload["accepted"], payload["total_logical"])
        if got != refs[name]:
            problems.append(f"cli {name}: {got} != reference {refs[name]}")
    return problems


def details(records: list, cli: list) -> dict:
    ok = [r for r in records if not isinstance(r[3], Exception)]
    by_kind = {kind: [t for k, _i, t, _v in ok if k == kind]
               for kind in ("hit", "miss", "eco")}
    return {
        "hit_p50_ms": ("ms", by_kind["hit"]),
        "miss_p50_ms": ("ms", by_kind["miss"]),
        "eco_p50_ms": ("ms", by_kind["eco"]),
        "cli_warm_ms": ("ms", [wall for _n, wall, _s in cli]),
    }


def workdir() -> str:
    OUT.mkdir(parents=True, exist_ok=True)
    return tempfile.mkdtemp(prefix="serve-mix-", dir=OUT)


def cleanup(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
