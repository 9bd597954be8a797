"""The repository's benchmark: one seeded command per workload.

    python3 perfbench/run.py --workload tables-cold --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``tables-cold``  -- Table I/III rows in process, caches cold;
* ``path-queries`` -- signoff, SAT tightness rows and test generation;
* ``serve-mix``    -- a closed loop over one connection to a 2-worker,
  store-backed ``repro-rd serve`` fleet, then warm CLI runs.

``--seed`` draws the inputs (random netlists, delays, request order);
the program only ever sees the generated inputs.  Every answer is
checked; a wrong one makes the run exit 1.  The last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics (timings scaled to a reference
host speed by a probe that runs none of the program's code; see
README.md), with ``--trace 1`` the per-layer
ones from a traced pass (spans exported as JSON lines under
``perfbench/out/``).  The line before it carries every figure with its
sample count plus the seed, source digest, ``nproc`` and Python version.

The program is imported from ``src/`` next to this directory and
nowhere else; without it the command exits 2 before measuring.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
import time
import traceback
from pathlib import Path

from common import (OUT, git_commit, host_scale, median, peak_rss_mb,
                    percentile, probe_s, run_child, source_digest)
from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("tables-cold", "path-queries", "serve-mix")
#: set-ups timed per run: fresh interpreters (batch), fleet starts (serve)
BATCH_SETUP_REPS = 9
SERVE_SETUP_REPS = 5

#: end-to-end metrics, every workload (name -> unit)
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: timed per-layer metrics: stem -> span names whose durations it pools
TIMED = {
    "circuit.parse": ("circuit.parse",),
    "circuit.flat": ("circuit.flat", "circuit.closures"),
    "store.fingerprint": ("store.fingerprint",),
    "store.get": ("store.get",),
    "store.put": ("store.put",),
    "paths.count": ("paths.count",),
    "sorting.heu1": ("sorting.heu1",),
    "sorting.heu2": ("sorting.heu2",),
    "classify.tables": ("classify.tables",),
    "classify.pass": ("classify.pass",),
    "classify.stream": ("classify.stream",),
    "classify.check": ("classify.check",),
    "baseline.rd": ("baseline.rd",),
    "timing.kpaths": ("timing.kpaths",),
    "signoff.query": ("signoff.query",),
    "delaytest.tpg": ("delaytest.tpg",),
    "delaytest.faultsim": ("delaytest.faultsim",),
    "delaytest.robust_test": ("delaytest.robust_test",),
    "verdict.row": ("verdict.row",),
    "incremental.cone_index": ("incremental.cone_index",),
    "cli.import": ("cli.import",),
}

#: per-layer counts and ratios: name -> unit
COUNTED = {
    "store.hit_ratio": "ratio",
    "classify.edges": "count",
    "classify.edges_per_s": "1/s",
    "classify.edges_per_accept": "ratio",
    "timing.candidates": "count",
    "signoff.accept_ratio": "ratio",
    "delaytest.pairs": "count",
    "verdict.sat_queries": "count",
    "verdict.conflicts": "count",
    "verdict.witness_replays": "count",
    "incremental.reuse_ratio": "ratio",
    "service.wire_overhead_ms": "ms",
    "service.retries": "count",
    "service.coalesced": "count",
    "obs.trace_overhead": "ratio",
    "obs.traced_wall_s": "s",
    "obs.reconcile_error_s": "s",
    "obs.untraced_op_s": "s",
    "other_s": "s",
    "error_ratio": "ratio",
}

#: |self times + other_s - traced wall| allowed, as a share of the wall;
#: the two sides are equal by construction while spans nest, so this
#: only catches spans that overlap without nesting
RECONCILE_TOLERANCE = 1e-3
#: largest share of the batch ops' own wall time that may lie outside
#: every layer span: work the spans do not see, such as an untraced
#: layer or a row that reports less time than it costs
UNTRACED_SHARE_MAX = 0.05
#: serve-mix: requests per throughput segment
SEGMENT = 100
#: host probes taken before and again after a stretch probed nowhere
#: inside (the serve-mix loop's idle reference, a traced batch pass)
HOST_PROBES = 10


def per_layer_names() -> dict:
    """Every per-layer metric name -> unit, in emission order."""
    names = {}
    for stem in TIMED:
        names[f"{stem}_ms"] = "ms"
        names[f"{stem}_total_ms"] = "ms"
        names[f"{stem}_calls"] = "count"
    for layer in LAYERS:
        names[f"{layer}.self_s"] = "s"
    names.update(COUNTED)
    return names


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path, or exit 2."""
    package = SRC / "repro" / "__init__.py"
    if not package.is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve() != package.resolve():
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"not {SRC}", file=sys.stderr)
        sys.exit(2)


def _workload_module(name: str):
    import path_queries
    import serve_mix
    import tables_cold

    return {"tables-cold": tables_cold, "path-queries": path_queries,
            "serve-mix": serve_mix}[name]


class Recorder:
    """Times each op; one list of ``(kind, seconds, ok)`` per pass.
    Untraced, it also probes the host's speed before each op, outside
    the op's time, so each pass gets its own normalizing factor."""

    def __init__(self, tracer=None):
        self.passes: list = []
        self.probes: list = []
        #: traced: each op's (start, end), to set against its spans
        self.intervals: list = []
        self.tracer = tracer

    def new_pass(self) -> None:
        self.passes.append([])
        self.probes.append([])

    def op(self, kind: str, fn, *args):
        current = self.passes[-1]
        if self.tracer is not None:
            self.tracer.rid = f"{kind}#{len(current)}"
        # each op starts with no garbage left by the one before it, so
        # its time does not depend on what ran earlier in the pass
        gc.collect()
        if self.tracer is None:
            self.probes[-1].append(probe_s())
        start = time.perf_counter()
        try:
            value = fn(*args)
            ok = True
        except Exception as exc:  # noqa: BLE001 - a failed op is counted
            traceback.print_exc(file=sys.stderr)
            value, ok = exc, False
        end = time.perf_counter()
        current.append((kind, end - start, ok))
        if self.tracer is not None:
            self.intervals.append((start, end))
        return value

    def ops(self) -> list:
        return [op for one in self.passes for op in one]

    def reference_pass_s(self) -> float:
        """One pass in reference-host seconds: each op's time scaled by
        its pass's factor, the median over passes per op, summed."""
        columns = zip(*(
            [t * host_scale(probes) for _k, t, _ok in one]
            for one, probes in zip(self.passes, self.probes)
        ))
        return sum(median(column) for column in columns)


def figure(unit: str, value: float, samples: int, **extra) -> dict:
    entry = {"value": value, "unit": unit, "samples": samples}
    entry.update(extra)
    return entry


def _median_of(samples, scale=1.0) -> dict:
    return {"value": median(samples) * scale, "samples": len(samples)}


def timed_setups(setup_once, reps: int) -> "tuple[list, list]":
    """``reps`` calls of ``setup_once`` (which returns its wall seconds),
    probing the host before each and after the last: (raw walls, walls
    scaled by the two probes around each)."""
    walls, probes = [], [probe_s()]
    for _ in range(reps):
        walls.append(setup_once())
        probes.append(probe_s())
    scaled = [wall * host_scale(probes[i:i + 2]) for i, wall in enumerate(walls)]
    return walls, scaled


# -- batch workloads (tables-cold, path-queries) ---------------------------
def _setup_walls(args) -> "tuple[list, list]":
    """Set-up in a fresh interpreter: start, imports, input generation."""
    argv = [str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--size", args.size, "--setup-only"]
    return timed_setups(lambda: run_child(argv)[0], BATCH_SETUP_REPS)


def _passes(mod, inputs, rec, seconds: float, expected) -> "tuple[list, list]":
    """Whole passes while the next one still fits in ``seconds`` of
    measured time.  Each pass is checked as soon as it ends and only
    its summary is kept, so memory does not grow with the pass count:
    (problems, per-pass summaries)."""
    problems, summaries = [], []
    measured = 0.0
    while True:
        rec.new_pass()
        start = time.perf_counter()
        outcome = mod.run_pass(inputs, rec)
        last = time.perf_counter() - start
        measured += last
        problems += mod.check(outcome, expected, inputs)
        summaries.append(mod.summarize(outcome))
        del outcome
        if measured + last > seconds:
            return problems, summaries


def run_batch(args, mod, expected) -> dict:
    if args.trace:
        return run_batch_traced(args, mod, expected)
    setup_walls, setup_scaled = _setup_walls(args)
    inputs = mod.setup(args.seed, args.size)
    rec = Recorder()
    problems, summaries = _passes(mod, inputs, rec, args.seconds, expected)
    rss = peak_rss_mb()
    ops = rec.ops()
    metrics = {
        "setup_s": figure("s", **_median_of(setup_scaled)),
        "ops_per_s": figure("1/s", len(rec.passes[0]) / rec.reference_pass_s(),
                            len(ops)),
        "peak_rss_mb": figure("MB", rss, 1),
    }
    details = {name: figure(unit, **_median_of(samples))
               for name, (unit, samples) in mod.details(rec.passes, summaries).items()}
    details["pass_s"] = figure(
        "s", **_median_of([sum(t for _k, t, _ok in one) for one in rec.passes]))
    details["setup_raw_s"] = figure("s", **_median_of(setup_walls))
    details["host_scale"] = figure(
        "ratio", **_median_of([host_scale(p) for p in rec.probes]))
    failed = sum(1 for _k, _t, ok in ops if not ok)
    return _result(metrics, details, problems, len(ops), failed)


def run_batch_traced(args, mod, expected) -> dict:
    """One traced pass in this (fresh) process.  The untraced reference
    pass for ``obs.trace_overhead`` runs in a fresh child too: a second
    pass in one process is slower (the collector scans what the first
    left behind), which would bias the ratio.  Both passes are scaled to
    the reference host speed, the traced one by probes taken just
    before and after it, so the ratio does not carry the host's drift."""
    from repro.obs import get_registry

    inputs = mod.setup(args.seed, args.size)
    tracer = Tracer()
    rec = Recorder(tracer)
    rec.new_pass()
    registry = get_registry()
    before = {name: registry.counter(name).value for name in _VERDICT}
    probes = [probe_s() for _ in range(HOST_PROBES)]
    tracer.install()
    start = time.perf_counter()
    try:
        outcomes = mod.run_pass(inputs, rec)
    finally:
        wall = time.perf_counter() - start
        tracer.uninstall()
    probes += [probe_s() for _ in range(HOST_PROBES)]
    counts = {key: registry.counter(name).value - before[name]
              for name, key in _VERDICT.items()}
    problems = mod.check(outcomes, expected, inputs)
    counts.update(_batch_counts(outcomes))
    _wall, stdout = run_child([str(HERE / "run.py"), "--workload", args.workload,
                               "--seed", str(args.seed), "--size", args.size,
                               "--seconds", "0"], timeout=600)
    untraced = json.loads(stdout.splitlines()[-2])["figures"]
    ops = rec.ops()
    failed = sum(1 for _k, _t, ok in ops if not ok)
    overhead = (sum(t for _k, t, _ok in ops) * host_scale(probes)) / (
        untraced["pass_s"]["value"] * untraced["host_scale"]["value"])
    return _traced_result(args, tracer, start, wall, counts, overhead,
                          problems, len(ops), failed, rec.intervals)


_VERDICT = {"verdict.queries": "verdict.sat_queries",
            "verdict.conflicts": "verdict.conflicts",
            "verdict.witness_replays": "verdict.witness_replays"}


def _batch_counts(outcomes) -> dict:
    """Per-layer counts the spans cannot see: signoff stage counters
    and the number of test pairs produced."""
    rows = candidates = pairs = 0
    for kind, _key, value in outcomes:
        if isinstance(value, Exception):
            continue
        if kind == "signoff":
            rows += len(value.rows)
            candidates += value.counters["candidates"]
        elif kind == "testgen":
            pairs += len(value[2].pairs)
    counts = {"delaytest.pairs": pairs}
    if candidates:
        counts["signoff.accept_ratio"] = rows / candidates
    return counts


# -- serve-mix ---------------------------------------------------------------
def run_serve(args, mod) -> dict:
    workdir = mod.workdir()
    fleets = []
    try:
        if args.trace:
            return run_serve_traced(args, mod, workdir, fleets)
        # the first set-up fills a fresh store; the others restart the
        # fleet on it, so the median is a warm restart (cold in details)
        state = {"store": None}

        def setup_once() -> float:
            if fleets:
                fleets.pop().stop()
            start = time.perf_counter()
            state["inputs"] = mod.setup_inputs(args.seed, args.size)
            fleets.append(mod.start(state["inputs"], workdir, state["store"]))
            wall = time.perf_counter() - start
            state["store"] = fleets[-1].store
            return wall

        setup_walls, setup_scaled = timed_setups(setup_once, SERVE_SETUP_REPS)
        inputs, fleet = state["inputs"], fleets[0]
        idle_probes = [probe_s() for _ in range(HOST_PROBES)]
        probes: list = []
        records = mod.closed_loop(fleet, inputs, args.seconds, probes=probes)
        idle_probes += [probe_s() for _ in range(HOST_PROBES)]
        cli = mod.cli_runs(fleet, inputs, workdir)
        rss = mod.fleet_rss_mb(fleet)
        fleets.pop().stop()
        problems = mod.check(inputs, records, cli)
    finally:
        for fleet in fleets:
            fleet.stop()
        mod.cleanup(workdir)
    rtts = [t for _k, _i, t, v in records if not isinstance(v, Exception)]
    rates = segment_rates(records)
    host = host_scale(probes or idle_probes)
    metrics = {
        "setup_s": figure("s", **_median_of(setup_scaled)),
        "ops_per_s": figure("1/s", median(rates) / host, len(records),
                            segments=len(rates)),
        "peak_rss_mb": figure("MB", rss, 2),
    }
    details = {}
    for name, (unit, samples) in mod.details(records, cli).items():
        scale = 1e3 if unit == "ms" else 1.0
        details[name] = figure(unit, **_median_of(samples, scale))
    details["rps"] = figure("1/s", len(rtts) / sum(rtts) if rtts else 0.0, len(rtts))
    details["setup_raw_s"] = figure("s", **_median_of(setup_walls))
    details["setup_cold_s"] = figure("s", setup_walls[0], 1)
    details["host_scale"] = figure("ratio", host, len(probes))
    details["host_scale_idle"] = figure("ratio", host_scale(idle_probes), len(idle_probes))
    p99 = percentile(rtts, 99)
    details["latency_p99_ms"] = figure(
        "ms", p99 * 1e3, len(rtts), beyond=sum(1 for t in rtts if t > p99))
    failed = sum(1 for *_x, v in records if isinstance(v, Exception))
    return _result(metrics, details, problems, len(records) + len(cli), failed)


def segment_rates(records) -> list:
    """Closed-loop throughput per ``SEGMENT`` requests: ok requests over
    the segment's summed round trips.  A last, partial segment counts
    only when it is the only one."""
    rates = []
    for first in range(0, len(records), SEGMENT):
        chunk = records[first:first + SEGMENT]
        if len(chunk) < SEGMENT and rates:
            break
        ok = sum(1 for *_x, v in chunk if not isinstance(v, Exception))
        rates.append(ok / sum(r[2] for r in chunk))
    return rates


def run_serve_traced(args, mod, workdir, fleets) -> dict:
    inputs = mod.setup_inputs(args.seed, args.size)
    fleets.append(mod.start(inputs, workdir))
    plain = mod.closed_loop(fleets[0], inputs, args.seconds)
    fleets.pop().stop()
    fleets.append(mod.start(inputs, workdir))
    fleet = fleets[0]
    tracer = Tracer()
    before = fleet.counters()
    tracer.install()
    start = time.perf_counter()
    try:
        records = mod.closed_loop(fleet, inputs, args.seconds, tracer)
        cli = mod.cli_runs(fleet, inputs, workdir, tracer)
        mod.import_probe(tracer)
        hit_replays = mod.replay(inputs, records, mod.store_copy(fleet, workdir), tracer)
    finally:
        wall = time.perf_counter() - start
        tracer.uninstall()
    after = fleet.counters()
    fleets.pop().stop()
    problems = mod.check(inputs, plain + records, cli)

    def delta(name):
        return after.get(name, 0) - before.get(name, 0)

    hits, misses = delta("store.hits"), delta("store.misses")
    hit_rtts = [t for k, _i, t, v in records if k == "hit" and not isinstance(v, Exception)]
    ratios = [v["cone_stats"]["reuse_ratio"] for k, _i, _t, v in records
              if k == "eco" and not isinstance(v, Exception)]
    counts = {
        "store.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "service.retries": delta("fleet.retries"),
        "service.coalesced": delta("fleet.coalesce_hits"),
        "service.wire_overhead_ms": (median(hit_rtts) - median(hit_replays)) * 1e3,
        "incremental.reuse_ratio": sum(ratios) / len(ratios) if ratios else 0.0,
    }
    failed = sum(1 for *_x, v in plain + records if isinstance(v, Exception))
    overhead = (sum(r[2] for r in records) / len(records)) / (
        sum(r[2] for r in plain) / len(plain))
    return _traced_result(args, tracer, start, wall, counts, overhead, problems,
                          len(plain) + len(records) + len(cli), failed)


# -- results -----------------------------------------------------------------
def _traced_result(args, tracer, origin, wall, counts, overhead, problems,
                   attempted, failed, intervals=()) -> dict:
    durations: dict = {}
    edges = accepted = candidates = 0
    pass_self = 0.0
    for record, own in zip(tracer.spans, tracer.self_times()):
        name, start, end, _parent, _rid, attrs = record
        durations.setdefault(name, []).append(end - start)
        if attrs and "edges" in attrs:
            edges += attrs["edges"]
            accepted += attrs["accepted"]
            pass_self += own
        if attrs and "yielded" in attrs:
            candidates += 1
    layer_self, other, error = tracer.reconcile(wall)
    if abs(error) > RECONCILE_TOLERANCE * wall:
        problems.append(f"trace does not reconcile: self times + other_s "
                        f"miss the traced wall by {error:.6f} s")
    if intervals:
        op_wall = sum(end - start for start, end in intervals)
        untraced = op_wall - tracer.covered_seconds(intervals)
        if untraced > UNTRACED_SHARE_MAX * op_wall:
            problems.append(f"trace misses work: {untraced:.3f} s of the ops' "
                            f"{op_wall:.3f} s lie outside every layer span")
        counts["obs.untraced_op_s"] = untraced
    names = per_layer_names()
    values = {}
    for stem, spans in TIMED.items():
        samples = [d for span in spans for d in durations.get(span, [])]
        values[f"{stem}_ms"] = median(samples) * 1e3
        values[f"{stem}_total_ms"] = sum(samples) * 1e3
        values[f"{stem}_calls"] = len(samples)
    for layer in LAYERS:
        values[f"{layer}.self_s"] = layer_self[layer]
    values.update({name: 0 for name in COUNTED})
    values.update(counts)
    values.update({
        "classify.edges": edges,
        "classify.edges_per_s": edges / pass_self if pass_self else 0.0,
        "classify.edges_per_accept": edges / accepted if accepted else 0.0,
        "timing.candidates": candidates,
        "obs.trace_overhead": overhead,
        "obs.traced_wall_s": wall,
        "obs.reconcile_error_s": error,
        "other_s": other,
        "error_ratio": failed / attempted if attempted else 0.0,
    })
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
    tracer.export(spans_path, origin)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in names.items()}
    details = {"spans": len(tracer.spans), "spans_file": str(spans_path)}
    return _result(metrics, details, problems, attempted, failed, samples=False)


def _result(metrics, details, problems, attempted, failed, samples=True):
    if samples:
        details = dict(details)
        details.update({name: dict(entry) for name, entry in metrics.items()})
        details["error_ratio"] = figure("ratio", failed / attempted, attempted)
        metrics = {name: {"value": entry["value"], "unit": entry["unit"]}
                   for name, entry in metrics.items()}
    return {"metrics": metrics, "details": details, "problems": problems,
            "attempted": attempted, "failed": failed}


def _provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }


def _fix_hash_seed() -> None:
    """Re-run under ``PYTHONHASHSEED=0``: string hashing orders sets, and
    test generation's pair count (so its work) depends on that order.
    Children inherit the variable, fleet workers included."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        argv = [sys.executable, str(Path(__file__).resolve())] + sys.argv[1:]
        os.execve(sys.executable, argv, env)


def main(argv=None) -> int:
    if argv is None:
        _fix_hash_seed()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time per run (whole passes for the "
                        "batch workloads, at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few inputs per op kind, for the "
                        "benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_program()
    mod = _workload_module(args.workload)
    if args.setup_only:
        mod.setup(args.seed, args.size)
        return 0
    expected = json.loads((HERE / "expected.json").read_text())
    if args.workload == "serve-mix":
        result = run_serve(args, mod)
    else:
        result = run_batch(args, mod, expected)
    correct = not result["problems"]
    for problem in result["problems"]:
        print(f"WRONG: {problem}", file=sys.stderr)
    record = _provenance(args)
    record.update(result["details"] and {"figures": result["details"]})
    record["problems"] = result["problems"]
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
