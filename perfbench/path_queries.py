"""``path-queries``: per-path point work, in process, no store.

Three op kinds, each starting from ``.bench`` text:

* ``signoff`` -- K-longest robustly-testable paths under seeded random
  delays (``repro.signoff.signoff``; the s27 example runs with scan
  fan-out and its own delay annotations);
* ``tightness`` -- SAT-exact verdict rows (``tightness_row``) on the
  decided <=20-PI suite circuits, plus one over-budget row that raises
  ``ClassifyError`` and is timed from outside so its cost shows;
* ``testgen`` -- Heu2 + a streaming SIGMA_PI pass that collects the
  must-test paths, then ``generate_test_set`` on them.

The seed draws the delay assignments; everything else is fixed.
"""

from __future__ import annotations

import functools

from common import EXAMPLES, rng_for, suite_text

from repro.circuit import bench
from repro.classify.conditions import Criterion
from repro.classify.session import CircuitSession
from repro.delaytest import tpg
from repro.delaytest.simulator import robust_coverage_of_test_set
from repro.delaytest.testability import is_robustly_testable
from repro.errors import ClassifyError
from repro.loading import load
from repro.paths.enumerate import enumerate_logical_paths
from repro.signoff import query
from repro.timing.annotate import materialize_delays, parse_delay_annotations
from repro.timing.pathdelay import logical_path_delay
from repro.verdict import tightness

K = 5
S27 = EXAMPLES / "s27_timing.bench"
#: signoff circuits; the brute-force check covers z5xp-b and s27
SIGNOFF = ("z5xp-b", "s880-alu", "s1355-par", "s27")
BRUTE_FORCE = ("z5xp-b", "s27")
#: the 12 decided rows of the <=20-PI tightness sweep
TIGHTNESS = ("apex-a", "apex-c", "apex-e", "bw-d", "c17", "misex-f",
             "misex-h", "s432-rand", "s880-alu", "seq-g", "xprienc16",
             "z5xp-b")
#: an over-budget row: heu2 and an aborted SIGMA_PI pass, then SKIP
#: (s3540-mult at 50,000 does the same in ~11 s, a whole run's pass)
SKIP = ("s5315-rca", 5_000)
MAX_ACCEPTED = 50_000
TESTGEN = ("s432-rand", "z5xp-b")

FULL = {"signoff": SIGNOFF, "tightness": TIGHTNESS, "skip": SKIP,
        "testgen": TESTGEN}
TINY = {"signoff": ("z5xp-b", "s27"), "tightness": ("c17", "apex-a"),
        "skip": ("s432-rand", 1_000), "testgen": ("c17",)}


def setup(seed: int, size: str) -> dict:
    plan = TINY if size == "tiny" else FULL
    rng = rng_for(seed, "path-queries.delays")
    names = (set(plan["signoff"]) | set(plan["tightness"])
             | set(plan["testgen"]) | {plan["skip"][0]})
    return {
        "texts": {name: S27.read_text() if name == "s27" else suite_text(name)
                  for name in names},
        "signoff": [(name, rng.randrange(1 << 30)) for name in plan["signoff"]],
        "tightness": plan["tightness"],
        "skip": plan["skip"],
        "testgen": plan["testgen"],
    }


def _signoff(name: str, text: str, delay_seed: int):
    if name == "s27":
        return query.signoff(str(S27), k=K, scan=True, seed=delay_seed)
    return query.signoff(bench.parse_bench(text, name=name), k=K, seed=delay_seed)


def _tightness(name: str, text: str, max_accepted: int):
    return tightness.tightness_row(
        bench.parse_bench(text, name=name), max_accepted=max_accepted
    )


def _skip_row(name: str, text: str, max_accepted: int):
    """The over-budget row: the ``ClassifyError`` the sweep turns into a
    SKIP row is the expected answer (anything else is wrong)."""
    try:
        return _tightness(name, text, max_accepted)
    except ClassifyError as exc:
        return exc


def _testgen(name: str, text: str):
    circuit = bench.parse_bench(text, name=name)
    session = CircuitSession(circuit)
    sort = session.heuristic2_analysis().sort
    must_test: list = []
    session.classify(Criterion.SIGMA_PI, sort=sort, on_path=must_test.append)
    return circuit, must_test, tpg.generate_test_set(circuit, must_test)


def run_pass(inputs: dict, rec) -> list:
    texts = inputs["texts"]
    out = []
    for name, delay_seed in inputs["signoff"]:
        out.append(("signoff", (name, delay_seed),
                    rec.op("signoff", _signoff, name, texts[name], delay_seed)))
    for name in inputs["tightness"]:
        out.append(("tightness", name,
                    rec.op("tightness", _tightness, name, texts[name], MAX_ACCEPTED)))
    name, budget = inputs["skip"]
    out.append(("skip", name,
                rec.op("tightness", _skip_row, name, texts[name], budget)))
    for name in inputs["testgen"]:
        out.append(("testgen", name, rec.op("testgen", _testgen, name, texts[name])))
    return out


def brute_force_rows(circuit, delays, k: int) -> list:
    """Every robustly-testable logical path, slowest first in canonical
    order, truncated to ``k`` -- the signoff query's specification."""
    rows = [
        query.row_from_path(circuit, logical_path_delay(circuit, lp, delays), lp)
        for lp in enumerate_logical_paths(circuit)
        if is_robustly_testable(circuit, lp)
    ]
    rows.sort(key=lambda row: row.sort_key())
    return rows[:k]


@functools.lru_cache(maxsize=None)
def _reference_signoff(name: str, text: str, delay_seed: int) -> list:
    if name == "s27":
        core = load(str(S27), scan=True).as_core()
        notes = parse_delay_annotations(text, source=str(S27))
    else:
        core, notes = bench.parse_bench(text, name=name), None
    return brute_force_rows(core, materialize_delays(core, notes, seed=delay_seed), K)


def _check_signoff(name, delay_seed, text, report) -> list:
    rows = list(report.rows)
    problems = []
    if len(rows) != K:
        problems.append(f"signoff {name}: {len(rows)} rows, want {K}")
    if any(a.delay < b.delay for a, b in zip(rows, rows[1:])):
        problems.append(f"signoff {name}: delays not non-increasing")
    if name in BRUTE_FORCE and rows != _reference_signoff(name, text, delay_seed):
        problems.append(f"signoff {name} (delay seed {delay_seed}): rows differ "
                        "from brute-force enumerate + is_robustly_testable")
    return problems


def check(outcomes: list, expected: dict, inputs: dict) -> list:
    texts = inputs["texts"]
    problems = []
    for kind, key, value in outcomes:
        if isinstance(value, Exception) and kind != "skip":
            continue  # raised inside the op: counted as a failed op
        if kind == "signoff":
            name, delay_seed = key
            problems += _check_signoff(name, delay_seed, texts[name], value)
        elif kind == "tightness":
            want = expected["tightness"][key]
            for cell in ("total_logical", "approx_accepted", "exact_accepted",
                         "refuted", "witness_replays"):
                if getattr(value, cell) != want[cell]:
                    problems.append(f"tightness {key}: {cell} "
                                    f"{getattr(value, cell)} != {want[cell]}")
        elif kind == "skip":
            if not isinstance(value, ClassifyError):
                problems.append(f"tightness {key}: expected a SKIP "
                                f"(ClassifyError), got {value!r}")
        else:
            circuit, must_test, test_set = value
            want = expected["testgen"][key]
            if len(must_test) != want["must_test"]:
                problems.append(f"testgen {key}: {len(must_test)} must-test "
                                f"paths != {want['must_test']}")
            if len(test_set.covered) != want["robust"]:
                problems.append(f"testgen {key}: {len(test_set.covered)} covered "
                                f"!= {want['robust']} robustly testable")
            if set(test_set.covered) | set(test_set.untestable) != set(must_test):
                problems.append(f"testgen {key}: covered + untestable != targets")
            coverage = robust_coverage_of_test_set(
                circuit, test_set.pairs, list(test_set.covered)
            )
            if coverage != 1.0:
                problems.append(f"testgen {key}: re-simulated coverage {coverage}")
    return problems


def summarize(_outcome: list) -> dict:
    """Nothing of a checked pass is kept."""
    return {}


def details(passes: list, _summaries: list) -> dict:
    """Workload figures per pass (the caller takes medians)."""
    def summed(kind):
        return [sum(t for k, t, _ok in one if k == kind) for one in passes]

    return {
        "signoff_s": ("s", summed("signoff")),
        "tightness_s": ("s", summed("tightness")),
        "testgen_s": ("s", summed("testgen")),
    }
