"""The benchmark's own tests: tiny sizes of every workload, end to end.

    python3 -m pytest perfbench -q

Each workload runs at the default seed (1) and one other seed (2),
untraced and traced, and must answer correctly and print every metric
that BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from common import PROBE_REF_S  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = {"tables-cold": 1, "path-queries": 1, "serve-mix": 2}


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT, script=None):
    script = script or HERE / "run.py"
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS[workload]), "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_declared_metrics_are_the_emitted_ones():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert declared == run.per_layer_names()


def test_expected_values_match_their_sources():
    """expected.json freezes the golden Table I/III cells and the
    BENCH_exact tightness rows; it must agree with them while they exist."""
    expected = json.loads((HERE / "expected.json").read_text())
    golden = ROOT / "tests" / "golden" / "tables_fingerprints.json"
    if golden.exists():
        tables = json.loads(golden.read_text())
        for kind in ("table1", "table3"):
            for row in tables[kind]:
                want = expected[kind][row["name"]]
                assert {k: row[k] for k in want} == want
    exact = ROOT / "BENCH_exact.json"
    if exact.exists():
        for row in json.loads(exact.read_text())["rows"]:
            if not row["skipped"]:
                want = expected["tightness"][row["circuit"]]
                assert {k: row[k] for k in want} == want


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_is_correct_and_complete(workload, seed):
    proc = bench(workload, seed, 0)
    assert proc.returncode == 0, proc.stderr[-2000:]
    figures_line, result_line = proc.stdout.splitlines()[-2:]
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == run.END_TO_END[name]
        assert entry["value"] > 0, name
    record = json.loads(figures_line)
    assert record["seed"] == seed and record["nproc"] >= 1
    assert record["python"] and record["source_digest"]
    for name in list(run.END_TO_END) + ["error_ratio", "setup_raw_s", "host_scale",
                                        "pass_s" if workload != "serve-mix" else "rps"]:
        assert record["figures"][name]["samples"] >= 1, name
    own = {"tables-cold": ("table1_s", "table3_s"),
           "path-queries": ("signoff_s", "tightness_s", "testgen_s"),
           "serve-mix": ("hit_p50_ms", "miss_p50_ms", "eco_p50_ms",
                         "latency_p99_ms", "cli_warm_ms")}[workload]
    for name in own:
        assert record["figures"][name]["value"] > 0, name


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reconciles(workload):
    proc = bench(workload, 1, 1)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    metrics = result["metrics"]
    assert result["correct"] is True
    assert set(metrics) == set(run.per_layer_names())
    wall = metrics["obs.traced_wall_s"]["value"]
    selves = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
    assert abs(selves + metrics["other_s"]["value"] - wall) <= 1e-3 * wall
    # the ops lie inside the traced wall, so this is looser than the
    # run's own check against the ops' summed time
    assert 0 <= metrics["obs.untraced_op_s"]["value"] <= run.UNTRACED_SHARE_MAX * wall
    assert metrics["obs.trace_overhead"]["value"] > 0
    record = json.loads(proc.stdout.splitlines()[-2])
    spans = Path(record["figures"]["spans_file"]).read_text().splitlines()
    assert len(spans) == record["figures"]["spans"] > 0
    first = json.loads(spans[0])
    assert {"name", "start", "end", "parent", "request"} <= set(first)


def test_spans_inside_ops_are_set_against_the_ops_own_time():
    """The untraced-work check clips the union of spans to each op, so
    time inside an op that no span covers shows up."""
    tracer = Tracer()
    tracer.spans = [["a", 1.0, 2.0, None, None, None],
                    ["b", 1.5, 1.8, 0, None, None],
                    ["c", 3.0, 3.5, None, None, None],
                    ["d", 5.0, 6.0, None, None, None]]
    assert tracer.covered_seconds() == 2.5
    ops = [(0.5, 2.5), (3.0, 4.0)]
    assert tracer.covered_seconds(ops) == 1.5
    assert sum(end - start for start, end in ops) - tracer.covered_seconds(ops) == 1.5


def test_reference_pass_takes_each_ops_median_over_passes():
    """Each pass's op times are scaled by its host probes; the reference
    pass sums each op's median, so one slow pass does not move it."""
    rec = run.Recorder()
    ref = PROBE_REF_S
    rec.passes = [[("a", 1.0, True), ("b", 2.0, True)],
                  [("a", 2.0, True), ("b", 4.0, True)],   # host half as fast
                  [("a", 1.0, True), ("b", 9.0, True)]]   # b had an outlier
    rec.probes = [[ref, ref], [2 * ref, 2 * ref], [ref, ref]]
    assert rec.reference_pass_s() == 1.0 + 2.0


def test_refuses_to_run_without_the_program(tmp_path):
    """Only BENCHMARK.json and perfbench/: exit non-zero, print no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("tables-cold", 1, 0, cwd=tmp_path,
                 script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_wrong_answer_fails_the_run(tmp_path):
    """A golden cell that no longer matches makes the run exit 1 with
    ``correct: false``."""
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    path = tmp_path / "perfbench" / "expected.json"
    expected = json.loads(path.read_text())
    expected["table1"]["s880-alu"]["heu2_percent"] += 1.0
    path.write_text(json.dumps(expected))
    proc = bench("tables-cold", 1, 0, cwd=tmp_path,
                 script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode == 1
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is False
    assert "s880-alu: heu2_percent" in proc.stderr
