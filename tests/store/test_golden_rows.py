"""Store-format golden rows: a store file written by an earlier build
must keep hitting for every kind.

``tests/golden/store_rows.json`` holds the rows one fresh store received
from: c17 path counts, FS/NR passes with per-lead counts, both heuristic
sorts, σ^π under each sort, a tightness row, the c17 cone rows of
``repro-rd reanalyze c17 c17``, and ``repro-rd signoff
examples/s27_timing.bench --k 3``.  Loaded verbatim into a fresh store,
every kind must be served from the store with the value of a cold
recompute; recomputed into an empty store, the same keys must receive
the same payload bytes (``elapsed`` aside).
"""

import json
import sqlite3
from pathlib import Path

import pytest

from repro.classify.conditions import Criterion
from repro.classify.session import CircuitSession
from repro.gen.suite import get_circuit
from repro.incremental import cone_classify, reanalyze
from repro.signoff import signoff
from repro.store.db import ResultStore
from repro.store.fingerprint import CONE_SCHEMA_VERSION, SCHEMA_VERSION
from repro.store.kinds import KINDS
from repro.verdict.tightness import tightness_row

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = json.loads((ROOT / "tests" / "golden" / "store_rows.json").read_text())
S27 = str(ROOT / "examples" / "s27_timing.bench")

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


def _write_every_kind(store: ResultStore) -> None:
    """The operations that produced the golden rows."""
    c17 = get_circuit("c17")
    session = CircuitSession(c17, store=store)
    session.counts  # noqa: B018 - the counts row
    session.classify(Criterion.FS, collect_lead_counts=True)
    session.classify(Criterion.NR, collect_lead_counts=True)
    session.classify(Criterion.SIGMA_PI, sort=session.heuristic1_sort())
    session.classify(Criterion.SIGMA_PI, sort=session.heuristic2_sort())
    tightness_row(c17, store=store)
    reanalyze(c17, c17, store, criterion=Criterion.SIGMA_PI, sort="heu2")
    signoff(S27, k=3, store=store)


def _rows(path) -> dict:
    """``(table, fingerprint, kind, variant) -> payload`` of one file."""
    conn = sqlite3.connect(path)
    try:
        rows = {
            ("entries", fp, kind, variant): payload
            for fp, kind, variant, payload in conn.execute(
                "SELECT fingerprint, kind, variant, payload FROM entries"
            )
        }
        rows.update(
            {
                ("cone_entries", fp, "cone", variant): payload
                for fp, variant, payload in conn.execute(
                    "SELECT cone_fp, variant, payload FROM cone_entries"
                )
            }
        )
    finally:
        conn.close()
    return rows


def _without_elapsed(payload: str) -> dict:
    data = json.loads(payload)
    data.pop("elapsed", None)
    return data


@pytest.fixture
def golden_store(tmp_path):
    path = tmp_path / "golden.sqlite"
    with ResultStore(path) as store:
        store.stats()  # create both tables
        conn = sqlite3.connect(path)
        for row in GOLDEN:
            if row["table"] == "entries":
                conn.execute(
                    "INSERT INTO entries VALUES (?, ?, ?, ?, ?, 0, 0, 0)",
                    (row["fingerprint"], row["kind"], row["variant"],
                     SCHEMA_VERSION, row["payload"]),
                )
            else:
                conn.execute(
                    "INSERT INTO cone_entries VALUES (?, ?, ?, ?, 0, 0, 0)",
                    (row["fingerprint"], row["variant"], CONE_SCHEMA_VERSION,
                     row["payload"]),
                )
        conn.commit()
        conn.close()
        yield store


def test_golden_rows_cover_every_kind():
    assert {row["kind"] for row in GOLDEN} == set(KINDS)


def test_recompute_writes_the_golden_keys_and_payloads(tmp_path):
    path = tmp_path / "fresh.sqlite"
    with ResultStore(path) as store:
        _write_every_kind(store)
    written = _rows(path)
    golden = {
        (row["table"], row["fingerprint"], row["kind"], row["variant"]):
            row["payload"]
        for row in GOLDEN
    }
    assert set(written) == set(golden)
    for key, payload in golden.items():
        if "elapsed" in payload:
            assert _without_elapsed(written[key]) == _without_elapsed(payload)
        else:
            assert written[key] == payload, key


def test_every_golden_kind_is_served_from_the_store(golden_store):
    c17 = get_circuit("c17")
    fresh = CircuitSession(c17)
    warm = CircuitSession(c17, store=golden_store)

    assert warm.counts.through_lead == fresh.counts.through_lead
    for criterion in (Criterion.FS, Criterion.NR):
        served = warm.classify(criterion, collect_lead_counts=True)
        cold = fresh.classify(criterion, collect_lead_counts=True)
        assert (served.total_logical, served.accepted, served.edges_visited,
                list(served.lead_ctrl_counts)) == (
            cold.total_logical, cold.accepted, cold.edges_visited,
            list(cold.lead_ctrl_counts))
    for name in ("heuristic1_sort", "heuristic2_sort"):
        served_sort = getattr(warm, name)()
        assert served_sort.ranks == getattr(fresh, name)().ranks
        served = warm.classify(Criterion.SIGMA_PI, sort=served_sort)
        assert served.accepted == fresh.classify(
            Criterion.SIGMA_PI, sort=served_sort
        ).accepted
    assert warm.stats.store_misses == 0
    assert warm.stats.store_hits == 7
    assert warm.stats.classify_passes == 4  # all four served, none run

    row = tightness_row(c17, store=golden_store)
    assert row.source == "store"
    assert row.table_row() == tightness_row(c17).table_row()

    eco = reanalyze(c17, c17, golden_store, criterion=Criterion.SIGMA_PI,
                    sort="heu2")
    assert eco.base.reuse_ratio == eco.edited.reuse_ratio == 1.0
    assert eco.edited.table_bytes() == cone_classify(
        c17, Criterion.SIGMA_PI, sort="heu2"
    ).table_bytes()

    report = signoff(S27, k=3, store=golden_store)
    assert set(report.sources.values()) == {"store"}
    assert report.table_bytes() == signoff(S27, k=3).table_bytes()
