"""Cone-granularity classification, the cone store, and the ECO flow."""

import sqlite3

import pytest

from repro.classify import CircuitSession, Criterion, classify
from repro.circuit.gates import GateType
from repro.errors import ClassifyError
from repro.gen.suite import get_circuit
from repro.incremental import cone_classify, diff_circuits, reanalyze
from repro.obs import get_registry
from repro.sorting import heuristic2_sort
from repro.store.db import STORE_FORMAT_VERSION, ResultStore

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


@pytest.fixture
def store(tmp_path):
    with ResultStore(tmp_path / "store.sqlite") as s:
        yield s


def _one_gate_edit(circuit, name=None):
    """Copy + flip the type of the first AND/OR gate (a 1-gate ECO)."""
    flips = {
        GateType.AND: GateType.OR,
        GateType.OR: GateType.AND,
        GateType.NAND: GateType.NOR,
        GateType.NOR: GateType.NAND,
    }
    edited = circuit.copy(name or f"{circuit.name}-eco")
    gid = next(
        g for g in range(edited.num_gates) if edited.gate_type(g) in flips
    )
    flipped = flips[edited.gate_type(gid)]
    edited.replace_gate(edited.gate_name(gid), flipped, list(edited.fanin(gid)))
    return edited


class TestConeClassify:
    def test_aggregate_matches_whole_circuit(self):
        c = get_circuit("c17")
        whole = classify(c, Criterion.FS)
        report = cone_classify(c, Criterion.FS)
        assert report.result.accepted == whole.accepted
        assert report.result.total_logical == whole.total_logical
        assert report.cones_total == len(c.outputs)
        assert report.cones_reused == 0  # storeless run computes all

    def test_explicit_sort_restricted_per_cone(self):
        c = get_circuit("c17")
        sort = heuristic2_sort(c)
        whole = classify(c, Criterion.SIGMA_PI, sort=sort)
        report = cone_classify(c, Criterion.SIGMA_PI, sort=sort)
        assert report.result.accepted == whole.accepted
        assert report.result.total_logical == whole.total_logical

    def test_cold_then_warm_roundtrip(self, store):
        c = get_circuit("c17")
        cold = cone_classify(c, Criterion.FS, store=store)
        assert cold.cones_reused == 0
        warm = cone_classify(c, Criterion.FS, store=store)
        assert warm.cones_reused == warm.cones_total
        assert warm.reuse_ratio == 1.0
        assert warm.table_bytes() == cold.table_bytes()
        snapshot = get_registry().snapshot()["counters"]
        assert snapshot["incremental.cone_store_hits"] == warm.cones_total
        assert snapshot["incremental.cones_dirty"] == cold.cones_total

    def test_variants_do_not_alias(self, store):
        """Criterion, sort and budget each key distinct cone rows."""
        c = get_circuit("c17")
        cone_classify(c, Criterion.FS, store=store)
        nr = cone_classify(c, Criterion.NR, store=store)
        assert nr.cones_reused == 0  # FS rows must not satisfy NR
        heu = cone_classify(c, Criterion.SIGMA_PI, sort="heu2", store=store)
        assert heu.cones_reused == 0
        budget = cone_classify(
            c, Criterion.FS, max_accepted=10_000, store=store
        )
        assert budget.cones_reused == 0  # budget is part of the key

    def test_jobs_parallel_is_deterministic(self, store):
        c = get_circuit("s1908-csel")
        serial = cone_classify(c, Criterion.FS)
        parallel = cone_classify(c, Criterion.FS, jobs=2)
        assert parallel.table_bytes() == serial.table_bytes()
        # counters are bumped in the parent: totals independent of jobs
        counters = get_registry().snapshot()["counters"]
        assert counters["incremental.cones_dirty"] == 2 * serial.cones_total

    def test_budget_abort_raises_and_writes_nothing(self, store):
        c = get_circuit("c17")
        with pytest.raises(ClassifyError):
            cone_classify(c, Criterion.FS, max_accepted=0, store=store)
        conn = sqlite3.connect(store.path)
        try:
            budget_rows = conn.execute(
                "SELECT COUNT(*) FROM cone_entries WHERE variant LIKE '%|0'"
            ).fetchone()[0]
        finally:
            conn.close()
        assert budget_rows == 0  # the aborted variant never hits the disk


class TestReanalyze:
    def test_byte_identical_and_mostly_reused(self, store):
        base = get_circuit("s1908-csel")
        edited = _one_gate_edit(base)
        report = reanalyze(base, edited, store=store, criterion=Criterion.FS)
        cold = cone_classify(edited, Criterion.FS)
        assert report.edited.table_bytes() == cold.table_bytes()
        assert report.base.cones_reused == 0  # cold store: base computed
        assert report.edited.cones_reused == len(report.diff.clean)
        assert report.edited.cones_computed == len(
            report.diff.dirty_outputs
        )
        assert report.reuse_ratio > 0.5
        assert "reused" in report.render()

    def test_steady_state_base_is_free(self, store):
        base = get_circuit("c17")
        edited = _one_gate_edit(base)
        reanalyze(base, edited, store=store, criterion=Criterion.FS)
        again = reanalyze(base, edited, store=store, criterion=Criterion.FS)
        assert again.base.cones_reused == again.base.cones_total
        assert again.edited.cones_reused == again.edited.cones_total

    def test_to_dict_shape(self, store):
        base = get_circuit("c17")
        report = reanalyze(
            base, _one_gate_edit(base), store=store, criterion=Criterion.FS
        )
        payload = report.to_dict()
        assert set(payload) == {"diff", "base", "edited", "reuse_ratio"}
        assert payload["diff"]["counts"]["DIRTY"] >= 1
        assert isinstance(payload["edited"]["cones"], list)
        assert payload["edited"]["cones_total"] == len(
            payload["edited"]["cones"]
        )
        assert payload["edited"]["cones_reused"] >= 1


class TestStoreResilience:
    def test_corrupt_cone_row_is_a_miss_not_a_crash(self, store):
        c = get_circuit("c17")
        cold = cone_classify(c, Criterion.FS, store=store)
        conn = sqlite3.connect(store.path)
        try:
            conn.execute(
                "UPDATE cone_entries SET payload='{not json' "
                "WHERE rowid=(SELECT MIN(rowid) FROM cone_entries)"
            )
            conn.commit()
        finally:
            conn.close()
        warm = cone_classify(c, Criterion.FS, store=store)
        assert warm.table_bytes() == cold.table_bytes()
        assert warm.cones_reused == warm.cones_total - 1
        # the poisoned row was recomputed and replaced, not served
        final = cone_classify(c, Criterion.FS, store=store)
        assert final.cones_reused == final.cones_total

    def test_memory_store_keeps_cone_rows(self):
        """Computed cones are written back through the caller's own
        handle, so a private ``:memory:`` store keeps them."""
        c = get_circuit("c17")
        with ResultStore(":memory:") as memory:
            first = cone_classify(c, Criterion.FS, store=memory)
            second = cone_classify(c, Criterion.FS, store=memory)
            assert [row.source for row in first.rows] == ["computed"] * 2
            assert [row.source for row in second.rows] == ["store"] * 2
            assert memory.stats().cone_entries == len(c.outputs)

    def test_legacy_v1_store_degrades_gracefully(self, tmp_path):
        path = tmp_path / "v1.sqlite"
        conn = sqlite3.connect(path)
        conn.execute(
            "CREATE TABLE entries ("
            "fingerprint TEXT NOT NULL, kind TEXT NOT NULL, "
            "variant TEXT NOT NULL, schema INTEGER NOT NULL, "
            "payload TEXT NOT NULL, created REAL NOT NULL, "
            "last_used REAL NOT NULL, hits INTEGER NOT NULL DEFAULT 0, "
            "PRIMARY KEY (fingerprint, kind, variant, schema))"
        )
        conn.commit()
        conn.close()
        with ResultStore(path) as legacy:
            assert not legacy.supports_cones
            # cone API degrades: put is a no-op, get always misses
            legacy.cone_put("rdcfp1:x", "FS|none|-", {"total_logical": 1})
            assert legacy.cone_get("rdcfp1:x", "FS|none|-") is None
            # cone_classify still answers, it just never reuses
            c = get_circuit("c17")
            first = cone_classify(c, Criterion.FS, store=legacy)
            second = cone_classify(c, Criterion.FS, store=legacy)
            assert first.cones_reused == 0 and second.cones_reused == 0
            assert second.table_bytes() == first.table_bytes()
            # whole-circuit entries still work on the v1 file
            session = CircuitSession(c, store=legacy)
            session.classify(Criterion.FS)
            session.classify(Criterion.FS)
            assert session.stats.store_hits >= 1
            stats = legacy.stats()
            assert not stats.supports_cones
            assert "disabled" in stats.render()
            # clear() upgrades the file to v2 in place
            legacy.clear()
            assert legacy.supports_cones
            assert cone_classify(
                c, Criterion.FS, store=legacy
            ).cones_reused == 0
            assert cone_classify(
                c, Criterion.FS, store=legacy
            ).cones_reused == len(c.outputs)
        conn = sqlite3.connect(path)
        try:
            version = conn.execute("PRAGMA user_version").fetchone()[0]
        finally:
            conn.close()
        assert version == STORE_FORMAT_VERSION

    def test_stats_and_gc_cover_cone_table(self, store):
        c = get_circuit("c17")
        session = CircuitSession(c, store=store)
        session.classify(Criterion.FS)  # whole-circuit row
        cone_classify(c, Criterion.FS, store=store)  # cone rows
        cone_classify(c, Criterion.FS, store=store)  # warm: hits
        stats = store.stats()
        assert stats.entries >= 1
        assert stats.cone_entries == len(c.outputs)
        assert stats.cone_hits == len(c.outputs)
        assert stats.cone_payload_bytes > 0
        assert "cone:" in stats.render()
        # a stale-schema cone row is visible in stats and reclaimed by gc
        conn = sqlite3.connect(store.path)
        try:
            conn.execute(
                "INSERT INTO cone_entries VALUES "
                "('rdcfp1:dead', 'FS|none|-', 999, '{}', 0.0, 0.0, 0)"
            )
            conn.commit()
        finally:
            conn.close()
        assert store.stats().cone_stale == 1
        assert store.gc() >= 1
        assert store.stats().cone_stale == 0
        assert store.stats().cone_entries == len(c.outputs)


class TestSessionCones:
    def test_read_through_and_stats(self, store):
        c = get_circuit("c17")
        session = CircuitSession(c, store=store)
        whole = classify(c, Criterion.FS)
        first = session.classify(Criterion.FS, cones=True)
        second = session.classify(Criterion.FS, cones=True)
        assert first.accepted == second.accepted == whole.accepted
        assert first.total_logical == whole.total_logical
        assert session.stats.cone_misses == len(c.outputs)
        assert session.stats.cone_hits == len(c.outputs)
        assert "cones=" in session.stats.summary()

    def test_whole_circuit_only_features_rejected(self):
        session = CircuitSession(get_circuit("c17"))
        with pytest.raises(ValueError, match="whole-circuit"):
            session.classify(Criterion.FS, cones=True, collect_lead_counts=True)
        with pytest.raises(ValueError, match="whole-circuit"):
            session.classify(
                Criterion.FS, cones=True, on_path=lambda path: None
            )
