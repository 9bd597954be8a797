"""Store-backed sessions: warm results must equal fresh computation in
every observable way — including on permuted netlists, under
``max_accepted`` aborts, and across the process-pool harness."""

import pytest
from hypothesis import given, settings

from repro.circuit.bench import parse_bench, write_bench
from repro.circuit.examples import mux_circuit, paper_example_circuit
from repro.classify.conditions import Criterion
from repro.classify.session import CircuitSession
from repro.errors import ClassifyError
from repro.experiments.harness import run_table1_rows
from repro.gen.suite import get_circuit
from repro.obs import get_registry
from repro.store.db import ResultStore

from tests.strategies import small_circuits


def _shuffled_netlist(circuit, seed: int):
    import random

    lines = write_bench(circuit).splitlines()
    random.Random(seed).shuffle(lines)
    return parse_bench("\n".join(lines), name=circuit.name)


@pytest.fixture
def store(tmp_path):
    with ResultStore(tmp_path / "s.sqlite") as s:
        yield s


def _snapshot(session, criterion, **kwargs):
    result = session.classify(criterion, **kwargs)
    return (
        result.total_logical,
        result.accepted,
        list(result.lead_ctrl_counts),
    )


class TestWarmEqualsFresh:
    def test_counts_roundtrip(self, store):
        circuit = get_circuit("c17")
        cold = CircuitSession(circuit, store=store)
        fresh = CircuitSession(circuit)
        assert cold.counts.up == fresh.counts.up
        assert cold.counts.down == fresh.counts.down

        warm = CircuitSession(circuit, store=store)
        assert warm.counts.up == fresh.counts.up
        assert warm.counts.down == fresh.counts.down
        assert warm.counts.through_lead == fresh.counts.through_lead
        assert warm.stats.store_hits == 1
        assert warm.stats.store_misses == 0

    @settings(max_examples=15, deadline=None)
    @given(circuit=small_circuits(max_gates=10))
    def test_property_store_vs_fresh(self, tmp_path_factory, circuit):
        """The store-equivalence property of the issue: for random
        circuits, every pass served warm equals a fresh computation."""
        store = ResultStore(
            tmp_path_factory.mktemp("prop") / "s.sqlite"
        )
        try:
            fresh = CircuitSession(circuit)
            cold = CircuitSession(circuit, store=store)
            warm = CircuitSession(circuit, store=store)
            for criterion in (Criterion.FS, Criterion.NR):
                expected = _snapshot(
                    fresh, criterion, collect_lead_counts=True
                )
                assert _snapshot(
                    cold, criterion, collect_lead_counts=True
                ) == expected
                assert _snapshot(
                    warm, criterion, collect_lead_counts=True
                ) == expected
            sort = fresh.heuristic2_sort()
            assert cold.heuristic2_sort().ranks == sort.ranks
            assert warm.heuristic2_sort().ranks == sort.ranks
            assert warm.stats.store_hits > 0
        finally:
            store.close()

    def test_sigma_with_sort_variants(self, store):
        circuit = mux_circuit()
        fresh = CircuitSession(circuit)
        sort = fresh.heuristic1_sort()
        expected = _snapshot(fresh, Criterion.SIGMA_PI, sort=sort)

        cold = CircuitSession(circuit, store=store)
        assert _snapshot(
            cold, Criterion.SIGMA_PI, sort=cold.heuristic1_sort()
        ) == expected
        warm = CircuitSession(circuit, store=store)
        assert _snapshot(
            warm, Criterion.SIGMA_PI, sort=warm.heuristic1_sort()
        ) == expected
        assert warm.stats.count_paths_calls == 0


class TestPermutedNetlists:
    def test_permuted_bench_hits_cache(self, store):
        circuit = get_circuit("c17")
        cold = CircuitSession(circuit, store=store)
        cold.classify(Criterion.FS)
        assert cold.stats.store_hits == 0

        for seed in range(3):
            permuted = _shuffled_netlist(circuit, seed)
            warm = CircuitSession(permuted, store=store)
            result = warm.classify(Criterion.FS)
            assert warm.stats.store_hits > 0
            assert warm.stats.store_misses == 0
            fresh = CircuitSession(permuted).classify(Criterion.FS)
            assert (result.total_logical, result.accepted) == (
                fresh.total_logical,
                fresh.accepted,
            )

    def test_permuted_lead_counts_map_correctly(self, store):
        """Per-lead payloads are stored in canonical lead order; served
        onto a permuted netlist they must match that netlist's own
        fresh computation lead by lead."""
        circuit = paper_example_circuit()
        CircuitSession(circuit, store=store).classify(
            Criterion.FS, collect_lead_counts=True
        )
        permuted = _shuffled_netlist(circuit, 5)
        warm = CircuitSession(permuted, store=store)
        served = warm.classify(Criterion.FS, collect_lead_counts=True)
        fresh = CircuitSession(permuted).classify(
            Criterion.FS, collect_lead_counts=True
        )
        assert warm.stats.store_hits > 0
        assert list(served.lead_ctrl_counts) == list(fresh.lead_ctrl_counts)

    def test_permuted_heuristic_sorts_map_correctly(self, store):
        """A heu2 sort computed on one declaration order and served on
        another must equal the permuted netlist's own heu2 sort."""
        circuit = paper_example_circuit()
        CircuitSession(circuit, store=store).heuristic2_sort()
        permuted = _shuffled_netlist(circuit, 11)
        warm = CircuitSession(permuted, store=store)
        assert (
            warm.heuristic2_sort().ranks
            == CircuitSession(permuted).heuristic2_sort().ranks
        )
        assert warm.stats.store_hits > 0
        assert warm.stats.classify_passes == 0  # no FS/NR passes needed


class TestContracts:
    def test_cached_result_respects_max_accepted(self, store):
        """A warm run with a tighter ``max_accepted`` must abort exactly
        like a cold one — an over-budget cached entry is not served."""
        circuit = mux_circuit()
        cold = CircuitSession(circuit, store=store)
        full = cold.classify(Criterion.FS)
        assert full.accepted > 1
        warm = CircuitSession(circuit, store=store)
        with pytest.raises(ClassifyError):
            warm.classify(Criterion.FS, max_accepted=1)
        # and the abort did not poison the store: full results survive
        again = CircuitSession(circuit, store=store).classify(Criterion.FS)
        assert again.accepted == full.accepted

    def test_warm_heu2_sort_respects_max_accepted(self, store):
        """The stored Heu2 sort carries no budget: a budgeted caller
        must abort warm exactly as it does cold."""
        circuit = get_circuit("s432-rand")
        with pytest.raises(ClassifyError):
            CircuitSession(circuit).heuristic2_sort(max_accepted=10)
        CircuitSession(circuit, store=store).heuristic2_sort()  # warm up
        with pytest.raises(ClassifyError):
            CircuitSession(circuit, store=store).heuristic2_sort(
                max_accepted=10
            )

    def test_invalid_row_deleted_and_counted_unservable_row_kept(self, store):
        """A row failing its kind's validation is deleted and counted in
        ``store.corrupt_entries``; a valid row that cannot serve this
        request (over budget, no per-lead counts) stays."""
        circuit = mux_circuit()
        fp = CircuitSession(circuit).fingerprint
        corrupt = get_registry().counter("store.corrupt_entries")
        before = corrupt.value
        store.put(
            fp,
            "classify",
            "FS|none",
            {"total_logical": "bogus", "accepted": 1, "elapsed": 0.0,
             "edges_visited": 0},
        )
        with pytest.raises(ClassifyError):  # the abort writes nothing
            CircuitSession(circuit, store=store).classify(
                Criterion.FS, max_accepted=0
            )
        assert corrupt.value == before + 1
        assert store.stats().entries == 1  # only the counts row is left

        full = CircuitSession(circuit, store=store).classify(Criterion.FS)
        with pytest.raises(ClassifyError):
            CircuitSession(circuit, store=store).classify(
                Criterion.FS, max_accepted=full.accepted - 1
            )
        need_leads = CircuitSession(circuit, store=store)
        need_leads.classify(Criterion.FS, collect_lead_counts=True)
        assert need_leads.stats.store_hits == 1  # the counts row
        assert corrupt.value == before + 1
        assert store.stats().by_kind == {"classify": 1, "counts": 1}

    def test_on_path_bypasses_store(self, store):
        circuit = mux_circuit()
        CircuitSession(circuit, store=store).classify(Criterion.FS)
        warm = CircuitSession(circuit, store=store)
        paths = []
        warm.classify(Criterion.FS, on_path=paths.append)
        result = warm.classify(Criterion.FS)
        assert len(paths) == result.accepted  # enumeration really ran

    def test_lead_counts_upgrade_entry(self, store):
        """An entry cached without per-lead counts is recomputed (not
        served) for a caller that needs them, then enriched in place."""
        circuit = paper_example_circuit()
        CircuitSession(circuit, store=store).classify(Criterion.FS)
        need = CircuitSession(circuit, store=store)
        served = need.classify(Criterion.FS, collect_lead_counts=True)
        fresh = CircuitSession(circuit).classify(
            Criterion.FS, collect_lead_counts=True
        )
        assert list(served.lead_ctrl_counts) == list(fresh.lead_ctrl_counts)
        enriched = CircuitSession(circuit, store=store)
        assert list(
            enriched.classify(
                Criterion.FS, collect_lead_counts=True
            ).lead_ctrl_counts
        ) == list(fresh.lead_ctrl_counts)
        assert enriched.stats.store_hits > 0

    def test_corrupted_entry_recomputed_not_served(self, store):
        """A structurally-broken payload under the right key must be a
        miss: the session recomputes and the result matches fresh."""
        circuit = mux_circuit()
        session = CircuitSession(circuit, store=store)
        fresh = CircuitSession(circuit)
        store.put(
            session.fingerprint, "counts", "", {"up": [1], "down": "bogus"}
        )
        store.put(
            session.fingerprint,
            "classify",
            "FS|none",
            {"total_logical": "x", "accepted": None},
        )
        assert session.counts.up == fresh.counts.up
        result = session.classify(Criterion.FS)
        assert result.accepted == fresh.classify(Criterion.FS).accepted
        assert session.stats.store_hits == 0
        assert session.stats.store_misses > 0

    def test_version_mismatched_entry_recomputed_not_served(self, store):
        """Entries stamped with another schema version are invisible."""
        import sqlite3 as sql

        from repro.store.fingerprint import SCHEMA_VERSION

        circuit = mux_circuit()
        cold = CircuitSession(circuit, store=store)
        expected = cold.classify(Criterion.FS).accepted
        # re-stamp every row as a different (e.g. older) schema version
        conn = sql.connect(store.path)
        conn.execute("UPDATE entries SET schema=?", (SCHEMA_VERSION + 1,))
        conn.commit()
        conn.close()
        warm = CircuitSession(circuit, store=store)
        assert warm.classify(Criterion.FS).accepted == expected
        assert warm.stats.store_hits == 0
        assert warm.stats.store_misses > 0

    def test_store_accepts_plain_path(self, tmp_path):
        session = CircuitSession(
            mux_circuit(), store=str(tmp_path / "p.sqlite")
        )
        session.classify(Criterion.FS)
        assert isinstance(session.store, ResultStore)


class TestHarnessIntegration:
    def test_jobs2_rows_match_no_store_run(self, store):
        circuits = [paper_example_circuit(), mux_circuit()]
        plain = run_table1_rows(circuits)
        pooled = run_table1_rows(circuits, jobs=2, store=store)
        warm = run_table1_rows(circuits, jobs=2, store=store)
        for a, b, c in zip(plain, pooled, warm):
            assert (a.fus_percent, a.heu1_percent, a.heu2_percent) == (
                b.fus_percent, b.heu1_percent, b.heu2_percent
            ) == (c.fus_percent, c.heu1_percent, c.heu2_percent)
        stats = warm[0].session_stats
        assert stats is not None and stats["store_hits"] > 0
        assert stats["count_paths_calls"] == 0
