"""Exact-vs-approximate tightness tables (the Lemma-2 gap, measured).

Algorithm 2's word-parallel classifier computes a *superset*
``LP^sup(σ^π)`` of the true criterion set by local implications; this
module measures how loose that approximation is on real circuits.  For
one circuit:

1. the classifier streams its accepted paths (``on_path`` — exactly
   the superset; every rejected path is *provably* outside the set, so
   only accepted paths need a SAT query);
2. the :class:`repro.verdict.VerdictOracle` decides true membership of
   each accepted path, replaying every SAT witness through simulation;
3. the row reports approximate vs. exact RD% — the gap is the number
   of classifier-accepted paths the SAT oracle refuted.

Rows are store-cached under the ``rdfp1:`` fingerprint (kind
``"tightness"`` of :data:`repro.store.kinds.KINDS`).  The SAT queries fan
out over ``--jobs`` in path chunks; the deterministic table fields
(path counts, RD percentages, replay counts) are chunking-independent,
so :meth:`TightnessReport.table_bytes` is byte-identical at any job
count — solver-work diagnostics (conflicts/decisions/reuse), which do
depend on query order, live only in :meth:`TightnessRow.to_dict`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.circuit.netlist import Circuit
from repro.classify.conditions import Criterion
from repro.classify.session import CircuitSession
from repro.errors import ClassifyError, VerdictError
from repro.experiments.supervisor import RowFailure, TaskRunner
from repro.obs import get_registry, span
from repro.paths.path import LogicalPath, PhysicalPath
from repro.store.kinds import TIGHTNESS_SCHEMA
from repro.util.serialize import to_json
from repro.util.tables import TextTable
from repro.verdict.oracle import DEFAULT_MAX_CONFLICTS, VerdictOracle

if TYPE_CHECKING:
    from repro.sorting.input_sort import InputSort


#: Default PI ceiling for the *suite sweep* only — it keeps the default
#: ``repro-rd tightness`` run aligned with the circuits whose verdicts
#: can be differential-checked against ``exact.exists_vector``.  The
#: oracle itself has no input-count limit.
DEFAULT_MAX_INPUTS = 20

#: Default cap on classifier-accepted paths per circuit — bounds the
#: number of SAT queries a sweep row may issue; circuits over the cap
#: get a structured SKIP row instead of an open-ended run.
DEFAULT_MAX_ACCEPTED = 50_000

#: Paths per fan-out chunk (each worker task rebuilds the circuit's
#: base encoding once, then decides its chunk incrementally).
CHUNK_SIZE = 512


@dataclass(frozen=True)
class TightnessRow:
    """One circuit's exact-vs-approximate verdict counts."""

    circuit: str
    criterion: str
    sort_label: str
    total_logical: int
    approx_accepted: int
    exact_accepted: int
    witness_replays: int
    conflicts: int = 0
    decisions: int = 0
    learned_reuse: int = 0
    elapsed: float = 0.0
    source: str = "computed"  #: "store" | "computed" | "skipped"
    skipped: str = ""  #: non-empty = reason this circuit was not decided

    @property
    def refuted(self) -> int:
        """Classifier-accepted paths the SAT oracle refuted (the gap)."""
        return self.approx_accepted - self.exact_accepted

    @property
    def approx_rd_percent(self) -> float:
        if self.total_logical == 0:
            return 0.0
        return 100.0 * (self.total_logical - self.approx_accepted) / self.total_logical

    @property
    def exact_rd_percent(self) -> float:
        if self.total_logical == 0:
            return 0.0
        return 100.0 * (self.total_logical - self.exact_accepted) / self.total_logical

    @property
    def gap_percent(self) -> float:
        """Exact minus approximate RD% — how much the paper's Algorithm 2
        under-reports (always >= 0 by soundness of the superset)."""
        return self.exact_rd_percent - self.approx_rd_percent

    def table_row(self) -> dict:
        """Deterministic fields only: byte-identical cold/warm and at
        any ``--jobs`` count (solver work and timing excluded)."""
        return {
            "circuit": self.circuit,
            "criterion": self.criterion,
            "sort": self.sort_label,
            "total_logical": self.total_logical,
            "approx_accepted": self.approx_accepted,
            "exact_accepted": self.exact_accepted,
            "refuted": self.refuted,
            "approx_rd_percent": self.approx_rd_percent,
            "exact_rd_percent": self.exact_rd_percent,
            "gap_percent": self.gap_percent,
            "witness_replays": self.witness_replays,
            "skipped": self.skipped,
        }

    def to_dict(self) -> dict:
        row = self.table_row()
        row["conflicts"] = self.conflicts
        row["decisions"] = self.decisions
        row["learned_reuse"] = self.learned_reuse
        row["elapsed"] = self.elapsed
        row["source"] = self.source
        return row


@dataclass(frozen=True)
class TightnessReport:
    """A tightness sweep over several circuits."""

    criterion: Criterion
    sort_label: str
    rows: "tuple[TightnessRow, ...]"
    wall_seconds: float = 0.0

    @property
    def decided_rows(self) -> "tuple[TightnessRow, ...]":
        return tuple(row for row in self.rows if not row.skipped)

    @property
    def total_refuted(self) -> int:
        return sum(row.refuted for row in self.decided_rows)

    @property
    def total_queries(self) -> int:
        return sum(row.approx_accepted for row in self.decided_rows)

    def table_payload(self) -> dict:
        """The deterministic table (see :meth:`TightnessRow.table_row`)."""
        return {
            "schema": TIGHTNESS_SCHEMA,
            "criterion": self.criterion.name,
            "sort": self.sort_label,
            "rows": [row.table_row() for row in self.rows],
            "circuits": len(self.rows),
            "decided": len(self.decided_rows),
            "refuted": self.total_refuted,
            "sat_queries": self.total_queries,
        }

    def table_bytes(self) -> bytes:
        return to_json(self.table_payload()).encode()

    def to_dict(self) -> dict:
        payload = self.table_payload()
        payload["rows"] = [row.to_dict() for row in self.rows]
        payload["wall_seconds"] = self.wall_seconds
        return payload

    def render(self) -> str:
        table = TextTable(
            [
                "circuit",
                "|LP|",
                "approx acc",
                "exact acc",
                "refuted",
                "approx RD%",
                "exact RD%",
                "gap",
                "note",
            ],
            title=(
                f"Lemma-2 tightness — exact vs. approximate RD% "
                f"({self.criterion.name}, sort={self.sort_label})"
            ),
        )
        for row in self.rows:
            if row.skipped:
                table.add_row(
                    [row.circuit, row.total_logical or "-", "-", "-", "-",
                     "-", "-", "-", f"SKIP: {row.skipped}"]
                )
            else:
                table.add_row(
                    [
                        row.circuit,
                        row.total_logical,
                        row.approx_accepted,
                        row.exact_accepted,
                        row.refuted,
                        f"{row.approx_rd_percent:.2f}",
                        f"{row.exact_rd_percent:.2f}",
                        f"{row.gap_percent:+.2f}",
                        row.source,
                    ]
                )
        return table.render()


# -- sort resolution ----------------------------------------------------
def resolve_sort(
    session: CircuitSession,
    criterion: Criterion,
    sort: "InputSort | str | None",
) -> "tuple[InputSort | None, str]":
    """``(sort object, label)`` from a symbolic name or explicit sort.

    FS/NR impose no π-order, so their queries always run sort-free.
    """
    from repro.sorting.input_sort import InputSort

    if criterion is not Criterion.SIGMA_PI:
        return None, "none"
    if isinstance(sort, InputSort):
        return sort, "custom"
    kind = sort or "heu2"
    if kind == "pin":
        return InputSort.pin_order(session.circuit), "pin"
    if kind == "heu1":
        return session.heuristic1_sort(), "heu1"
    if kind == "heu2":
        return session.heuristic2_sort(), "heu2"
    if kind == "heu2inv":
        return session.heuristic2_sort().inverted(), "heu2inv"
    raise ValueError(f"unknown sort {kind!r}; valid: pin, heu1, heu2, heu2inv")


# -- the per-chunk worker task (module-level: picklable) ----------------
def _verdict_chunk_task(payload):
    """Decide one chunk of paths; returns aggregate counts only (sums
    are order- and chunking-independent, keeping tables deterministic).
    """
    circuit, criterion_name, ranks, raw_paths, max_conflicts = payload
    from repro.sorting.input_sort import InputSort

    criterion = Criterion[criterion_name]
    sort = None if ranks is None else InputSort(circuit, ranks)
    oracle = VerdictOracle(circuit, max_conflicts=max_conflicts)
    sat = 0
    replays = 0
    for leads, final_value in raw_paths:
        lp = LogicalPath(PhysicalPath(tuple(leads)), final_value)
        verdict = oracle.decide(lp, criterion, sort)
        if verdict.in_set:
            sat += 1
            replays += 1
    stats = oracle.solver.stats
    return (sat, replays, stats.conflicts, stats.decisions, stats.learned_reuse)


# -- entry points -------------------------------------------------------
def tightness_row(
    circuit: Circuit,
    criterion: Criterion = Criterion.SIGMA_PI,
    sort: "InputSort | str | None" = "heu2",
    *,
    session: "CircuitSession | None" = None,
    store=None,
    runner: "TaskRunner | None" = None,
    max_accepted: "int | None" = None,
    max_conflicts: int = DEFAULT_MAX_CONFLICTS,
) -> TightnessRow:
    """Exact-vs-approximate verdict counts for one circuit.

    Raises :class:`ClassifyError` when the classifier accepts more than
    ``max_accepted`` paths (the sweep turns that into a SKIP row) and
    :class:`VerdictError` on any certificate failure.  ``circuit`` may
    be anything :func:`repro.loading.as_core` resolves (a
    ``ScanCircuit`` or ``.bench`` path included).
    """
    start = time.perf_counter()
    if not isinstance(circuit, Circuit):
        from repro.loading import as_core

        circuit = as_core(circuit)
    if session is None:
        session = CircuitSession(circuit, store=store)
    if runner is None:
        runner = TaskRunner(jobs=1)
    sort_obj, sort_label = resolve_sort(session, criterion, sort)

    counts, source = session.cached(
        "tightness",
        lambda: _decide_accepted(session, criterion, sort_obj, runner,
                                 max_accepted, max_conflicts),
        criterion=criterion,
        sort=sort_obj,
        max_accepted=max_accepted,
    )
    if source == "store":
        get_registry().counter("verdict.row_store_hits").inc()
    return TightnessRow(circuit.name, criterion.name, sort_label, *counts,
                        elapsed=time.perf_counter() - start, source=source)


def _decide_accepted(session, criterion, sort_obj, runner, max_accepted,
                     max_conflicts) -> tuple:
    """Classify with streaming, then SAT-decide every accepted path:
    ``(total, approx, exact, replays, conflicts, decisions, reuse)``."""
    circuit = session.circuit
    with span("verdict.tightness", circuit=circuit.name,
              criterion=criterion.name):
        accepted: "list[tuple[tuple[int, ...], int]]" = []
        result = session.classify(
            criterion,
            sort=sort_obj,
            max_accepted=max_accepted,
            on_path=lambda lp: accepted.append(
                (lp.path.leads, lp.final_value)
            ),
        )
        total = result.total_logical
        approx = result.accepted
        chunks = [
            accepted[i : i + CHUNK_SIZE]
            for i in range(0, len(accepted), CHUNK_SIZE)
        ] or []
        payloads = [
            (circuit, criterion.name,
             None if sort_obj is None else sort_obj.ranks,
             chunk, max_conflicts)
            for chunk in chunks
        ]
        labels = [f"{circuit.name}:verdicts[{i}]" for i in range(len(payloads))]
        outcomes = runner.map(_verdict_chunk_task, payloads, labels=labels)
        exact = replays = conflicts = decisions = reuse = 0
        for outcome in outcomes:
            if isinstance(outcome, RowFailure):
                raise VerdictError(
                    f"verdict chunk {outcome.label} failed "
                    f"({outcome.kind}): {outcome.message}"
                )
            sat, rep, conf, dec, ruse = outcome
            exact += sat
            replays += rep
            conflicts += conf
            decisions += dec
            reuse += ruse

    return (total, approx, exact, replays, conflicts, decisions, reuse)


def default_suite_circuits(max_inputs: int = DEFAULT_MAX_INPUTS) -> list[str]:
    """Suite circuit names eligible for the default tightness sweep
    (at most ``max_inputs`` PIs, so verdicts stay cross-checkable
    against ``exact.exists_vector``)."""
    from repro.gen.suite import SUITE, get_circuit

    names = []
    for name in sorted(SUITE):
        if len(get_circuit(name).inputs) <= max_inputs:
            names.append(name)
    return names


def run_tightness(
    circuits: "Iterable[Circuit] | None" = None,
    criterion: Criterion = Criterion.SIGMA_PI,
    sort: "InputSort | str | None" = "heu2",
    *,
    store=None,
    runner: "TaskRunner | None" = None,
    max_inputs: int = DEFAULT_MAX_INPUTS,
    max_accepted: "int | None" = DEFAULT_MAX_ACCEPTED,
    max_conflicts: int = DEFAULT_MAX_CONFLICTS,
) -> TightnessReport:
    """Tightness sweep: one row per circuit, SKIP rows for circuits over
    the PI ceiling or the accepted-paths budget (never a silent drop).
    """
    from repro.gen.suite import get_circuit

    start = time.perf_counter()
    if circuits is None:
        circuits = [get_circuit(name) for name in default_suite_circuits(max_inputs)]
    else:
        from repro.loading import as_core

        circuits = [
            c if isinstance(c, Circuit) else as_core(c) for c in circuits
        ]
    if criterion is not Criterion.SIGMA_PI:
        report_sort = "none"
    elif isinstance(sort, str):
        report_sort = sort
    elif sort is None:
        report_sort = "heu2"
    else:
        report_sort = "custom"
    rows = []
    for circuit in circuits:
        n_inputs = len(circuit.inputs)
        if n_inputs > max_inputs:
            rows.append(
                TightnessRow(
                    circuit=circuit.name,
                    criterion=criterion.name,
                    sort_label="-",
                    total_logical=0,
                    approx_accepted=0,
                    exact_accepted=0,
                    witness_replays=0,
                    source="skipped",
                    skipped=f"{n_inputs} PIs > --max-inputs {max_inputs}",
                )
            )
            continue
        try:
            row = tightness_row(
                circuit,
                criterion,
                sort,
                store=store,
                runner=runner,
                max_accepted=max_accepted,
                max_conflicts=max_conflicts,
            )
            rows.append(row)
        except ClassifyError:
            rows.append(
                TightnessRow(
                    circuit=circuit.name,
                    criterion=criterion.name,
                    sort_label="-",
                    total_logical=0,
                    approx_accepted=0,
                    exact_accepted=0,
                    witness_replays=0,
                    source="skipped",
                    skipped=(
                        f"classifier accepted > {max_accepted} paths "
                        f"(--max-accepted budget)"
                    ),
                )
            )
    return TightnessReport(
        criterion=criterion,
        sort_label=report_sort,
        rows=tuple(rows),
        wall_seconds=time.perf_counter() - start,
    )
