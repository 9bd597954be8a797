"""Cone-granularity classification and the ECO re-analysis flow.

:func:`cone_classify` is the cone-level twin of a whole-circuit
classification pass: every output cone is extracted and classified
independently (the paper's single-output theory applies cone by cone —
every PI→PO path lies in exactly one cone, so accepted/total counts sum
exactly), and each cone's result is read through from — and written
back to — the schema-v2 cone table of a persistent
:class:`~repro.store.db.ResultStore`, keyed by
``(cone fingerprint, criterion, sort, max_accepted)`` (kind ``"cone"``
of :data:`repro.store.kinds.KINDS`, with the never-wrong contract of
every kind).  Workers return results; the caller writes them back
through its own store handle, and an aborted pass is never written —
a budget abort raises :class:`~repro.errors.ClassifyError` exactly as a
cold run would.

:func:`reanalyze` composes this with the structural diff into the ECO
flow behind ``repro-rd reanalyze BASE EDITED --store ...``: after the
base design's cones are warmed once, re-analyzing an edited netlist
computes only the DIRTY cones and serves every CLEAN cone from the
store.  Determinism is cone-granular on *both* sides:
:meth:`ConeClassifyReport.table_bytes` — per-cone and aggregate
accepted/total/edges, no timing — is byte-identical between a cold
(storeless) run and a warm ECO run, which the golden tests and the CI
smoke step pin.

Dirty cones fan out across the supervised
:class:`~repro.experiments.supervisor.TaskRunner` pool with ``jobs=N``;
workers ship their telemetry deltas home, so ``jobs=1`` and ``jobs=4``
produce identical counter totals.  Reuse is observable as the
``incremental.cones_clean`` / ``incremental.cones_dirty`` /
``incremental.cone_store_hits`` counters and as each report's
``reuse_ratio``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

from repro.circuit.netlist import Circuit
from repro.classify.conditions import Criterion
from repro.classify.results import ClassificationResult
from repro.errors import ClassifyError, HarnessError
from repro.incremental.conefp import Cone, cone_index
from repro.incremental.diff import CircuitDiff, diff_circuits
from repro.obs import get_registry
from repro.store.db import ResultStore, as_store
from repro.store.kinds import KINDS
from repro.util.serialize import to_json

if TYPE_CHECKING:
    from repro.classify.session import SessionStats
    from repro.experiments.supervisor import TaskRunner
    from repro.sorting.input_sort import InputSort

__all__ = [
    "ConeClassifyReport",
    "ConeRow",
    "ReanalyzeReport",
    "cone_classify",
    "reanalyze",
]

#: symbolic per-cone sort specs: natural pin order, or a heuristic sort
#: derived *on each cone* (deterministic given the cone's structure, so
#: safe to key store rows by name)
_SYMBOLIC_SORTS = (None, "pin", "heu1", "heu2")


@dataclass(frozen=True)
class ConeRow:
    """One output cone's classification outcome."""

    output: str
    fingerprint: str
    total_logical: int
    accepted: int
    edges_visited: int
    elapsed: float
    source: str  #: "store" | "computed"

    @property
    def rd_count(self) -> int:
        return self.total_logical - self.accepted

    @property
    def rd_percent(self) -> float:
        if self.total_logical == 0:
            return 0.0
        return 100.0 * self.rd_count / self.total_logical

    def table_row(self) -> dict:
        """The deterministic fields only — what the golden byte-identical
        contract covers (timing and provenance excluded)."""
        return {
            "output": self.output,
            "fingerprint": self.fingerprint,
            "total_logical": self.total_logical,
            "accepted": self.accepted,
            "rd_count": self.rd_count,
            "edges_visited": self.edges_visited,
        }

    def to_dict(self) -> dict:
        row = self.table_row()
        row["elapsed"] = self.elapsed
        row["source"] = self.source
        return row


@dataclass(frozen=True)
class ConeClassifyReport:
    """A cone-granularity classification of one circuit."""

    circuit_name: str
    criterion: Criterion
    sort_label: str
    rows: "tuple[ConeRow, ...]"
    wall_seconds: float
    conefp_seconds: float

    @property
    def cones_total(self) -> int:
        return len(self.rows)

    @property
    def cones_reused(self) -> int:
        return sum(1 for row in self.rows if row.source == "store")

    @property
    def cones_computed(self) -> int:
        return self.cones_total - self.cones_reused

    @property
    def reuse_ratio(self) -> float:
        if not self.rows:
            return 0.0
        return self.cones_reused / self.cones_total

    @property
    def result(self) -> ClassificationResult:
        """The aggregate, decomposition-exact whole-circuit result
        (``elapsed`` sums per-cone CPU time, the paper's accounting)."""
        return ClassificationResult(
            circuit_name=self.circuit_name,
            criterion=self.criterion,
            total_logical=sum(row.total_logical for row in self.rows),
            accepted=sum(row.accepted for row in self.rows),
            elapsed=sum(row.elapsed for row in self.rows),
            edges_visited=sum(row.edges_visited for row in self.rows),
        )

    def reuse_stats(self) -> dict:
        """The wire form carried by service responses (``cone_stats``)."""
        return {
            "cones": self.cones_total,
            "reused": self.cones_reused,
            "computed": self.cones_computed,
            "reuse_ratio": self.reuse_ratio,
        }

    def table_payload(self) -> dict:
        """The deterministic table: byte-identical (via
        :meth:`table_bytes`) between cold and warm runs of the same
        circuit, criterion, sort and budget."""
        aggregate = self.result
        return {
            "circuit": self.circuit_name,
            "criterion": self.criterion.name,
            "sort": self.sort_label,
            "total_logical": aggregate.total_logical,
            "accepted": aggregate.accepted,
            "rd_count": aggregate.rd_count,
            "edges_visited": aggregate.edges_visited,
            "cones": [
                row.table_row()
                for row in sorted(self.rows, key=lambda r: r.output)
            ],
        }

    def table_bytes(self) -> bytes:
        return to_json(self.table_payload()).encode()

    def to_dict(self) -> dict:
        payload = self.table_payload()
        payload["cones"] = [
            row.to_dict() for row in sorted(self.rows, key=lambda r: r.output)
        ]
        payload["cones_total"] = self.cones_total
        payload["cones_reused"] = self.cones_reused
        payload["cones_computed"] = self.cones_computed
        payload["reuse_ratio"] = self.reuse_ratio
        payload["elapsed"] = self.result.elapsed
        payload["wall_seconds"] = self.wall_seconds
        payload["conefp_seconds"] = self.conefp_seconds
        return payload


def _cone_sort_plans(
    circuit: Circuit,
    cones: "tuple[Cone, ...]",
    sort: "Union[InputSort, str, None]",
) -> "dict[int, tuple[str, Optional[list]]]":
    """Per-cone ``(sort key, restricted ranks)``.

    Symbolic specs key by name (the derived sort is a function of the
    cone's structure); an explicit global :class:`InputSort` is
    restricted to each cone's leads and keyed by the restriction's
    canonical rank hash, so permuted declarations of the same netlist
    still share rows.
    """
    if sort in _SYMBOLIC_SORTS:
        label = "none" if sort in (None, "pin") else sort
        return {cone.po: (label, None) for cone in cones}
    from repro.store.fingerprint import canonical_form

    plans: "dict[int, tuple[str, Optional[list]]]" = {}
    for cone in cones:
        cone_circuit, mapping = circuit.extract_cone(cone.po)
        inverse = {new: old for old, new in mapping.items()}
        ranks = [0] * cone_circuit.num_leads
        for lead in cone_circuit.leads():
            ranks[lead.index] = sort.ranks[
                circuit.lead_index(inverse[lead.dst], lead.pin)
            ]
        key = canonical_form(cone_circuit).sort_key(ranks)
        plans[cone.po] = (f"x{key}", ranks)
    return plans


def _dirty_cone_task(payload: tuple) -> tuple:
    """Classify one dirty cone (module-level: pool tasks must pickle).

    Returns ``("ok", (total, accepted, edges, elapsed))`` or
    ``("budget_abort", message)`` — budget aborts are *results* here so
    the parent can re-raise :class:`ClassifyError` deterministically
    instead of treating them as worker crashes.  The parent writes
    completed results back through its own store handle.
    """
    from repro.classify.session import CircuitSession

    circuit, po, criterion, sort_spec, ranks, max_accepted = payload
    cone_circuit, _mapping = circuit.extract_cone(po)
    session = CircuitSession(cone_circuit)
    sort = None
    if ranks is not None:
        from repro.sorting.input_sort import InputSort

        sort = InputSort(cone_circuit, ranks)
    elif sort_spec == "heu1":
        sort = session.heuristic1_sort()
    elif sort_spec == "heu2":
        sort = session.heuristic2_sort(max_accepted=max_accepted)
    try:
        result = session.classify(criterion, sort=sort, max_accepted=max_accepted)
    except ClassifyError as exc:
        return ("budget_abort", str(exc))
    return ("ok", (result.total_logical, result.accepted,
                   result.edges_visited, result.elapsed))


def cone_classify(
    circuit: Circuit,
    criterion: Criterion = Criterion.SIGMA_PI,
    sort: "Union[InputSort, str, None]" = None,
    max_accepted: "Optional[int]" = None,
    store: "ResultStore | str | None" = None,
    jobs: int = 1,
    runner: "Optional[TaskRunner]" = None,
    session_stats: "Optional[SessionStats]" = None,
) -> ConeClassifyReport:
    """Classify every output cone, reusing stored cone rows.

    ``sort`` is ``None``/``"pin"`` (natural pin order), ``"heu1"`` /
    ``"heu2"`` (the heuristic derived per cone), or an explicit global
    :class:`~repro.sorting.input_sort.InputSort` restricted per cone.
    ``max_accepted`` is a *per-cone* acceptance budget and part of the
    store key.  Without a ``store`` every cone is computed (a cold run —
    the byte-identical baseline of the warm path).  Dirty cones fan out
    over ``jobs`` supervised workers; a cone that fails after retries
    raises :class:`HarnessError` (a combined result needs every cone),
    and a budget abort raises :class:`ClassifyError` just as a
    whole-circuit pass would.
    """
    from repro.experiments.supervisor import RowFailure, TaskRunner

    started = time.perf_counter()
    store = as_store(store)
    registry = get_registry()
    index = cone_index(circuit)
    plans = _cone_sort_plans(circuit, index.cones, sort)
    keys = [
        (
            cone.fingerprint,
            KINDS["cone"].variant(
                None,
                criterion=criterion,
                sort_label=plans[cone.po][0],
                max_accepted=max_accepted,
            ),
        )
        for cone in index.cones
    ]
    loaded = [None] * len(keys)
    if store is not None:
        loaded = store.lookup("cone", keys, max_accepted=max_accepted)
    rows: "dict[int, ConeRow]" = {}
    dirty: "list[tuple[Cone, tuple]]" = []
    for cone, key, value in zip(index.cones, keys, loaded):
        if value is not None:
            registry.counter("incremental.cones_clean").inc()
            registry.counter("incremental.cone_store_hits").inc()
            if session_stats is not None:
                session_stats.bump("cone_hits")
            rows[cone.po] = ConeRow(cone.output, cone.fingerprint, *value, "store")
        else:
            registry.counter("incremental.cones_dirty").inc()
            if store is not None and session_stats is not None:
                session_stats.bump("cone_misses")
            dirty.append((cone, key))
    if dirty:
        sort_spec = sort if sort in _SYMBOLIC_SORTS else None
        work = [
            (circuit, cone.po, criterion, sort_spec, plans[cone.po][1], max_accepted)
            for cone, _key in dirty
        ]
        task_runner = runner if runner is not None else TaskRunner(jobs=jobs)
        parts = task_runner.map(
            _dirty_cone_task,
            work,
            labels=[f"{circuit.name}/cone[{cone.output}]" for cone, _ in dirty],
        )
        computed = []
        aborts = []
        failures = []
        for (cone, key), part in zip(dirty, parts):
            if isinstance(part, RowFailure):
                failures.append(part)
            elif part[0] == "budget_abort":
                aborts.append(part[1])
            else:
                rows[cone.po] = ConeRow(
                    cone.output, cone.fingerprint, *part[1], "computed"
                )
                computed.append((key, part[1]))
        # completed cones are written back even when another cone
        # aborted; an aborted cone never is
        if store is not None:
            store.save("cone", computed)
        if aborts:
            raise ClassifyError(aborts[0])
        if failures:
            raise HarnessError(
                "cone classification failed: "
                + "; ".join(str(failure) for failure in failures)
            )
    sort_label = (
        "none" if sort in (None, "pin") else sort if sort in _SYMBOLIC_SORTS else "explicit"
    )
    return ConeClassifyReport(
        circuit_name=circuit.name,
        criterion=criterion,
        sort_label=sort_label,
        rows=tuple(rows[cone.po] for cone in index.cones),
        wall_seconds=time.perf_counter() - started,
        conefp_seconds=index.build_seconds,
    )


@dataclass(frozen=True)
class ReanalyzeReport:
    """The full outcome of one ECO re-analysis."""

    diff: CircuitDiff
    base: ConeClassifyReport
    edited: ConeClassifyReport

    @property
    def result(self) -> ClassificationResult:
        return self.edited.result

    @property
    def reuse_ratio(self) -> float:
        return self.edited.reuse_ratio

    def to_dict(self) -> dict:
        return {
            "diff": self.diff.to_dict(),
            "base": self.base.to_dict(),
            "edited": self.edited.to_dict(),
            "reuse_ratio": self.reuse_ratio,
        }

    def render(self) -> str:
        aggregate = self.edited.result
        lines = [
            self.diff.render().splitlines()[0],
            (
                f"reanalyze {self.edited.circuit_name}: "
                f"{self.edited.cones_reused}/{self.edited.cones_total} cones "
                f"reused ({100.0 * self.reuse_ratio:.0f}%), "
                f"{self.edited.cones_computed} recomputed in "
                f"{self.edited.wall_seconds:.3f}s"
            ),
            (
                f"{aggregate.criterion.name}: accepted "
                f"{aggregate.accepted}/{aggregate.total_logical} "
                f"(RD {aggregate.rd_percent:.2f}%)"
            ),
        ]
        return "\n".join(lines)


def reanalyze(
    base: Circuit,
    edited: Circuit,
    store: "ResultStore | str",
    criterion: Criterion = Criterion.SIGMA_PI,
    sort: "Union[InputSort, str, None]" = None,
    max_accepted: "Optional[int]" = None,
    jobs: int = 1,
    runner: "Optional[TaskRunner]" = None,
) -> ReanalyzeReport:
    """The ECO flow: diff, warm the base design's cones, then classify
    the edited design reusing every CLEAN cone from the store.

    The returned report's ``edited.table_bytes()`` is byte-identical to
    a from-scratch (storeless) :func:`cone_classify` of the edited
    circuit; only DIRTY cones (plus outputs new to the edited design)
    are actually recomputed.  The base warm-up is a no-op when the store
    already holds the base design's rows — the steady-state ECO cost is
    the edited pass alone.
    """
    store = as_store(store)
    if store is None:
        raise ValueError("reanalyze requires a persistent store")
    diff = diff_circuits(base, edited)
    base_report = cone_classify(
        base,
        criterion=criterion,
        sort=sort,
        max_accepted=max_accepted,
        store=store,
        jobs=jobs,
        runner=runner,
    )
    edited_report = cone_classify(
        edited,
        criterion=criterion,
        sort=sort,
        max_accepted=max_accepted,
        store=store,
        jobs=jobs,
        runner=runner,
    )
    return ReanalyzeReport(diff=diff, base=base_report, edited=edited_report)
