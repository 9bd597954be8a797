"""Timing-signoff queries: K-longest / above-slack robustly-testable paths.

The layered filter (fast to exact):

1. **enumerate** — :func:`repro.timing.kpaths.iter_paths_by_delay`
   streams logical paths slowest-first under the annotated
   :class:`DelayAssignment`; only the slow prefix is ever materialized.
2. **prefilter** — Lemma-2 local-implication check against the session's
   cached ``SIGMA_PI`` tables (pin-order π).  Sound for robustness
   regardless of π: ``T(C) ⊆ LP(σ^π)`` holds for *every* sort, so a
   rejection here proves the path is not robustly testable.
3. **escalate** (``exact=True`` only) — the incremental CDCL oracle
   refutes survivors that are outside true ``LP(σ^π)``.
4. **verdict** — a two-frame robust-test SAT query
   (:func:`repro.delaytest.robust_test`) confirms every reported path.
   Because this final stage runs in *all* modes, the row set is
   mode-independent: ``exact`` can only shift work between stages.

Store contract: kind ``"signoff"`` of :data:`repro.store.kinds.KINDS`,
under the queried (domain) circuit's ``rdfp1:`` fingerprint.  Cached
rows are canonical lead positions — name-free, so isomorphic renames
stay safe — and every loaded row is structurally revalidated and its
delay recomputed before being served.
"""

from __future__ import annotations

import time

from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit
from repro.classify.conditions import Criterion
from repro.classify.engine import check_logical_path_tables
from repro.classify.session import CircuitSession
from repro.delaytest.testability import robust_test
from repro.errors import SignoffError
from repro.experiments.supervisor import RowFailure, TaskRunner
from repro.obs import get_registry, span
from repro.paths.path import LogicalPath
from repro.sorting.input_sort import InputSort
from repro.timing.annotate import delays_digest, materialize_delays
from repro.timing.delays import DelayAssignment
from repro.timing.kpaths import iter_paths_by_delay
from repro.verdict.oracle import DEFAULT_MAX_CONFLICTS, VerdictOracle

from repro.signoff.report import (
    SignoffReport,
    SignoffRow,
    merge_rows,
)

#: Default K for ``signoff()`` when neither ``k`` nor ``slack`` is given.
DEFAULT_K = 10

#: Guard on enumerated candidates per domain (prefilter + verdict work).
DEFAULT_MAX_CANDIDATES = 250_000

#: Frontier-state budget handed to the path enumerator.
DEFAULT_MAX_STATES = 10_000_000

_STAGE_COUNTERS = (
    "candidates",
    "prefilter_rejects",
    "oracle_refuted",
    "robust_refuted",
    "robust_confirmed",
)


def _zero_counters() -> dict:
    return {name: 0 for name in _STAGE_COUNTERS}


def row_from_path(
    circuit: Circuit, delay: float, lp: LogicalPath
) -> SignoffRow:
    """Spell one enumerated logical path as a :class:`SignoffRow`."""
    return SignoffRow(
        capture=circuit.gate_name(lp.path.sink(circuit)),
        source=circuit.gate_name(lp.path.source(circuit)),
        transition=lp.transition,
        delay=delay,
        pins=tuple(
            (circuit.gate_name(circuit.lead_dst(lead)),
             circuit.lead_pin(lead))
            for lead in lp.path.leads
        ),
    )


# -- the per-domain query ----------------------------------------------
def signoff_core(
    circuit,
    delays: "DelayAssignment | None" = None,
    *,
    k: "int | None" = None,
    slack: "float | None" = None,
    exact: bool = False,
    session: "CircuitSession | None" = None,
    store=None,
    seed: int = 0,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    max_states: int = DEFAULT_MAX_STATES,
    max_conflicts: int = DEFAULT_MAX_CONFLICTS,
) -> "tuple[list, dict, str]":
    """Answer one signoff query on a single (domain) circuit.

    Returns ``(rows, counters, source)``: canonical-ordered
    :class:`SignoffRow` lists (truncated to ``k`` in k-mode), the stage
    counters, and ``"computed"`` or ``"store"``.  The store caches the
    *accepted set up to the tie boundary* (order-free), so K-truncation
    and row ordering are always re-derived by the loading circuit.
    """
    k, slack = _resolve_query(k, slack)
    if not isinstance(circuit, Circuit):
        from repro.loading import as_core

        circuit = as_core(circuit)
    if delays is None:
        delays = materialize_delays(circuit, None, seed=seed)
    if delays.circuit is not circuit:
        raise ValueError("delay assignment belongs to a different circuit")
    if session is None:
        session = CircuitSession(circuit, store=store)
    counters = _zero_counters()
    accepted, source = session.cached(
        "signoff",
        lambda: _accepted_paths(circuit, delays, k, slack, exact, session,
                                counters, max_candidates, max_states,
                                max_conflicts),
        delays=delays,
        k=k,
        slack=slack,
    )
    registry = get_registry()
    if source == "store":
        registry.counter("signoff.row_store_hits").inc()
    for name in _STAGE_COUNTERS:
        registry.counter(f"signoff.{name}").inc(counters[name])
    return _finish(circuit, accepted, k), counters, source


def _accepted_paths(circuit, delays, k, slack, exact, session, counters,
                    max_candidates, max_states, max_conflicts) -> list:
    """The layered filter: ``[(delay, LogicalPath)]`` robustly testable
    paths, slowest first up to the K tie boundary or the slack, with
    each stage's work tallied in ``counters``."""
    with span("signoff.domain", circuit=circuit.name):
        sort = InputSort.pin_order(circuit)
        tables = session.tables(Criterion.SIGMA_PI, sort)
        oracle = (
            VerdictOracle(circuit, max_conflicts=max_conflicts)
            if exact
            else None
        )
        accepted: list = []
        boundary: "float | None" = None
        for delay, lp in iter_paths_by_delay(
            circuit, delays, max_states=max_states
        ):
            if slack is not None and delay < slack:
                break
            if boundary is not None and delay < boundary:
                break
            counters["candidates"] += 1
            if counters["candidates"] > max_candidates:
                raise SignoffError(
                    f"{circuit.name}: more than {max_candidates} candidate "
                    f"paths enumerated; raise the slack threshold or the "
                    f"candidate budget"
                )
            if not check_logical_path_tables(circuit, tables, lp):
                counters["prefilter_rejects"] += 1
                continue
            if oracle is not None and not oracle.decide(
                lp, Criterion.SIGMA_PI, sort
            ).in_set:
                counters["oracle_refuted"] += 1
                continue
            if robust_test(circuit, lp) is None:
                counters["robust_refuted"] += 1
                continue
            counters["robust_confirmed"] += 1
            accepted.append((delay, lp))
            if k is not None and boundary is None and len(accepted) == k:
                boundary = delay  # keep consuming delay ties
    return accepted


def _resolve_query(
    k: "int | None", slack: "float | None"
) -> "tuple[int | None, float | None]":
    if k is not None and slack is not None:
        raise ValueError("pass either k or slack, not both")
    if k is None and slack is None:
        k = DEFAULT_K
    if k is not None and k < 1:
        raise ValueError("k must be >= 1")
    return k, slack


def _finish(circuit: Circuit, accepted, k: "int | None") -> list:
    rows = [row_from_path(circuit, delay, lp) for delay, lp in accepted]
    rows.sort(key=lambda row: row.sort_key())
    if k is not None:
        rows = rows[:k]
    return rows


# -- scan-domain decomposition -----------------------------------------
def domain_circuits(core: Circuit) -> list:
    """``(capture name, cone, delays mapper)`` per output of ``core``.

    Each capture point's cone is an independent single-output circuit
    (gate names preserved), the unit the store fingerprints, the fleet
    hashes, and the workers compute.  The mapper transfers a core
    :class:`DelayAssignment` onto the cone gate-for-gate, so shared
    logic sees identical delays in every domain.
    """
    out = []
    for po in core.outputs:
        cone, mapping = core.extract_cone(po)

        def map_delays(
            delays: DelayAssignment, cone=cone, mapping=mapping
        ) -> DelayAssignment:
            rise = [0.0] * cone.num_gates
            fall = [0.0] * cone.num_gates
            for old, new in mapping.items():
                rise[new] = delays.rise[old]
                fall[new] = delays.fall[old]
            return DelayAssignment(
                circuit=cone, rise=tuple(rise), fall=tuple(fall)
            )

        out.append((core.gate_name(po), cone, map_delays))
    return out


def _domain_task(payload) -> "tuple[list, dict, str]":
    """Picklable per-domain worker: one cone, one query."""
    (cone, rise, fall, k, slack, exact, store,
     max_candidates, max_states, max_conflicts) = payload
    delays = DelayAssignment(circuit=cone, rise=rise, fall=fall)
    return signoff_core(
        cone,
        delays,
        k=k,
        slack=slack,
        exact=exact,
        store=store,
        max_candidates=max_candidates,
        max_states=max_states,
        max_conflicts=max_conflicts,
    )


# -- the public query --------------------------------------------------
def signoff(
    source,
    *,
    k: "int | None" = None,
    slack: "float | None" = None,
    exact: bool = False,
    scan: "bool | None" = None,
    delays: "DelayAssignment | None" = None,
    annotations: "dict | None" = None,
    seed: int = 0,
    base: str = "random",
    store=None,
    jobs: int = 1,
    runner: "TaskRunner | None" = None,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    max_states: int = DEFAULT_MAX_STATES,
    max_conflicts: int = DEFAULT_MAX_CONFLICTS,
) -> SignoffReport:
    """K-longest / above-slack robustly-testable paths of ``source``.

    ``source`` is anything :func:`repro.loading.load` resolves; a
    ``.bench`` path additionally contributes its embedded ``# delay:``
    annotations and a ``<stem>.delays`` sidecar (sidecar wins).  Each
    capture domain runs as an independent, store-cached job — fanned
    across ``jobs`` processes — and the merged table is byte-identical
    at any job count, matching a whole-core run of :func:`signoff_core`.
    """
    from pathlib import Path

    from repro.loading import load
    from repro.timing.annotate import (
        parse_delay_annotations,
        parse_delays_file,
        sidecar_path,
    )

    start = time.perf_counter()
    k, slack = _resolve_query(k, slack)
    file_annotations: dict = {}
    if isinstance(source, (str, Path)):
        path = Path(source)
        if path.suffix == ".bench" and path.exists():
            file_annotations.update(
                parse_delay_annotations(path.read_text(), source=str(path))
            )
            sidecar = sidecar_path(path)
            if sidecar.exists():
                file_annotations.update(parse_delays_file(sidecar))
    loaded = load(source, scan=scan)
    core = loaded.as_core()
    if delays is None:
        merged = dict(file_annotations)
        merged.update(annotations or {})
        delays = materialize_delays(core, merged, seed=seed, base=base)
    elif delays.circuit is not core:
        raise ValueError("delay assignment belongs to a different circuit")
    digest = delays_digest(delays)

    domains = domain_circuits(core)
    payloads = []
    for _capture, cone, map_delays in domains:
        cone_delays = map_delays(delays)
        payloads.append(
            (cone, cone_delays.rise, cone_delays.fall, k, slack, exact,
             store, max_candidates, max_states, max_conflicts)
        )
    labels = [f"{core.name}:signoff[{capture}]" for capture, _c, _m in domains]
    if runner is None:
        runner = TaskRunner(jobs=jobs)
    registry = get_registry()
    registry.counter("signoff.requests").inc()
    registry.counter("signoff.domains").inc(len(domains))
    with span("signoff.query", circuit=core.name, mode="k" if k else "slack"):
        outcomes = runner.map(_domain_task, payloads, labels=labels)
    counters = _zero_counters()
    sources: dict = {}
    row_lists = []
    for (capture, _cone, _map), outcome in zip(domains, outcomes):
        if isinstance(outcome, RowFailure):
            raise SignoffError(
                f"signoff domain {outcome.label} failed "
                f"({outcome.kind}): {outcome.message}"
            )
        rows, domain_counters, domain_source = outcome
        row_lists.append(rows)
        sources[capture] = domain_source
        for name in _STAGE_COUNTERS:
            counters[name] += domain_counters[name]
    return SignoffReport(
        circuit=core.name,
        mode="k" if k is not None else "slack",
        k=k,
        slack=slack,
        exact=exact,
        delays_digest=digest,
        domains=tuple(sorted(capture for capture, _c, _m in domains)),
        rows=merge_rows(row_lists, k),
        counters=counters,
        sources=sources,
        wall_seconds=time.perf_counter() - start,
    )


__all__ = [
    "DEFAULT_K",
    "DEFAULT_MAX_CANDIDATES",
    "DEFAULT_MAX_STATES",
    "domain_circuits",
    "row_from_path",
    "signoff",
    "signoff_core",
]
