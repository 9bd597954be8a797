"""Analysis sessions: shared per-circuit state for classification runs.

Every paper pipeline runs *several* classification passes over the same
circuit — Heuristic 2 alone pays an FS pass, an NR pass and a final
SIGMA_PI pass, and a full Table-I row adds the Heu1 and inverted-sort
passes on top.  A :class:`CircuitSession` makes the state those passes
share a first-class, reusable artifact instead of per-call scratch:

* the exact path counts (:func:`~repro.paths.count.count_paths`) are
  computed once per circuit;
* the flat IR and its literal implication closures are built once per
  circuit (cached on the :class:`Circuit` itself via ``circuit.flat``)
  and shared by every pass;
* the static per-lead bitset condition tables are cached per
  ``(criterion, sort)`` — the inverted-Heu2 control pass, for example,
  shares nothing with the forward pass, but repeated passes with the
  same sort (re-runs, benches, coverage studies) hit the cache.

(A trail-based :class:`~repro.logic.implication.ImplicationEngine` is
still available lazily via :attr:`CircuitSession.engine` for callers
that want interactive what-if implications; the classification passes
themselves run entirely on the bitset kernel.)

Sessions are deliberately cheap to create (all caches are lazy), purely
per-process (they are *not* sent across the
:mod:`~repro.experiments.harness` process pool — each worker builds its
own), and observable: :attr:`CircuitSession.stats` counts cache hits and
builds so tests can assert "exactly one ``count_paths`` per circuit".

**Persistent store.**  Passing ``store=`` (a
:class:`~repro.store.db.ResultStore` or a path) extends the caches
*across* processes: path counts, completed classification passes and the
heuristic sorts are read through from — and written back to — a
content-addressed SQLite store keyed by the circuit's canonical
fingerprint, all through one read-through, :meth:`CircuitSession.cached`,
driven by the kind table :data:`repro.store.kinds.KINDS`.  Per-lead
payloads cross the store in canonical lead order, so a permuted
declaration of the same netlist still hits.  Passes that stream paths
(``on_path``) bypass the store (the paths themselves are not cached),
and a stored pass or sort is never served past the caller's
``max_accepted``, so the abort contract is identical cold and warm.
:attr:`SessionStats` gains ``store_hits``/``store_misses`` for
observability.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.circuit.netlist import Circuit
from repro.classify.conditions import Criterion
from repro.classify.engine import _run, _Tables
from repro.classify.results import ClassificationResult
from repro.errors import ClassifyError
from repro.logic.implication import ImplicationEngine
from repro.obs import get_registry, span
from repro.paths.count import PathCounts, count_paths
from repro.store.kinds import KINDS

if TYPE_CHECKING:  # annotation-only; avoids a classify <-> sorting cycle
    from repro.paths.path import LogicalPath
    from repro.sorting.heuristics import Heuristic2Analysis
    from repro.sorting.input_sort import InputSort
    from repro.store.db import ResultStore
    from repro.store.fingerprint import CanonicalForm


@dataclass
class SessionStats:
    """Cache observability for one :class:`CircuitSession`.

    Stats are a per-session *view* over the process-wide telemetry
    spine: every increment goes through :meth:`bump`, which also feeds
    the matching ``session.<field>`` counter of the
    :mod:`repro.obs` registry — so harness runs, the daemon and the CLI
    all aggregate session activity without a second accounting system.
    """

    count_paths_calls: int = 0
    engines_built: int = 0
    tables_built: int = 0
    tables_reused: int = 0
    classify_passes: int = 0
    budget_aborts: int = 0
    store_hits: int = 0
    store_misses: int = 0
    cone_hits: int = 0  #: cone-granularity store hits (ECO reuse)
    cone_misses: int = 0

    def bump(self, name: str, amount: int = 1) -> None:
        """Increment one counter field here *and* in the process
        metrics registry (the single write path for session stats)."""
        setattr(self, name, getattr(self, name) + amount)
        get_registry().counter(f"session.{name}").inc(amount)

    @property
    def tables_hit_rate(self) -> float:
        total = self.tables_built + self.tables_reused
        if not total:
            return 0.0
        return self.tables_reused / total

    def to_dict(self) -> dict:
        """JSON-safe counters (embedded in experiment rows)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SessionStats":
        known = {f for f in cls.__dataclass_fields__}  # tolerate extras
        return cls(**{k: v for k, v in data.items() if k in known})

    def summary(self) -> str:
        """One human-readable line for ``--verbose`` table runs."""
        parts = [
            f"passes={self.classify_passes}",
            f"count_paths={self.count_paths_calls}",
            f"tables={self.tables_built}+{self.tables_reused}r",
        ]
        if self.store_hits or self.store_misses:
            total = self.store_hits + self.store_misses
            parts.append(
                f"store={self.store_hits}/{total} hit"
                f" ({100.0 * self.store_hits / total:.0f}%)"
            )
        else:
            parts.append("store=off")
        if self.cone_hits or self.cone_misses:
            total = self.cone_hits + self.cone_misses
            parts.append(f"cones={self.cone_hits}/{total} hit")
        if self.budget_aborts:
            parts.append(f"aborts={self.budget_aborts}")
        return " ".join(parts)


def format_session_stats(data: "dict | None") -> str:
    """Render a :meth:`SessionStats.to_dict` payload (e.g. one embedded
    in a checkpointed experiment row) as the ``--verbose`` summary."""
    if not data:
        return "(no session stats)"
    return SessionStats.from_dict(data).summary()


@dataclass
class CircuitSession:
    """Lazily-cached analysis state for one frozen circuit.

    Usage::

        session = CircuitSession(circuit)
        fs = session.classify(Criterion.FS)
        analysis = session.heuristic2_analysis()
        final = session.classify(Criterion.SIGMA_PI, sort=analysis.sort)
        session.counts.total_logical   # computed once, shared by all

    All classification entry points (:func:`repro.classify.classify`,
    the sorting heuristics, the experiment harness) accept a session and
    route through these caches.
    """

    circuit: Circuit
    stats: SessionStats = field(default_factory=SessionStats)
    store: "ResultStore | str | Path | None" = None
    _counts: PathCounts | None = field(default=None, repr=False)
    _engine: ImplicationEngine | None = field(default=None, repr=False)
    _tables: dict = field(default_factory=dict, repr=False)
    _canon: "CanonicalForm | None" = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.circuit, Circuit):
            from repro.loading import as_core

            self.circuit = as_core(self.circuit)
        self.circuit._require_frozen()  # noqa: SLF001 - deliberate check
        from repro.store.db import as_store

        self.store = as_store(self.store)

    # -- persistent store plumbing -------------------------------------
    @property
    def canonical(self) -> "CanonicalForm":
        """The circuit's canonical form (computed once, store or not)."""
        if self._canon is None:
            from repro.store.fingerprint import canonical_form

            self._canon = canonical_form(self.circuit)
        return self._canon

    @property
    def fingerprint(self) -> str:
        """The circuit's content-addressed fingerprint."""
        return self.canonical.fingerprint

    def cached(self, kind: str, compute: Callable, **request) -> tuple:
        """``(value, source)``: the stored row of ``kind`` (see
        :data:`repro.store.kinds.KINDS`) for this circuit and ``request``
        if one can serve it (``"store"``), else ``compute()`` written
        back (``"computed"``); counted in :attr:`stats`.  An exception
        from ``compute`` (a budget abort) propagates, writing nothing."""
        if self.store is None:
            return compute(), "computed"
        key = (self.fingerprint, KINDS[kind].variant(self, **request))
        [value] = self.store.lookup(kind, [key], self, **request)
        if value is not None:
            self.stats.bump("store_hits")
            return value, "store"
        self.stats.bump("store_misses")
        value = compute()
        self.store.save(kind, [(key, value)], self, **request)
        return value, "computed"

    # -- cached artifacts ----------------------------------------------
    def _count_paths(self) -> PathCounts:
        self.stats.bump("count_paths_calls")
        with span("paths.count", circuit=self.circuit.name):
            return count_paths(self.circuit)

    @property
    def counts(self) -> PathCounts:
        """Exact path counts: loaded from the store if possible, else
        computed at most once per session (and written back)."""
        if self._counts is None:
            self._counts = self.cached("counts", self._count_paths)[0]
        return self._counts

    @property
    def engine(self) -> ImplicationEngine:
        """The shared implication engine (trail empty between passes)."""
        if self._engine is None:
            self.stats.bump("engines_built")
            get_registry().counter("engine.builds").inc()
            self._engine = ImplicationEngine(self.circuit)
        return self._engine

    def tables(
        self, criterion: Criterion, sort: "InputSort | None" = None
    ) -> _Tables:
        """Per-lead condition tables, cached by ``(criterion, π ranks)``."""
        key = (criterion, None if sort is None else sort.ranks)
        cached = self._tables.get(key)
        if cached is None:
            self.stats.bump("tables_built")
            cached = self._tables[key] = _Tables(self.circuit, criterion, sort)
        else:
            self.stats.bump("tables_reused")
        return cached

    # -- classification ------------------------------------------------
    def classify(
        self,
        criterion: Criterion,
        sort: "InputSort | None" = None,
        collect_lead_counts: bool = False,
        max_accepted: int | None = None,
        on_path: "Callable[[LogicalPath], None] | None" = None,
        cones: bool = False,
    ) -> ClassificationResult:
        """One classification pass through the session caches.

        Same contract as :func:`repro.classify.classify`; the tables,
        implication engine and path counts come from (and warm) this
        session.  A ``max_accepted`` overflow raises
        :class:`~repro.errors.ClassifyError` (counted in
        :attr:`SessionStats.budget_aborts`); the session stays usable —
        the engine trail is restored even on abort.

        With a persistent :attr:`store`, a completed pass for the same
        circuit structure, criterion and sort is served without running
        the enumeration at all.  ``on_path`` passes bypass the store
        (the paths themselves are not cached); an aborted pass is never
        written back.

        ``cones=True`` switches to cone granularity
        (:func:`repro.incremental.reanalyze.cone_classify`): each output
        cone is classified independently and read through from / written
        back to the store's schema-v2 cone table, so an edited netlist
        reuses every untouched cone's rows.  The aggregate
        accepted/total counts decompose exactly; ``max_accepted``
        becomes a per-cone budget, ``elapsed`` sums per-cone CPU time,
        and ``edges_visited`` counts the per-cone DFS work (cone runs
        share no cross-cone memo, so the figure is comparable only to
        other cone-granularity runs).  Streaming and per-lead collection
        stay whole-circuit concerns: ``on_path`` or
        ``collect_lead_counts`` with ``cones=True`` raise
        :class:`ValueError`.
        """
        if cones:
            if on_path is not None or collect_lead_counts:
                raise ValueError(
                    "cones=True classifies per extracted cone; per-lead "
                    "counts and on_path streaming are whole-circuit only"
                )
            from repro.incremental.reanalyze import cone_classify

            self.stats.bump("classify_passes")
            return cone_classify(
                self.circuit,
                criterion=criterion,
                sort=sort,
                max_accepted=max_accepted,
                store=self.store,
                session_stats=self.stats,
            ).result
        self.stats.bump("classify_passes")

        def run() -> ClassificationResult:
            tables = self.tables(criterion, sort)
            try:
                with span(
                    "classify.pass",
                    circuit=self.circuit.name,
                    criterion=criterion.name,
                ):
                    result = _run(
                        self.circuit,
                        criterion,
                        tables,
                        self.counts,
                        collect_lead_counts,
                        max_accepted,
                        on_path,
                    )
            except ClassifyError:
                self.stats.bump("budget_aborts")
                raise
            registry = get_registry()
            registry.counter("engine.edges_visited").inc(result.edges_visited)
            registry.counter("classify.accepted").inc(result.accepted)
            return result

        if on_path is not None:  # the streamed paths are not cached
            return run()
        return self.cached(
            "classify",
            run,
            criterion=criterion,
            sort=sort,
            lead_counts=collect_lead_counts,
            max_accepted=max_accepted,
        )[0]

    # -- sorting heuristics (convenience, session-cached) --------------
    def heuristic1_sort(self) -> "InputSort":
        """Heuristic 1 from the cached path counts (no extra counting)."""
        from repro.sorting.heuristics import heuristic1_sort

        return self.cached(
            "sort",
            lambda: heuristic1_sort(self.circuit, counts=self.counts),
            name="heu1",
        )[0]

    def heuristic2_analysis(
        self, max_accepted: int | None = None
    ) -> "Heuristic2Analysis":
        """Algorithm 3 with both superset passes through this session."""
        from repro.sorting.heuristics import heuristic2_analysis

        return heuristic2_analysis(
            self.circuit, max_accepted=max_accepted, session=self
        )

    def heuristic2_sort(self, max_accepted: int | None = None) -> "InputSort":
        """Heuristic 2, read through the store.  A stored sort carries no
        budget, so a budgeted call runs Algorithm 3, whose FS/NR passes
        enforce ``max_accepted`` exactly as a cold run would."""
        if max_accepted is not None:
            return self.heuristic2_analysis(max_accepted=max_accepted).sort
        return self.cached(
            "sort", lambda: self.heuristic2_analysis().sort, name="heu2"
        )[0]
