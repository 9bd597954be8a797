"""The paper's input-sort heuristics (Section V).

* **Heuristic 1**: order each gate's inputs by ``|LP_c(l)| = |P(l)|``
  ascending — plain path counting, linear time.
* **Heuristic 2** (Algorithm 3): order by ``|FS_c^sup(l) \\ T_c^sup(l)|``
  ascending, where the two superset sizes come from one FS and one NR
  classification pass with per-lead accumulation.  Non-robustly-testable
  paths are in ``LP(σ^π)`` for *every* π (Lemma 1), so only the
  FS-but-not-NR paths are worth steering away from.

Both heuristics return an :class:`~repro.sorting.input_sort.InputSort`;
``.inverted()`` gives the paper's control experiment (column "Heu2-bar"
of Table I).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.circuit.netlist import Circuit
from repro.classify.conditions import Criterion
from repro.classify.results import ClassificationResult
from repro.classify.session import CircuitSession
from repro.paths.count import PathCounts, count_paths
from repro.sorting.input_sort import InputSort


def pin_order_sort(circuit: Circuit) -> InputSort:
    """The trivial sort following netlist pin order."""
    return InputSort.pin_order(circuit)


def random_sort(circuit: Circuit, seed: int = 0) -> InputSort:
    """A uniformly random input sort (ablation baseline)."""
    rng = random.Random(seed)
    noise = [rng.random() for _ in range(circuit.num_leads)]
    return InputSort.from_key(circuit, lambda lead: noise[lead])


def heuristic1_sort(
    circuit: Circuit, counts: "PathCounts | None" = None
) -> InputSort:
    """Heuristic 1: rank gate inputs by path count through the lead.

    Pass precomputed ``counts`` (e.g. from a
    :class:`~repro.classify.session.CircuitSession`) to skip the DP.
    """
    if counts is None:
        counts = count_paths(circuit)
    return InputSort.from_key(circuit, lambda lead: counts.through_lead[lead])


@dataclass
class Heuristic2Analysis:
    """Heuristic 2's sort plus the two classification passes that
    computed its cost measure (their runtimes dominate Algorithm 3)."""

    sort: InputSort
    fs_result: ClassificationResult
    nr_result: ClassificationResult

    @property
    def measure(self) -> list[int]:
        """``|FS_c^sup(l)| - |T_c^sup(l)|`` per lead (= the size of the
        set difference, since every NR-accepted path is FS-accepted)."""
        return [
            fs - t
            for fs, t in zip(
                self.fs_result.lead_ctrl_counts, self.nr_result.lead_ctrl_counts
            )
        ]


def heuristic2_analysis(
    circuit: Circuit,
    max_accepted: int | None = None,
    session: "CircuitSession | None" = None,
) -> Heuristic2Analysis:
    """Algorithm 3: the two superset passes plus the induced sort.

    Both passes run through ``session`` (a fresh one when not given), so
    the implication engine and path counts are shared with — and warm
    the caches of — any surrounding pipeline.
    """
    if session is None:
        session = CircuitSession(circuit)
    elif session.circuit is not circuit:
        raise ValueError("session was created for a different circuit")
    fs_result = session.classify(
        Criterion.FS, collect_lead_counts=True, max_accepted=max_accepted
    )
    nr_result = session.classify(
        Criterion.NR, collect_lead_counts=True, max_accepted=max_accepted
    )
    measure = [
        fs - t
        for fs, t in zip(fs_result.lead_ctrl_counts, nr_result.lead_ctrl_counts)
    ]
    sort = InputSort.from_key(circuit, lambda lead: measure[lead])
    return Heuristic2Analysis(sort=sort, fs_result=fs_result, nr_result=nr_result)


def heuristic2_sort(
    circuit: Circuit,
    max_accepted: int | None = None,
    session: "CircuitSession | None" = None,
) -> InputSort:
    """Heuristic 2: rank gate inputs by ``|FS_c^sup \\ T_c^sup|``."""
    return heuristic2_analysis(
        circuit, max_accepted=max_accepted, session=session
    ).sort
