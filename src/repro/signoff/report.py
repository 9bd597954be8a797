"""Signoff rows and reports: the deterministic query result surface.

A :class:`SignoffRow` is one robustly-testable logical path with its
delay under the queried :class:`~repro.timing.delays.DelayAssignment`.
Rows are canonically ordered — slowest first, ties broken by the
lexicographic ``(gate name, pin)`` path spelling, then transition — so
the same query renders byte-identically whether it was computed whole,
fanned out per scan domain, served from the store, or answered by a
remote fleet.  Wall-clock and stage counters live outside
:meth:`SignoffReport.table_payload` for exactly that reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.store.kinds import SIGNOFF_SCHEMA
from repro.util.serialize import to_json
from repro.util.tables import TextTable


@dataclass(frozen=True)
class SignoffRow:
    """One robustly-testable logical path under an annotated delay map."""

    #: capture point: the PO (or pseudo-PO) gate name — the scan domain.
    capture: str
    #: launch point: the PI (or pseudo-PI) gate name.
    source: str
    #: transition at the launch point, ``"0->1"`` or ``"1->0"``.
    transition: str
    #: total path delay under the queried assignment.
    delay: float
    #: the physical path as ``(gate name, input pin)`` per lead.
    pins: tuple

    def sort_key(self) -> tuple:
        """Canonical report order: slowest first, then the path's
        lexicographic spelling, then transition.  A pure function of
        the (named) circuit + delays — independent of enumeration
        order, job count, or store state."""
        return (-self.delay, self.pins, self.transition)

    def describe(self) -> str:
        gates = [self.source] + [g for g, _pin in self.pins]
        return " -> ".join(gates) + f" [{self.transition}]"

    def table_row(self) -> dict:
        return {
            "capture": self.capture,
            "source": self.source,
            "transition": self.transition,
            "delay": self.delay,
            "path": [[g, p] for g, p in self.pins],
        }

    @classmethod
    def from_table_row(cls, row: dict) -> "SignoffRow":
        """Rebuild a row from its :meth:`table_row` payload (the wire
        form); raises on anything malformed."""
        pins = tuple((str(g), int(p)) for g, p in row["path"])
        transition = str(row["transition"])
        if transition not in ("0->1", "1->0"):
            raise ValueError(f"bad transition {transition!r}")
        return cls(
            capture=str(row["capture"]),
            source=str(row["source"]),
            transition=transition,
            delay=float(row["delay"]),
            pins=pins,
        )


@dataclass(frozen=True)
class SignoffReport:
    """One signoff query's answer across all launch/capture domains."""

    circuit: str
    mode: str  #: "k" | "slack"
    k: "int | None"
    slack: "float | None"
    exact: bool
    delays_digest: str
    domains: tuple  #: capture-point names queried, sorted
    rows: tuple  #: SignoffRow, canonical order
    #: aggregated stage counters (candidates, prefilter_rejects,
    #: oracle_refuted, robust_refuted, robust_confirmed) — diagnostics,
    #: excluded from the deterministic table.
    counters: dict = field(default_factory=dict)
    #: per-domain provenance ("computed" | "store") — diagnostics.
    sources: dict = field(default_factory=dict)
    wall_seconds: float = 0.0

    def table_payload(self) -> dict:
        """The deterministic answer: byte-identical at any ``--jobs``,
        worker count, or store temperature.  ``--exact`` is absent on
        purpose — the final verdict stage makes rows mode-independent,
        so escalation may only change the diagnostics."""
        return {
            "schema": SIGNOFF_SCHEMA,
            "circuit": self.circuit,
            "mode": self.mode,
            "k": self.k,
            "slack": self.slack,
            "delays_digest": self.delays_digest,
            "domains": list(self.domains),
            "paths": len(self.rows),
            "rows": [row.table_row() for row in self.rows],
        }

    def table_bytes(self) -> bytes:
        return to_json(self.table_payload()).encode()

    def to_dict(self) -> dict:
        payload = self.table_payload()
        payload["exact"] = self.exact
        payload["counters"] = dict(self.counters)
        payload["sources"] = dict(self.sources)
        payload["wall_seconds"] = self.wall_seconds
        return payload

    def render(self) -> str:
        what = (
            f"{self.k} longest" if self.mode == "k"
            else f"slack >= {self.slack:g}"
        )
        table = TextTable(
            ["#", "delay", "launch", "transition", "capture", "path"],
            title=(
                f"Robustly-testable paths — {what} "
                f"({self.circuit}, {len(self.domains)} domains)"
            ),
        )
        for rank, row in enumerate(self.rows, start=1):
            table.add_row(
                [
                    rank,
                    f"{row.delay:.3f}",
                    row.source,
                    row.transition,
                    row.capture,
                    " -> ".join(g for g, _pin in row.pins),
                ]
            )
        if not self.rows:
            table.add_row(["-", "-", "-", "-", "-", "(no robust paths)"])
        return table.render()


def merge_rows(
    row_lists, k: "int | None"
) -> tuple:
    """Merge per-domain row lists into the canonical report order and
    apply the K-truncation.

    Each domain contributes its own top-K *plus delay ties*; since the
    globally K-th delay is at least any single domain's K-th delay,
    the union is a superset of the global answer whose extras all rank
    past K — so sorting and truncating here is exactly equivalent to
    having run the query on the whole core.
    """
    rows = [row for rows in row_lists for row in rows]
    rows.sort(key=lambda row: row.sort_key())
    if k is not None:
        rows = rows[:k]
    return tuple(rows)


__all__ = [
    "SIGNOFF_SCHEMA",
    "SignoffReport",
    "SignoffRow",
    "merge_rows",
]
