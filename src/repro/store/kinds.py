"""The store-kind table: one :class:`StoreKind` per kind of stored result.

Every kind is read through :meth:`repro.store.db.ResultStore.lookup`
(used by :meth:`repro.classify.session.CircuitSession.cached`): a row
failing its kind's validation is deleted, counted in
``store.corrupt_entries`` and missed; a valid row that cannot serve the
request (over budget, or without the per-lead counts asked for) stays.
Hooks take the keyed circuit's session (``None`` for cone rows) and the
request's keyword arguments, ignoring those they do not use; ``decode``
raises on an invalid payload and returns ``None`` for a valid one that
cannot serve the request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

__all__ = ["KINDS", "SIGNOFF_SCHEMA", "TIGHTNESS_SCHEMA", "StoreKind"]

#: Payload schema stamp of ``tightness`` rows (bumped on layout changes).
TIGHTNESS_SCHEMA = 1

#: Payload schema stamp of ``signoff`` rows, also the first field of
#: their variant and the ``schema`` of a signoff report.
SIGNOFF_SCHEMA = 1


@dataclass(frozen=True)
class StoreKind:
    """One kind of stored result (see the module docstring)."""

    name: str
    variant: Callable[..., str]  #: ``(session, **request) -> str``
    encode: Callable[..., dict]  #: ``(session, value, **request) -> payload``
    decode: Callable[..., Any]  #: ``(session, payload, **request) -> value``
    table: str = "entries"
    fields: "tuple[str, ...]" = ()  #: required non-negative ints
    budget: Optional[str] = None  #: the field ``max_accepted`` bounds
    schema: Optional[int] = None  #: required ``payload["schema"]``

    def load(self, session, payload: dict, request: dict):
        """The served value, ``None`` if this valid row cannot serve
        ``request``; raises if the row is invalid."""
        if self.schema is not None and payload.get("schema") != self.schema:
            raise ValueError(f"{self.name}: schema {payload.get('schema')!r}")
        for name in self.fields:
            if not isinstance(payload[name], int) or payload[name] < 0:
                raise ValueError(f"{self.name}: {name}={payload[name]!r}")
        value = self.decode(session, payload, **request)
        limit = request.get("max_accepted")
        if self.budget and limit is not None and payload[self.budget] > limit:
            return None  # this caller's budget would have aborted the run
        return value


def _ints(values, length: int) -> list:
    if not isinstance(values, list) or len(values) != length or not all(
        isinstance(v, int) for v in values
    ):
        raise ValueError("malformed per-gate/per-lead array")
    return values


def _pass_variant(session, *, criterion, sort=None, **_) -> str:
    key = "none" if sort is None else session.canonical.sort_key(sort.ranks)
    return f"{criterion.name}|{key}"


_PASS_INTS = ("total_logical", "accepted", "edges_visited")
_PASS_FIELDS = _PASS_INTS + ("elapsed",)
_TIGHTNESS_FIELDS = ("total_logical", "approx_accepted", "exact_accepted", "replays")


def _decode_counts(session, payload, **_):
    from repro.paths.count import PathCounts

    circuit, canon = session.circuit, session.canonical
    up = canon.unpack_gates(_ints(payload["up"], circuit.num_gates))
    down = canon.unpack_gates(_ints(payload["down"], circuit.num_gates))
    # |P(l)| = up[src] * down[dst] — cheaper to rebuild than to store
    through = tuple(
        up[circuit.lead_src(lead)] * down[circuit.lead_dst(lead)]
        for lead in range(circuit.num_leads)
    )
    return PathCounts(circuit, tuple(up), tuple(down), through)


def _encode_classify(session, result, *, lead_counts=False, **_) -> dict:
    payload = {name: getattr(result, name) for name in _PASS_FIELDS}
    if lead_counts:
        payload["lead_ctrl_counts"] = session.canonical.pack_leads(
            result.lead_ctrl_counts
        )
    return payload


def _decode_classify(session, payload, *, criterion, lead_counts=False, **_):
    from repro.classify.results import ClassificationResult

    per_lead: list = []
    if lead_counts:
        if "lead_ctrl_counts" not in payload:
            return None  # written by a caller that did not need them
        stored = _ints(payload["lead_ctrl_counts"], session.circuit.num_leads)
        per_lead = session.canonical.unpack_leads(stored)
    return ClassificationResult(
        circuit_name=session.circuit.name,
        criterion=criterion,
        total_logical=payload["total_logical"],
        accepted=payload["accepted"],
        elapsed=float(payload["elapsed"]),
        lead_ctrl_counts=per_lead,
        edges_visited=payload["edges_visited"],
    )


def _decode_sort(session, payload, **_):
    from repro.sorting.input_sort import InputSort

    # InputSort validates per-gate rank permutations (ValueError)
    ranks = _ints(payload["ranks"], session.circuit.num_leads)
    return InputSort(session.circuit, session.canonical.unpack_leads(ranks))


def _decode_tightness(session, payload, **_):
    """``(total, approx, exact, replays)`` plus the three solver-work
    counters, zero for a stored row."""
    total, approx, exact, replays = (payload[name] for name in _TIGHTNESS_FIELDS)
    if not exact <= approx <= total or replays != exact:
        raise ValueError("inconsistent tightness counts")
    return (total, approx, exact, replays, 0, 0, 0)


def _signoff_variant(session, *, delays, k=None, slack=None, **_) -> str:
    from repro.timing.annotate import delays_digest

    digest = delays_digest(delays, canonical=session.canonical)
    query = f"k={k}" if k is not None else f"slack={slack!r}"
    return f"{SIGNOFF_SCHEMA}|{digest}|{query}"


def _encode_signoff(session, accepted, **_) -> dict:
    """The accepted set as sorted canonical lead positions (name-free)."""
    position = {lead: pos for pos, lead in enumerate(session.canonical.lead_order)}
    rows = sorted(
        [lp.final_value, [position[lead] for lead in lp.path.leads]]
        for _delay, lp in accepted
    )
    return {"schema": SIGNOFF_SCHEMA, "rows": rows}


def _decode_signoff(session, payload, *, delays, slack=None, **_):
    """``[(delay, LogicalPath)]``, every path revalidated and its delay
    recomputed from the live assignment (the enumerator's float
    accumulation, so bit-equal to a fresh run)."""
    from repro.paths.path import LogicalPath, PhysicalPath
    from repro.timing.pathdelay import logical_path_delay

    lead_order = session.canonical.lead_order
    out, seen = [], set()
    for final_value, positions in payload["rows"]:
        if final_value not in (0, 1) or not positions or not all(
            isinstance(p, int) and 0 <= p < len(lead_order) for p in positions
        ):
            raise ValueError("malformed signoff row")
        leads = tuple(lead_order[p] for p in positions)
        if (leads, final_value) in seen:
            raise ValueError("duplicate signoff row")
        seen.add((leads, final_value))
        lp = LogicalPath(PhysicalPath(leads), final_value)
        lp.path.validate(session.circuit)  # PI→PO connectivity
        delay = logical_path_delay(session.circuit, lp, delays)
        if slack is not None and delay < slack:
            raise ValueError("stored signoff path below the queried slack")
        out.append((delay, lp))
    return out


def _cone_variant(session, *, criterion, sort_label, max_accepted=None, **_) -> str:
    budget = "-" if max_accepted is None else str(int(max_accepted))
    return f"{criterion.name}|{sort_label}|{budget}"


def _decode_cone(session, payload, **_):
    """``(total, accepted, edges, elapsed)`` of one cone's pass."""
    if payload["accepted"] > payload["total_logical"]:
        raise ValueError("cone row accepts more paths than it has")
    return (*(payload[name] for name in _PASS_INTS), float(payload["elapsed"]))


#: Every kind of stored result, by name.
KINDS: "dict[str, StoreKind]" = {
    kind.name: kind
    for kind in (
        StoreKind(
            "counts",
            variant=lambda session, **_: "",
            encode=lambda session, counts, **_: {
                "up": session.canonical.pack_gates(counts.up),
                "down": session.canonical.pack_gates(counts.down),
            },
            decode=_decode_counts,
        ),
        StoreKind(
            "classify",
            variant=_pass_variant,
            encode=_encode_classify,
            decode=_decode_classify,
            fields=_PASS_INTS,
            budget="accepted",
        ),
        StoreKind(
            "sort",
            variant=lambda session, *, name, **_: name,
            encode=lambda session, sort, **_: {
                "ranks": session.canonical.pack_leads(sort.ranks)
            },
            decode=_decode_sort,
        ),
        StoreKind(
            "tightness",
            variant=_pass_variant,
            encode=lambda session, value, **_: dict(
                zip(_TIGHTNESS_FIELDS, value), schema=TIGHTNESS_SCHEMA
            ),
            decode=_decode_tightness,
            fields=_TIGHTNESS_FIELDS,
            budget="approx_accepted",
            schema=TIGHTNESS_SCHEMA,
        ),
        StoreKind(
            "signoff",
            variant=_signoff_variant,
            encode=_encode_signoff,
            decode=_decode_signoff,
            schema=SIGNOFF_SCHEMA,
        ),
        StoreKind(
            "cone",
            variant=_cone_variant,
            encode=lambda session, value, **_: dict(zip(_PASS_FIELDS, value)),
            decode=_decode_cone,
            table="cone_entries",
            fields=_PASS_INTS,
            budget="accepted",
        ),
    )
}
