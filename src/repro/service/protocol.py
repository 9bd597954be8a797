"""The analysis service's wire protocol: JSON lines over a stream.

Both directions carry one JSON object per ``\\n``-terminated line
(UTF-8, no embedded newlines — ``json.dumps`` escapes them).  Requests
carry an ``op`` plus op-specific fields and an optional ``id`` the
server echoes into everything it sends back for that request::

    -> {"id": 1, "op": "classify", "circuit": "c17", "criterion": "sigma"}
    <- {"id": 1, "event": "start", "name": "c17", "fingerprint": "rdfp1:..."}
    <- {"id": 1, "ok": true, "result": {"accepted": 10, ...}}

A failed request answers with a *structured error* on the same open
connection — the connection is only dropped for unrecoverable framing
problems (an oversized line)::

    <- {"id": 2, "ok": false,
        "error": {"type": "TaskTimeout", "message": "..."}}

``error.type`` is the server-side exception class name
(``CircuitError``, ``ClassifyError``, ``TaskTimeout``, ...), which the
client rehydrates as :class:`repro.errors.RemoteError`.

Ops and their fields are the :data:`OPS` table: each :class:`OpSpec`
lists the op's fields (wire type, default, allowed values), whether it
is a *compute* op and whether a broken transport may resend it.
:func:`parse_request` checks a request against that table — a field of
the wrong type (a JSON boolean is not a number), an unknown value or a
broken cross-field rule answers ``ProtocolError``; a JSON ``null`` is
the same as an absent field and unknown fields are ignored.

Compute ops (``classify``, ``tightness``, ``signoff``) name their
circuit by exactly one of ``circuit`` (suite generator name) or
``bench`` (.bench source text, with an optional ``name``), stream one
``start`` event (name, fingerprint, ``total_logical``, effective
``deadline``) and carry a ``deadline`` in seconds — by default derived
from the circuit's exact path count via the supervisor budget rule.
:func:`source_key` is a compute request's circuit identity: two
requests share a session or a coalesced answer only when they name the
same suite circuit, or send the same ``.bench`` text under the same
``name``.

``classify``
    The paper's classifier.  ``sort`` is used by ``sigma`` only.  With
    ``"cones": true`` the pass runs at cone granularity against the
    store's schema-v2 cone table (the ECO path): ``sort`` must be
    ``pin``/``heu1``/``heu2`` (derived per cone), ``max_accepted``
    becomes a per-cone budget, and the result carries an extra
    ``"cone_stats"`` object —
    ``{"cones": N, "reused": n, "computed": m, "reuse_ratio": r}``.
``tightness``
    Exact-vs-approximate verdict counts for one circuit (the Lemma-2
    gap, via :mod:`repro.verdict`).  A circuit whose classifier accepts
    more than ``max_accepted`` paths answers a structured
    ``ClassifyError``.  The result is one tightness row:
    ``total_logical``, ``approx_accepted``, ``exact_accepted``,
    ``refuted``, both RD percentages, ``witness_replays`` and solver
    diagnostics, plus ``fingerprint`` and ``session`` stats.
``signoff``
    K-longest (or above-slack) robustly-testable paths of one circuit
    under an annotated delay assignment (:mod:`repro.signoff`); at most
    one of ``k`` / ``slack``.  ``delays`` is sidecar-format annotation
    text (``<gate> <rise> <fall>`` lines) that must cover every non-PI
    gate: the wire never falls back, so client and server cannot
    disagree; ``seed`` picks the deterministic fallback assignment
    when ``delays`` is absent.  The result carries the canonical row
    list (``capture``/``source``/``transition``/``delay``/``path``),
    the stage counters, ``delays_digest``, ``source``
    (``"computed"``/``"store"`` — rows are cached under store kind
    ``"signoff"``, keyed by the circuit fingerprint plus the canonical
    delay digest and query), ``fingerprint`` and ``session`` stats.
    Scan-domain fan-out is client-side: each cone of a
    :class:`~repro.circuit.sequential.ScanCircuit` arrives as its own
    independently-fingerprinted (hence independently hashed, coalesced
    and cached) ``signoff`` request.
``ping``
    Liveness + version handshake.
``stats``
    Server counters and, when the server has one, result-store stats.
``metrics``
    Full telemetry snapshot from the server's :mod:`repro.obs`
    registry: request counters, latency histograms, the in-flight
    gauge, store hit/miss counters and deadline aborts (rendered by
    ``repro-rd metrics --remote``).

Every server message for a request additionally carries the
server-assigned ``request_id`` (``"req-<n>"``) alongside the client's
echoed ``id`` — the correlation key tying a ``start`` event, its final
result (or error) and the server's logs/metrics together.

Fleet additions (:mod:`repro.service.fleet`) — same ops, three extra
fields when the daemon runs with ``--workers N``:

* compute results carry ``"worker"`` (the shard index that computed
  the answer) and ``"coalesced"`` (``true`` when this response was
  satisfied by another in-flight identical request through the
  front-end's single-flight cache, ``false`` for the request that did
  the computation).  Coalesced followers receive the final response
  only — the ``start`` event streams to the computing request alone.
* a shed request answers ``error.type == "Overloaded"`` with an extra
  ``error.retry_after`` field — the front-end's backoff hint in
  seconds.  Any exception carrying a numeric ``retry_after`` attribute
  serializes the same way; the client surfaces it on
  :class:`~repro.errors.RemoteError` as ``retry_after``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ProtocolError

__all__ = [
    "MAX_LINE",
    "OPS",
    "Field",
    "OpSpec",
    "decode_line",
    "encode_line",
    "error_response",
    "event",
    "ok_response",
    "parse_request",
    "source_key",
    "source_label",
]

#: longest accepted wire line — generously above any realistic ``.bench``
MAX_LINE = 8 * 1024 * 1024

#: Python types and description per field type
_TYPES = {
    "str": ((str,), "a string"),
    "bool": ((bool,), "a boolean"),
    "int": ((int,), "an integer"),
    "number": ((int, float), "a number"),
}


@dataclass(frozen=True)
class Field:
    """One request field: wire type, value when absent, allowed values."""

    type: str
    default: object = None
    choices: "tuple | None" = None
    minimum: "int | None" = None

    def normalize(self, name: str, value):
        if value is None:
            return self.default
        types, description = _TYPES[self.type]
        # bool is an int subclass: a JSON true is not a number
        if not isinstance(value, types) or (
            isinstance(value, bool) and self.type != "bool"
        ):
            raise ProtocolError(f"'{name}' must be {description}")
        if self.choices is not None and value not in self.choices:
            raise ProtocolError(
                f"unknown {name} {value!r}; valid: {', '.join(self.choices)}"
            )
        if self.minimum is not None and value < self.minimum:
            raise ProtocolError(f"'{name}' must be >= {self.minimum}")
        return value


@dataclass(frozen=True)
class OpSpec:
    """One wire op.

    ``compute`` ops name a circuit (``circuit`` or ``bench``), pass
    admission, stream a ``start`` event and run under a deadline;
    ``idempotent`` ops may be resent after a broken transport (a
    mutating op must say ``False`` or a retry could double-apply it);
    ``check`` enforces rules that span several normalized fields.
    """

    fields: "dict[str, Field]" = field(default_factory=dict)
    compute: bool = False
    idempotent: bool = True
    check: "Callable[[dict], None] | None" = None


#: wire criterion name -> :class:`~repro.classify.conditions.Criterion`
#: member name
CRITERIA = {"fs": "FS", "nr": "NR", "sigma": "SIGMA_PI"}
SORTS = ("pin", "heu1", "heu2", "heu2inv")
#: sorts derivable per cone (``heu2inv`` needs the global sort)
CONE_SORTS = ("pin", "heu1", "heu2")

_SOURCE = Field("str")
_DEADLINE = Field("number")
#: the classifier's fields, shared by ``classify`` and ``tightness``
_CLASSIFIER = {
    "criterion": Field("str", "sigma", choices=tuple(CRITERIA)),
    "sort": Field("str", "heu2", choices=SORTS),
    "max_accepted": Field("int"),
    "deadline": _DEADLINE,
}


def _check_cones(fields: dict) -> None:
    if fields["cones"] and fields["sort"] not in CONE_SORTS:
        raise ProtocolError(
            f"sort {fields['sort']!r} is not available at cone "
            f"granularity; valid: {', '.join(CONE_SORTS)}"
        )


def _check_query(fields: dict) -> None:
    if fields["k"] is not None and fields["slack"] is not None:
        raise ProtocolError("pass either 'k' or 'slack', not both")


#: every op the service answers — the one place their fields, defaults
#: and allowed values are written down
OPS: "dict[str, OpSpec]" = {
    "classify": OpSpec(
        fields={**_CLASSIFIER, "cones": Field("bool", False)},
        compute=True,
        check=_check_cones,
    ),
    "tightness": OpSpec(fields=_CLASSIFIER, compute=True),
    "signoff": OpSpec(
        fields={
            "k": Field("int", minimum=1),
            "slack": Field("number"),
            "exact": Field("bool", False),
            "delays": Field("str"),
            "seed": Field("int", 0),
            "deadline": _DEADLINE,
        },
        compute=True,
        check=_check_query,
    ),
    "metrics": OpSpec(),
    "ping": OpSpec(),
    "stats": OpSpec(),
}


def encode_line(message: dict) -> bytes:
    """One protocol message as a complete wire line (with newline)."""
    return json.dumps(
        message, sort_keys=True, separators=(",", ":")
    ).encode("utf-8") + b"\n"


def decode_line(raw: bytes) -> dict:
    """Parse one wire line into a message, or raise :class:`ProtocolError`."""
    if len(raw) > MAX_LINE:
        raise ProtocolError(f"line exceeds {MAX_LINE} bytes")
    try:
        message = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"invalid JSON line: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"expected a JSON object, got {type(message).__name__}"
        )
    return message


def validate_request(message: dict) -> str:
    """Check a decoded request's ``op`` and return it."""
    op = message.get("op")
    if not isinstance(op, str):
        raise ProtocolError("request is missing a string 'op' field")
    if op not in OPS:
        raise ProtocolError(
            f"unknown op {op!r}; valid: {', '.join(sorted(OPS))}"
        )
    return op


def parse_request(message: dict) -> "tuple[str, dict]":
    """Check a decoded request against :data:`OPS`; return its op and
    its fields with every default filled in (unknown fields dropped)."""
    op = validate_request(message)
    spec = OPS[op]
    if spec.compute:
        source = [
            _SOURCE.normalize(name, message.get(name))
            for name in ("bench", "circuit")
        ]
        if source.count(None) != 1:
            raise ProtocolError(
                f"{op} needs exactly one of 'bench' (netlist text) or "
                "'circuit' (suite generator name)"
            )
    fields = {
        name: spec_field.normalize(name, message.get(name))
        for name, spec_field in spec.fields.items()
    }
    if spec.check is not None:
        spec.check(fields)
    return op, fields


def source_label(message: dict) -> str:
    """A compute request's circuit name: the suite name, or the
    ``name`` sent with ``.bench`` text (``"remote"`` when absent)."""
    circuit = message.get("circuit")
    if circuit is not None:
        return circuit
    return str(message.get("name", "remote"))


def source_key(message: dict) -> tuple:
    """A validated compute request's circuit identity — the suite name,
    or the ``.bench`` text's digest plus the request's name.  Sessions,
    the fleet's fingerprint cache and its coalescer all key on it, so a
    renamed copy of a netlist is never answered with another's names."""
    bench = message.get("bench")
    if bench is None:
        return ("circuit", message["circuit"])
    digest = hashlib.sha256(bench.encode("utf-8")).hexdigest()
    return ("bench", digest, source_label(message))


def ok_response(request_id, result: dict, server_request_id: "str | None" = None) -> dict:
    message = {"id": request_id, "ok": True, "result": result}
    if server_request_id is not None:
        message["request_id"] = server_request_id
    return message


def error_response(
    request_id, exc: BaseException, server_request_id: "str | None" = None
) -> dict:
    message = {
        "id": request_id,
        "ok": False,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }
    retry_after = getattr(exc, "retry_after", None)
    if isinstance(retry_after, (int, float)):
        message["error"]["retry_after"] = round(float(retry_after), 3)
    if server_request_id is not None:
        message["request_id"] = server_request_id
    return message


def event(
    request_id, kind: str, server_request_id: "str | None" = None, **fields
) -> dict:
    """A streamed progress event (anything before the final response).

    ``fields`` are the event's payload; they must not collide with the
    reserved keys ``id`` / ``event`` / ``request_id`` (the last carries
    the server's correlation key when ``server_request_id`` is given).
    """
    message = {"id": request_id, "event": kind}
    if server_request_id is not None:
        message["request_id"] = server_request_id
    message.update(fields)
    return message
