"""The analysis daemon: ``repro-rd serve``.

A stdlib-only asyncio server speaking the JSON-lines protocol of
:mod:`repro.service.protocol` over TCP or a unix socket.  Requests are
classified in a thread pool through a *session pool* shared across
connections — sessions are keyed by request source (suite name, or
``.bench`` digest plus name), so repeated requests for the same circuit
reuse the parsed netlist and the in-memory implication engine and, when
the server was started with a result store, every result is read
through and written back to disk (the store is keyed by fingerprint, so
renamed or reordered copies share it).

Every compute op in :data:`protocol.OPS` runs through one pipeline
(:meth:`AnalysisServer._compute`) around a worker function
``(session, fields) -> dict`` from ``_WORKERS``.

Execution discipline:

* **Bounded concurrency** — at most ``concurrency`` classifications run
  at once (an :class:`asyncio.Semaphore` gates admission; the thread
  pool has exactly that many workers).  Further requests queue.
* **Per-request deadlines** — each compute op carries a wall-clock budget
  (the request's ``deadline`` field, the server default, or the
  supervisor rule :func:`~repro.experiments.supervisor.default_task_budget`
  applied to the circuit's exact path count).  A blown deadline answers
  with a structured :class:`~repro.errors.TaskTimeout` error *on the
  still-open connection*; the abandoned thread finishes in the
  background and its session returns to the pool only afterwards, so a
  timed-out session is never handed to two requests at once.
* **Graceful drain** — SIGTERM/SIGINT stop the listener, let every
  in-flight request finish and answer, then close the remaining (idle)
  connections and exit 0.
"""

from __future__ import annotations

import asyncio
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from threading import Lock
from typing import Callable

from repro import __version__
from repro.circuit.bench import parse_bench
from repro.circuit.netlist import Circuit
from repro.classify.conditions import Criterion
from repro.classify.session import CircuitSession
from repro.errors import CircuitError, ProtocolError, TaskTimeout
from repro.experiments.supervisor import default_task_budget
from repro.gen.suite import get_circuit
from repro.obs import get_registry
from repro.service import protocol
from repro.store.db import ResultStore, as_store
from repro.util.serialize import classification_payload

__all__ = ["AnalysisServer", "JsonLineServer", "run_until_signalled", "serve"]


class SessionPool:
    """Idle :class:`CircuitSession` objects keyed by request source.

    The key is :func:`~repro.service.protocol.source_key` — the suite
    name, or the ``.bench`` digest plus the request's name — so a
    renamed copy of a netlist gets its own session (and its own names
    in every answer) while a repeated request skips the parse.
    Sessions are not thread-safe (they share one implication engine), so
    a checked-out session belongs to exactly one request until it is
    checked back in.  The pool is bounded: beyond ``max_idle`` idle
    sessions the oldest key's surplus is dropped (its state is only a
    cache — with a store behind it nothing is lost).
    """

    def __init__(self, store: "ResultStore | None", max_idle: int = 16):
        self._store = store
        self._max_idle = max_idle
        self._idle: "dict[tuple, list[CircuitSession]]" = {}
        self._lock = Lock()

    def checkout(
        self, key: tuple, build: "Callable[[], Circuit]"
    ) -> CircuitSession:
        """An idle session for ``key``, else a new one on ``build()``."""
        with self._lock:
            idle = self._idle.get(key)
            if idle:
                session = idle.pop()
                if not idle:
                    del self._idle[key]
                return session
        return CircuitSession(build(), store=self._store)

    def checkin(self, key: tuple, session: CircuitSession) -> None:
        with self._lock:
            if sum(len(v) for v in self._idle.values()) >= self._max_idle:
                # drop the least-recently-stocked key's sessions
                oldest = next(iter(self._idle), None)
                if oldest is not None:
                    del self._idle[oldest]
            self._idle.setdefault(key, []).append(session)

    def idle_count(self) -> int:
        with self._lock:
            return sum(len(v) for v in self._idle.values())


@dataclass
class _Counters:
    """Lifetime counters, reported by the ``stats`` op."""

    requests: int = 0
    ok: int = 0
    errors: int = 0
    timeouts: int = 0
    started: float = field(default_factory=time.time)

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "ok": self.ok,
            "errors": self.errors,
            "timeouts": self.timeouts,
            "uptime": round(time.time() - self.started, 3),
        }


class _Connection:
    """Per-connection state the drain logic inspects."""

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.busy = False


def _build_circuit(message: dict) -> Circuit:
    """The circuit of a compute request :func:`protocol.parse_request`
    accepted."""
    bench = message.get("bench")
    if bench is not None:
        return parse_bench(bench, name=protocol.source_label(message))
    try:
        return get_circuit(message["circuit"])
    except KeyError as exc:
        # suite lookup errors become CircuitError so remote callers can
        # dispatch on the same type as for a malformed netlist
        raise CircuitError(str(exc.args[0])) from exc


class JsonLineServer:
    """Shared lifecycle of every JSON-lines daemon in this package.

    Owns the listener, the connection set, the graceful-drain state
    machine and the request path (decode, check against
    :data:`protocol.OPS`, answer or structured error); subclasses
    implement :meth:`_compute` for compute ops and ``_op_<name>`` for
    the others, and may hook :meth:`_on_close` for resource teardown.
    :class:`AnalysisServer` is the single-process classifier daemon;
    :class:`~repro.service.fleet.FleetServer` is the sharding
    front-end — both speak the identical protocol through this base,
    so a client cannot tell which one it connected to.
    """

    #: telemetry name prefix and server-assigned request-id prefix
    metric_prefix = "service"
    request_prefix = "req"

    def __init__(self, drain_timeout: float = 30.0):
        self.drain_timeout = drain_timeout
        self.counters = _Counters()
        self._request_seq = 0
        self._server: "asyncio.base_events.Server | None" = None
        self._connections: "set[_Connection]" = set()
        self._tasks: "set[asyncio.Task]" = set()
        self._shutdown = asyncio.Event()
        self._draining = False

    # -- lifecycle ------------------------------------------------------
    async def start(
        self,
        host: "str | None" = None,
        port: "int | None" = None,
        socket_path: "str | None" = None,
    ) -> str:
        """Bind and listen; returns a printable address (the actual port
        when ``port=0`` was requested)."""
        if (socket_path is None) == (port is None):
            raise ValueError("need exactly one of port= or socket_path=")
        if socket_path is not None:
            self._server = await asyncio.start_unix_server(
                self._on_connect, path=socket_path, limit=protocol.MAX_LINE
            )
            return socket_path
        self._server = await asyncio.start_server(
            self._on_connect, host or "127.0.0.1", port,
            limit=protocol.MAX_LINE,
        )
        bound = self._server.sockets[0].getsockname()
        return f"{bound[0]}:{bound[1]}"

    def request_shutdown(self) -> None:
        """Begin a graceful drain (idempotent, signal-handler safe)."""
        self._shutdown.set()

    async def run(self) -> None:
        """Serve until :meth:`request_shutdown`, then drain and return."""
        assert self._server is not None, "call start() first"
        await self._shutdown.wait()
        self._draining = True
        self._server.close()
        await self._server.wait_closed()
        # wake idle connections (blocked reading the next request); busy
        # ones finish their in-flight request, answer, then exit
        for conn in list(self._connections):
            if not conn.busy:
                conn.writer.close()
        pending = list(self._tasks)
        if pending:
            await asyncio.wait(pending, timeout=self.drain_timeout)
        leftover = list(self._tasks)
        for task in leftover:
            task.cancel()
        if leftover:
            # let the cancelled connection handlers run their finallys so
            # every peer sees FIN before the loop stops — otherwise a
            # client blocked in recv() waits forever on a half-dead socket
            await asyncio.wait(leftover, timeout=5.0)
        await self._drained()
        self.close()

    async def _drained(self) -> None:
        """Hook: runs after in-flight requests finished, before close()
        (the fleet tears its worker processes down here)."""

    def close(self) -> None:
        if self._server is not None:
            self._server.close()
        self._on_close()

    def _on_close(self) -> None:
        """Hook: release subclass resources (executors, stores, ...)."""

    # -- connection handling --------------------------------------------
    def _on_connect(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(writer)
        self._connections.add(conn)
        task = asyncio.ensure_future(self._client_loop(reader, conn))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _client_loop(
        self, reader: asyncio.StreamReader, conn: _Connection
    ) -> None:
        writer = conn.writer
        try:
            while not self._draining:
                try:
                    line = await reader.readline()
                except (ValueError, ConnectionError):
                    # over-long line (framing is unrecoverable) or reset
                    await self._send(
                        writer,
                        protocol.error_response(
                            None, ProtocolError("line too long")
                        ),
                    )
                    break
                if not line:
                    break
                conn.busy = True
                try:
                    await self._serve_request(line, writer)
                finally:
                    conn.busy = False
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._connections.discard(conn)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _send(self, writer: asyncio.StreamWriter, message: dict) -> None:
        writer.write(protocol.encode_line(message))
        await writer.drain()

    async def _serve_request(
        self, line: bytes, writer: asyncio.StreamWriter
    ) -> None:
        """Answer one request; every failure is a structured error
        response on the same connection, never a disconnect.

        Every message the server sends for this request carries the
        server-assigned ``request_id`` (``<request_prefix>-<n>``), so a
        ``start`` event, its result/error and the server's telemetry
        correlate.
        """
        self.counters.requests += 1
        self._request_seq += 1
        req_id = f"{self.request_prefix}-{self._request_seq}"
        prefix = self.metric_prefix
        registry = get_registry()
        registry.counter(f"{prefix}.requests").inc()
        started = time.perf_counter()
        request_id = None
        try:
            message = protocol.decode_line(line)
            request_id = message.get("id")
            op, fields = protocol.parse_request(message)
            registry.counter(f"{prefix}.op.{op}").inc()
            if protocol.OPS[op].compute:
                result = await self._compute(
                    op, fields, message, writer, req_id
                )
            else:
                result = await getattr(self, f"_op_{op}")()
            await self._send(
                writer, protocol.ok_response(request_id, result, req_id)
            )
            self.counters.ok += 1
            registry.counter(f"{prefix}.ok").inc()
        except Exception as exc:  # defensive: never kill the connection
            await self._send(writer, self._error(exc, request_id, req_id))
        finally:
            registry.histogram(f"{prefix}.request_seconds").observe(
                time.perf_counter() - started
            )

    def _error(self, exc: Exception, request_id, req_id: str) -> dict:
        """Count one failed request and build its error response."""
        self.counters.errors += 1
        get_registry().counter(f"{self.metric_prefix}.errors").inc()
        return protocol.error_response(request_id, exc, req_id)

    async def _compute(
        self, op: str, fields: dict, message: dict,
        writer: asyncio.StreamWriter, req_id: str,
    ) -> dict:
        raise NotImplementedError


class AnalysisServer(JsonLineServer):
    """The daemon behind ``repro-rd serve`` (and the service tests).

    Lifecycle: :meth:`start` binds the socket, :meth:`run` serves until
    :meth:`request_shutdown` (wired to SIGTERM/SIGINT by :func:`serve`)
    and then drains, :meth:`close` releases everything.
    """

    def __init__(
        self,
        store: "ResultStore | str | None" = None,
        concurrency: int = 8,
        default_deadline: "float | None" = None,
        max_accepted: "int | None" = None,
        drain_timeout: float = 30.0,
    ):
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        super().__init__(drain_timeout=drain_timeout)
        self.store = as_store(store)
        self.concurrency = concurrency
        self.default_deadline = default_deadline
        self.max_accepted = max_accepted
        self.sessions = SessionPool(self.store, max_idle=2 * concurrency)
        self._executor = ThreadPoolExecutor(
            max_workers=concurrency, thread_name_prefix="repro-classify"
        )
        self._admission = asyncio.Semaphore(concurrency)

    def _on_close(self) -> None:
        self._executor.shutdown(wait=False)
        if self.store is not None:
            self.store.close()

    async def _serve_request(
        self, line: bytes, writer: asyncio.StreamWriter
    ) -> None:
        in_flight = get_registry().gauge("service.in_flight")
        in_flight.inc()
        try:
            await super()._serve_request(line, writer)
        finally:
            in_flight.dec()

    def _error(self, exc: Exception, request_id, req_id: str) -> dict:
        if not isinstance(exc, TaskTimeout):
            return super()._error(exc, request_id, req_id)
        self.counters.timeouts += 1
        get_registry().counter("service.deadline_aborts").inc()
        return protocol.error_response(request_id, exc, req_id)

    # -- ops ------------------------------------------------------------
    async def _op_ping(self) -> dict:
        return {"server": "repro-rd", "version": __version__}

    async def _op_metrics(self) -> dict:
        """The server's full telemetry snapshot (``repro-rd metrics``)."""
        return {
            "server": "repro-rd",
            "version": __version__,
            "uptime": round(time.time() - self.counters.started, 3),
            "metrics": get_registry().snapshot(),
        }

    async def _op_stats(self) -> dict:
        loop = asyncio.get_event_loop()
        result = {
            "counters": self.counters.to_dict(),
            "concurrency": self.concurrency,
            "idle_sessions": self.sessions.idle_count(),
            "store": None,
        }
        if self.store is not None:
            stats = await loop.run_in_executor(self._executor, self.store.stats)
            result["store"] = {
                "path": stats.path,
                "entries": stats.entries,
                "by_kind": stats.by_kind,
                "total_hits": stats.total_hits,
                "size_bytes": stats.size_bytes,
            }
        return result

    async def _compute(
        self, op: str, fields: dict, message: dict,
        writer: asyncio.StreamWriter, req_id: str,
    ) -> dict:
        """One compute op: admission, prepare the session, stream the
        ``start`` event, then run the op's worker under its deadline."""
        if "max_accepted" in fields and fields["max_accepted"] is None:
            fields["max_accepted"] = self.max_accepted
        deadline = fields["deadline"]
        if deadline is None:
            deadline = self.default_deadline
        key = protocol.source_key(message)
        loop = asyncio.get_event_loop()
        async with self._admission:
            # cheap linear prep (parse + counts) sized the budget;
            # the op itself runs under wait_for below
            session, fingerprint, total = await loop.run_in_executor(
                self._executor, self._prepare, key, message
            )
            name = session.circuit.name
            if deadline is None:
                deadline = default_task_budget(total)
            deadline = float(deadline)
            await self._send(
                writer,
                protocol.event(
                    message.get("id"), "start",
                    server_request_id=req_id,
                    name=name,
                    fingerprint=fingerprint,
                    total_logical=total,
                    deadline=round(deadline, 3),
                ),
            )
            started = time.monotonic()
            work = loop.run_in_executor(
                self._executor, self._work, _WORKERS[op], key, session, fields
            )
            try:
                result = await asyncio.wait_for(work, timeout=deadline)
            except asyncio.TimeoutError:
                # the worker thread cannot be interrupted; it finishes in
                # the background and only then returns its session to the
                # pool (see _work), so no session is ever shared
                raise TaskTimeout(name, deadline) from None
            # the deadline is a hard contract: a worker that blows the
            # budget but completes before the event loop fires the
            # wait_for timer (the GIL can starve the loop for a whole
            # switch interval on sub-ms circuits) still answers TaskTimeout
            if time.monotonic() - started > deadline:
                raise TaskTimeout(name, deadline)
            return result

    def _prepare(
        self, key: tuple, message: dict
    ) -> "tuple[CircuitSession, str, int]":
        # a session whose fingerprint or counts fail is dropped, not
        # checked back in
        session = self.sessions.checkout(key, lambda: _build_circuit(message))
        return session, session.fingerprint, session.counts.total_logical

    def _work(
        self, worker: "Callable[[CircuitSession, dict], dict]", key: tuple,
        session: CircuitSession, fields: dict,
    ) -> dict:
        try:
            return worker(session, fields)
        finally:
            self.sessions.checkin(key, session)


def _classify(session: CircuitSession, fields: dict) -> dict:
    from repro.verdict.tightness import resolve_sort

    criterion = Criterion[protocol.CRITERIA[fields["criterion"]]]
    sigma = criterion is Criterion.SIGMA_PI
    sort_kind = fields["sort"] if sigma else None
    if fields["cones"]:
        # cone granularity: reuse stored cone rows (ECO flow);
        # the sort stays symbolic and is derived per cone
        from repro.incremental import cone_classify

        report = cone_classify(
            session.circuit,
            criterion=criterion,
            sort=sort_kind,
            max_accepted=fields["max_accepted"],
            store=session.store,
            session_stats=session.stats,
        )
        result = report.result
    else:
        sort, _label = resolve_sort(session, criterion, sort_kind)
        result = session.classify(
            criterion, sort=sort, max_accepted=fields["max_accepted"]
        )
    payload = classification_payload(
        result,
        fingerprint=session.fingerprint,
        sort_kind=sort_kind,
        session_stats=session.stats.to_dict(),
    )
    if fields["cones"]:
        payload["cone_stats"] = report.reuse_stats()
    return payload


def _tightness(session: CircuitSession, fields: dict) -> dict:
    from repro.verdict import tightness_row

    row = tightness_row(
        session.circuit,
        Criterion[protocol.CRITERIA[fields["criterion"]]],
        fields["sort"],
        session=session,
        max_accepted=fields["max_accepted"],
    )
    payload = row.to_dict()
    payload["fingerprint"] = session.fingerprint
    payload["session"] = session.stats.to_dict()
    return payload


def _signoff(session: CircuitSession, fields: dict) -> dict:
    from repro.signoff import DEFAULT_K, signoff_core
    from repro.timing.annotate import (
        delays_digest,
        materialize_delays,
        parse_delay_lines,
    )

    k, slack = fields["k"], fields["slack"]
    if k is None and slack is None:
        k = DEFAULT_K
    circuit = session.circuit
    text = fields["delays"]
    # the wire form must cover every non-PI gate: no silent fallback,
    # so client and server can never disagree
    delays = materialize_delays(
        circuit,
        None if text is None else parse_delay_lines(text, source="request"),
        seed=fields["seed"],
        strict=text is not None,
    )
    rows, counters, source = signoff_core(
        circuit, delays, k=k, slack=slack, exact=fields["exact"],
        session=session,
    )
    return {
        "circuit": circuit.name,
        "mode": "k" if k is not None else "slack",
        "k": k,
        "slack": slack,
        "exact": fields["exact"],
        "delays_digest": delays_digest(delays, canonical=session.canonical),
        "rows": [row.table_row() for row in rows],
        "counters": counters,
        "source": source,
        "fingerprint": session.fingerprint,
        "session": session.stats.to_dict(),
    }


#: the worker behind every compute op in :data:`protocol.OPS`
_WORKERS: "dict[str, Callable[[CircuitSession, dict], dict]]" = {
    "classify": _classify,
    "signoff": _signoff,
    "tightness": _tightness,
}


async def serve(
    host: "str | None" = None,
    port: "int | None" = None,
    socket_path: "str | None" = None,
    store: "str | None" = None,
    concurrency: int = 8,
    default_deadline: "float | None" = None,
    max_accepted: "int | None" = None,
    ready: "Callable[[str], None] | None" = None,
) -> int:
    """Run the daemon until SIGTERM/SIGINT; returns the exit code
    (0 after a drained SIGTERM, 130 when SIGINT triggered the drain —
    the CLI-wide Ctrl-C convention)."""
    server = AnalysisServer(
        store=store,
        concurrency=concurrency,
        default_deadline=default_deadline,
        max_accepted=max_accepted,
    )
    address = await server.start(host=host, port=port, socket_path=socket_path)
    if ready is not None:
        ready(address)
    return await run_until_signalled(server)


async def run_until_signalled(server: JsonLineServer) -> int:
    """Wire SIGTERM/SIGINT to a graceful drain and serve until one
    fires; the exit code encodes which (0 for SIGTERM or a programmatic
    :meth:`~JsonLineServer.request_shutdown`, 130 for SIGINT)."""
    loop = asyncio.get_event_loop()
    fired: "dict[str, int]" = {}

    def on_signal(signum: int) -> None:
        fired.setdefault("signum", signum)
        server.request_shutdown()

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, on_signal, signum)
        except (NotImplementedError, RuntimeError):
            signal.signal(
                signum, lambda num, _frame: loop.call_soon_threadsafe(
                    on_signal, num
                )
            )
    await server.run()
    return 130 if fired.get("signum") == signal.SIGINT else 0
