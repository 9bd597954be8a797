"""The SQLite-backed, content-addressed result store.

One :class:`ResultStore` is a single-file database mapping
``(fingerprint, kind, variant)`` to a JSON payload.  The kinds — path
counts, classification passes, heuristic sorts, tightness rows, signoff
sets and ECO cone rows — are declared in
:data:`repro.store.kinds.KINDS`, which names each kind's table, variant
key, required fields, budget field and payload schema.  Whole-circuit
kinds share the ``entries`` table keyed by the ``rdfp1:`` circuit
fingerprint; cone rows live in ``cone_entries`` keyed by the
``rdcfp1:`` cone fingerprint.

Every row is stamped with its table's schema version
(:data:`~repro.store.fingerprint.SCHEMA_VERSION`, or
:data:`~repro.store.fingerprint.CONE_SCHEMA_VERSION` for cone rows);
reads only ever see rows of the *current* schema, so a payload-format or
fingerprint-algorithm change can never serve stale data — old rows just
stop being visible until ``gc`` reclaims them.

Concurrency: the database runs in WAL mode with a busy timeout, so the
``jobs=N`` process pool of the experiment harness and the threads of the
analysis service can all read and write one store file concurrently.
Connections are opened lazily *per process* (the store object pickles as
its path, and a fork is detected by PID), every statement is retried on
``database is locked``/``busy``, and a payload that does not decode or
fails its kind's validation is deleted and reported as a miss — a store
can make a run faster, never wrong, and never dead.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.errors import StoreError
from repro.obs import get_registry
from repro.store.fingerprint import CONE_SCHEMA_VERSION, SCHEMA_VERSION
from repro.store.kinds import KINDS

__all__ = ["STORE_FORMAT_VERSION", "ResultStore", "StoreStats"]

#: On-disk layout version, stamped into ``PRAGMA user_version``.  v2
#: adds the cone-level ``cone_entries`` table.  A v1 file (created
#: before cone support) still opens cleanly — whole-circuit entries work
#: exactly as before and the cone API degrades to always-miss/no-op
#: (:attr:`ResultStore.supports_cones` is ``False``) until the file is
#: ``clear``-ed, which upgrades it.
STORE_FORMAT_VERSION = 2


@dataclass(frozen=True)
class _Table:
    """One SQLite table of rows: its key columns (variant last), the
    schema version its live rows carry, and its metric-name prefix."""

    name: str
    keys: "tuple[str, ...]"
    schema: int
    metric: str

    @property
    def where(self) -> str:
        return " AND ".join(f"{key}=?" for key in self.keys)

    def key(self, fingerprint: str, kind: str, variant: str) -> tuple:
        if "kind" in self.keys:
            return (fingerprint, kind, variant)
        return (fingerprint, variant)

    @property
    def create_sql(self) -> str:
        columns = "".join(f"{key} TEXT NOT NULL, " for key in self.keys)
        return (
            f"CREATE TABLE IF NOT EXISTS {self.name} ({columns}"
            "schema INTEGER NOT NULL, payload TEXT NOT NULL, "
            "created REAL NOT NULL, last_used REAL NOT NULL, "
            "hits INTEGER NOT NULL DEFAULT 0, "
            f"PRIMARY KEY ({', '.join(self.keys)}, schema))"
        )


#: Whole-circuit rows keyed by the ``rdfp1:`` fingerprint, and (schema
#: v2) cone rows keyed by the ``rdcfp1:`` cone fingerprint, so an edited
#: netlist reuses every untouched cone's rows.
_TABLES = {
    table.name: table
    for table in (
        _Table("entries", ("fingerprint", "kind", "variant"), SCHEMA_VERSION,
               "store."),
        _Table("cone_entries", ("cone_fp", "variant"), CONE_SCHEMA_VERSION,
               "store.cone_"),
    )
}

#: bounded retry for statements that hit a held write lock even after
#: SQLite's own busy timeout
_LOCK_RETRIES = 8
_LOCK_SLEEP = 0.05


def _is_locked(exc: sqlite3.OperationalError) -> bool:
    text = str(exc).lower()
    return "locked" in text or "busy" in text


def _retry_locked(run):
    """``run()``, retried (bounded, with backoff) while the database is
    locked or busy; any other error, or the last attempt's, propagates."""
    for attempt in range(_LOCK_RETRIES):
        try:
            return run()
        except sqlite3.OperationalError as exc:
            if not _is_locked(exc) or attempt == _LOCK_RETRIES - 1:
                raise
            time.sleep(_LOCK_SLEEP * (attempt + 1))
    raise AssertionError("unreachable")


@dataclass(frozen=True)
class StoreStats:
    """A snapshot of one store file, for ``repro-rd cache stats``.

    ``entries``/``by_kind`` count the whole-circuit table; the cone-level
    table (schema v2) is broken out separately so cache pressure from
    fine-grained ECO rows is visible at a glance.
    """

    path: str
    entries: int
    by_kind: "dict[str, int]"
    stale_entries: int  #: rows of other schema versions (gc reclaims)
    total_hits: int
    size_bytes: int
    whole_payload_bytes: int = 0
    cone_entries: int = 0
    cone_stale: int = 0
    cone_hits: int = 0
    cone_payload_bytes: int = 0
    supports_cones: bool = True

    def render(self) -> str:
        kinds = ", ".join(
            f"{kind}={count}" for kind, count in sorted(self.by_kind.items())
        )
        if self.supports_cones:
            cone_line = (
                f"cone:    {self.cone_entries} entries, "
                f"{self.cone_payload_bytes:,} payload bytes, "
                f"{self.cone_hits} hits"
            )
        else:
            cone_line = "cone:    disabled (schema v1 store; `cache clear` upgrades)"
        return "\n".join(
            [
                f"store:   {self.path}",
                f"entries: {self.entries} ({kinds or 'empty'})",
                f"whole:   {self.entries} entries, "
                f"{self.whole_payload_bytes:,} payload bytes, "
                f"{self.total_hits} hits",
                cone_line,
                f"stale:   {self.stale_entries + self.cone_stale} "
                "(other schema versions)",
                f"hits:    {self.total_hits + self.cone_hits}",
                f"size:    {self.size_bytes:,} bytes",
                f"schema:  {SCHEMA_VERSION} (cone {CONE_SCHEMA_VERSION})",
            ]
        )


class ResultStore:
    """A content-addressed cache of analysis results in one SQLite file.

    ``path`` may be ``":memory:"`` for tests — such a store is private
    to the process that opened it (workers forked by the harness see an
    empty database).
    """

    def __init__(self, path: "str | Path", busy_timeout: float = 10.0):
        self.path = str(path)
        self.busy_timeout = busy_timeout
        self._local_conn: "sqlite3.Connection | None" = None
        self._pid = -1
        self._lock = threading.Lock()
        self._present: "tuple[_Table, ...]" = ()  # set by _connect

    # -- connection management -----------------------------------------
    def _connect(self) -> sqlite3.Connection:
        try:
            conn = sqlite3.connect(
                self.path,
                timeout=self.busy_timeout,
                check_same_thread=False,
                isolation_level=None,  # autocommit: every statement durable
            )
            # this pragma can fail at once, without waiting out the busy
            # timeout, while another process is opening the same file
            _retry_locked(lambda: conn.execute("PRAGMA journal_mode=WAL"))
            conn.execute("PRAGMA synchronous=NORMAL")
            # a pre-cone (v1) file keeps working with cone features off;
            # anything newer (or fresh) gets the cone table and the v2 stamp
            tables = {
                row[0]
                for row in conn.execute(
                    "SELECT name FROM sqlite_master WHERE type='table'"
                )
            }
            version = conn.execute("PRAGMA user_version").fetchone()[0]
            legacy_v1 = (
                "entries" in tables
                and "cone_entries" not in tables
                and version < STORE_FORMAT_VERSION
            )
            present = (_TABLES["entries"],) if legacy_v1 else tuple(_TABLES.values())
            for table in present:
                conn.execute(table.create_sql)
            if not legacy_v1 and version < STORE_FORMAT_VERSION:
                conn.execute(f"PRAGMA user_version={STORE_FORMAT_VERSION:d}")
            self._present = present
        except sqlite3.Error as exc:
            raise StoreError(f"cannot open result store {self.path!r}: {exc}")
        return conn

    @property
    def supports_cones(self) -> bool:
        """Whether this file has the cone-level table (schema v2).  A v1
        store answers ``False`` and the cone API degrades gracefully:
        every cone read misses, every cone write is a no-op."""
        return _TABLES["cone_entries"] in self._tables()

    def _tables(self) -> "tuple[_Table, ...]":
        """The tables this file has (connects, and detects the layout,
        lazily)."""
        self._conn  # noqa: B018
        return self._present

    @property
    def _conn(self) -> sqlite3.Connection:
        # reopen after fork: SQLite connections must not cross processes
        if self._local_conn is None or self._pid != os.getpid():
            self._local_conn = self._connect()
            self._pid = os.getpid()
        return self._local_conn

    def close(self) -> None:
        if self._local_conn is not None and self._pid == os.getpid():
            self._local_conn.close()
        self._local_conn = None
        self._pid = -1

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __reduce__(self):
        # pickles as its path: each pool worker opens its own connection
        return (type(self), (self.path, self.busy_timeout))

    def _execute(self, sql: str, params: tuple = ()):
        """One statement with bounded retry on a held write lock."""
        with self._lock:
            try:
                return _retry_locked(lambda: self._conn.execute(sql, params))
            except sqlite3.DatabaseError as exc:
                raise StoreError(f"result store {self.path!r}: {exc}") from exc

    # -- the content-addressed API -------------------------------------
    def get(
        self, fingerprint: str, kind: str, variant: str = "", decode=None
    ) -> "dict | None":
        """The payload under this key at the current schema (or
        ``decode(payload)``), else ``None``.  A payload that is not a JSON
        object, or that ``decode`` raises on, is deleted, counted in
        ``store.corrupt_entries`` and missed; ``decode`` returning
        ``None`` misses but keeps the row."""
        table = _TABLES[KINDS[kind].table]
        registry = get_registry()
        registry.counter(f"{table.metric}gets").inc()
        started = time.perf_counter()
        key = table.key(fingerprint, kind, variant)
        row = None
        if table in self._tables():
            row = self._execute(
                f"SELECT payload FROM {table.name} WHERE {table.where} "
                "AND schema=?",
                (*key, table.schema),
            ).fetchone()
        value = None
        if row is not None:
            try:
                value = json.loads(row[0])
                if not isinstance(value, dict):
                    raise ValueError("payload is not an object")
                if decode is not None:
                    value = decode(value)
            except Exception:  # noqa: BLE001 - an invalid row is a miss
                registry.counter("store.corrupt_entries").inc()
                self.delete(fingerprint, kind, variant)
                value = None
        if value is None:
            registry.counter(f"{table.metric}misses").inc()
        else:
            self._execute(
                f"UPDATE {table.name} SET hits=hits+1, last_used=? "
                f"WHERE {table.where} AND schema=?",
                (time.time(), *key, table.schema),
            )
            registry.counter(f"{table.metric}hits").inc()
        registry.histogram(f"{table.metric}get_seconds").observe(
            time.perf_counter() - started
        )
        return value

    def put(self, fingerprint: str, kind: str, variant: str, payload: dict) -> None:
        """Insert or replace one entry, stamped with its table's current
        schema (a no-op for cone rows on a v1 store)."""
        table = _TABLES[KINDS[kind].table]
        if table not in self._tables():
            return
        registry = get_registry()
        registry.counter(f"{table.metric}puts").inc()
        started = time.perf_counter()
        now = time.time()
        self._execute(
            f"INSERT OR REPLACE INTO {table.name} "
            f"({', '.join(table.keys)}, schema, payload, created, last_used, "
            f"hits) VALUES ({'?, ' * len(table.keys)}?, ?, ?, ?, 0)",
            (
                *table.key(fingerprint, kind, variant),
                table.schema,
                json.dumps(payload, sort_keys=True, separators=(",", ":")),
                now,
                now,
            ),
        )
        registry.histogram(f"{table.metric}put_seconds").observe(
            time.perf_counter() - started
        )

    def delete(self, fingerprint: str, kind: str, variant: str = "") -> None:
        """Drop one key's rows at every schema version."""
        table = _TABLES[KINDS[kind].table]
        if table in self._tables():
            self._execute(
                f"DELETE FROM {table.name} WHERE {table.where}",
                table.key(fingerprint, kind, variant),
            )

    # -- kind-aware batch read-through (see repro.store.kinds) ----------
    def lookup(self, kind: str, keys, session=None, **request) -> list:
        """The value served for each ``(fingerprint, variant)`` key, or
        ``None``, validated by :meth:`~repro.store.kinds.StoreKind.load`."""
        spec = KINDS[kind]
        return [
            self.get(fp, kind, variant, lambda p: spec.load(session, p, request))
            for fp, variant in keys
        ]

    def save(self, kind: str, items, session=None, **request) -> None:
        """Write back ``((fingerprint, variant), value)`` items."""
        for (fp, variant), value in items:
            self.put(fp, kind, variant, KINDS[kind].encode(session, value, **request))

    # -- the cone-granularity API (schema v2) --------------------------
    def cone_get(self, cone_fp: str, variant: str) -> "dict | None":
        return self.get(cone_fp, "cone", variant)

    def cone_put(self, cone_fp: str, variant: str, payload: dict) -> None:
        self.put(cone_fp, "cone", variant, payload)

    def cone_delete(self, cone_fp: str, variant: str) -> None:
        self.delete(cone_fp, "cone", variant)

    # -- maintenance (the ``repro-rd cache`` subcommand) ----------------
    def stats(self) -> StoreStats:
        by_kind = dict(
            self._execute(
                "SELECT kind, COUNT(*) FROM entries WHERE schema=? GROUP BY kind",
                (SCHEMA_VERSION,),
            ).fetchall()
        )
        # per table: (live rows, stale rows, hits, live payload bytes)
        sums = {
            table.name: self._execute(
                "SELECT COALESCE(SUM(schema=?), 0), COALESCE(SUM(schema!=?), 0), "
                "COALESCE(SUM(CASE WHEN schema=? THEN hits END), 0), "
                "COALESCE(SUM(CASE WHEN schema=? THEN LENGTH(payload) END), 0) "
                f"FROM {table.name}",
                (table.schema,) * 4,
            ).fetchone()
            for table in self._tables()
        }
        whole = sums["entries"]
        cone = sums.get("cone_entries", (0, 0, 0, 0))
        try:
            size = os.path.getsize(self.path)
        except OSError:
            size = 0
        return StoreStats(
            path=self.path,
            entries=whole[0],
            by_kind=by_kind,
            stale_entries=whole[1],
            total_hits=whole[2],
            size_bytes=size,
            whole_payload_bytes=whole[3],
            cone_entries=cone[0],
            cone_stale=cone[1],
            cone_hits=cone[2],
            cone_payload_bytes=cone[3],
            supports_cones=self.supports_cones,
        )

    def gc(self, max_age_days: "float | None" = None) -> int:
        """Reclaim stale rows: every other-schema entry (in both tables),
        plus (when ``max_age_days`` is given) entries not used for that
        long.  Returns the number of rows removed."""
        cutoff = None  # `last_used < NULL` never holds
        if max_age_days is not None:
            cutoff = time.time() - max_age_days * 86400.0
        removed = sum(
            self._execute(
                f"DELETE FROM {table.name} WHERE schema != ? OR last_used < ?",
                (table.schema, cutoff),
            ).rowcount
            for table in self._tables()
        )
        self._execute("VACUUM")
        return removed

    def clear(self) -> int:
        """Drop every entry (all schema versions, both tables).  Returns
        the count.  Clearing a v1 store also upgrades it to the current
        layout (the cone table is created and the file stamped v2)."""
        removed = sum(
            self._execute(f"DELETE FROM {table.name}").rowcount
            for table in self._tables()
        )
        if not self.supports_cones:
            self._execute(_TABLES["cone_entries"].create_sql)
            self._execute(f"PRAGMA user_version={STORE_FORMAT_VERSION:d}")
            self._present = tuple(_TABLES.values())
        self._execute("VACUUM")
        return removed

    def __repr__(self) -> str:
        return f"ResultStore({self.path!r})"


def as_store(store: "ResultStore | str | Path | None") -> "ResultStore | None":
    """Normalize a ``store=`` argument (path or instance or None)."""
    if store is None or isinstance(store, ResultStore):
        return store
    return ResultStore(store)
