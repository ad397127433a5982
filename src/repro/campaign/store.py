"""SQLite-backed durable result store for DSE campaigns.

A campaign's value is its accumulated results, so they must survive the
process (and the machine): :class:`ResultStore` persists one row per
:class:`~repro.campaign.spec.RunKey`, keyed by the key's content hash,
into a single SQLite file in WAL mode.  Each finished row carries the
winning solution (via :mod:`repro.serialize`), the scalar score, the
(panel, latency) Pareto coordinates, the search's throughput stats and
absorbed-failure log, and wall-clock — enough for
:mod:`repro.campaign.report` to rebuild winners and Pareto fronts from
the store alone, with no spec and no re-execution.

Since schema v3 the store is also the *coordination* substrate of the
multi-worker fleet (:mod:`repro.campaign.fleet`):

* **leases** — a worker takes a run with :meth:`claim`, which
  atomically flips the row to ``running`` and stamps it with the
  worker id and a lease deadline.  :meth:`heartbeat` extends the
  deadline (it only ever moves forward); a worker that stops
  heartbeating loses the run after one TTL, at which point
  :meth:`reap_stale` (or another worker's :meth:`claim`) re-queues it.
  Completion writes are lease-guarded: a worker that lost its lease
  cannot clobber a newer claimant's row.
* **attempt history** — every claim/finish/loss appends to the row's
  ``attempts_json`` audit trail; rows that keep failing become
  ``exhausted`` once they reach ``max_attempts`` instead of being
  retried forever.
* **worker registry** — workers announce themselves in a ``workers``
  table and heartbeat it, so ``campaign status`` can report per-worker
  liveness and throughput from the database file alone.

All timestamps come from an injectable ``clock`` (default
:func:`time.time`), which is how the lease tests run on a fake clock
with no real sleeping.

The store is schema-versioned and fails loudly: a corrupt file, a
row whose JSON does not decode, or any schema version but this
release's raises :class:`~repro.errors.StoreError` (a
:class:`ChrysalisError`) instead of silently mixing incompatible rows.
A refused file is never written.  Writes are idempotent upserts inside
bounded-retry ``BEGIN IMMEDIATE`` transactions, so concurrent workers
sharing one WAL file never surface a spurious ``database is locked``
error.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import sqlite3
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.campaign.spec import RunKey, _check_seconds
from repro.errors import ConfigurationError, StoreError
from repro.explore.pareto import ParetoPoint, pareto_front
from repro.obs.state import OBS

_SCHEMA_VERSION = 4

#: Default lease time-to-live; also the liveness horizon ``campaign
#: status`` assumes for workers that did not record their own TTL.
DEFAULT_LEASE_TTL_S = 30.0

#: Run lifecycle states.  ``running`` rows carry a lease (owner +
#: deadline); an expired lease marks a crashed worker and makes the row
#: claimable again.  ``exhausted`` is terminal: the run failed
#: ``max_attempts`` times and is never retried automatically.
STATUS_PENDING = "pending"
STATUS_RUNNING = "running"
STATUS_DONE = "done"
STATUS_FAILED = "failed"
STATUS_EXHAUSTED = "exhausted"

_STATUSES = (STATUS_PENDING, STATUS_RUNNING, STATUS_DONE, STATUS_FAILED,
             STATUS_EXHAUSTED)

#: Attempt-history outcomes (the ``attempts_json`` audit trail).
OUTCOME_DONE = "done"
OUTCOME_FAILED = "failed"
OUTCOME_EXHAUSTED = "exhausted"
OUTCOME_LOST = "lost"  # lease expired: worker died or stopped heartbeating

_SCHEMA = """
CREATE TABLE IF NOT EXISTS campaign_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    run_hash       TEXT PRIMARY KEY,
    campaign       TEXT NOT NULL,
    workload       TEXT NOT NULL,
    setup          TEXT NOT NULL,
    environment    TEXT NOT NULL,
    objective      TEXT NOT NULL,
    seed           INTEGER NOT NULL,
    spec_json      TEXT NOT NULL,
    status         TEXT NOT NULL DEFAULT 'pending',
    score          REAL,
    panel_cm2      REAL,
    latency_s      REAL,
    solution_json  TEXT,
    stats_json     TEXT,
    failures_json  TEXT,
    error          TEXT,
    wall_seconds   REAL,
    attempts       INTEGER NOT NULL DEFAULT 0,
    updated_at     REAL NOT NULL,
    obs_json       TEXT,
    lease_owner    TEXT,
    lease_deadline REAL,
    retry_at       REAL,
    attempts_json  TEXT,
    front_json     TEXT
);
CREATE INDEX IF NOT EXISTS idx_runs_campaign ON runs (campaign, status);
CREATE INDEX IF NOT EXISTS idx_runs_lease
    ON runs (campaign, status, lease_deadline);
CREATE TABLE IF NOT EXISTS workers (
    worker_id      TEXT PRIMARY KEY,
    campaign       TEXT NOT NULL,
    pid            INTEGER,
    host           TEXT,
    lease_ttl_s    REAL,
    started_at     REAL NOT NULL,
    last_heartbeat REAL NOT NULL,
    retired_at     REAL,
    current_run    TEXT,
    runs_done      INTEGER NOT NULL DEFAULT 0,
    runs_failed    INTEGER NOT NULL DEFAULT 0
);
"""


@dataclass(frozen=True)
class StoredRun:
    """One persisted run row, JSON blobs already decoded."""

    run_hash: str
    campaign: str
    key: RunKey
    status: str
    score: Optional[float] = None
    panel_cm2: Optional[float] = None
    latency_s: Optional[float] = None
    solution: Optional[Dict[str, Any]] = None
    stats: Optional[Dict[str, Any]] = None
    failures: Optional[List[Dict[str, Any]]] = None
    error: Optional[str] = None
    wall_seconds: Optional[float] = None
    attempts: int = 0
    updated_at: float = 0.0
    #: Per-run observability snapshot (``repro.obs`` format), present
    #: when the run executed with observability on.
    obs: Optional[Dict[str, Any]] = None
    #: Lease state (schema v3): the worker currently executing this run
    #: and the wall-clock instant its claim expires.
    lease_owner: Optional[str] = None
    lease_deadline: Optional[float] = None
    #: Earliest instant a ``failed`` row may be claimed again (capped
    #: exponential backoff; ``None`` = immediately).
    retry_at: Optional[float] = None
    #: Audit trail of every attempt: claim owner, outcome, error, time.
    attempt_history: List[Dict[str, Any]] = field(default_factory=list)
    #: Serialized Pareto front of a multi-objective ("pareto" kind) run
    #: (schema v4): a list of ``{panel_cm2, latency_s, design}`` dicts.
    front: Optional[List[Dict[str, Any]]] = None

    @property
    def scenario_label(self) -> str:
        return self.key.scenario_label

    def load_solution(self):
        """The stored winning solution as an ``AuTSolution`` (or None)."""
        from repro.serialize import solution_from_dict

        if self.solution is None:
            return None
        return solution_from_dict(self.solution)


@dataclass(frozen=True)
class WorkerStatus:
    """One fleet worker as seen purely from the store."""

    worker_id: str
    campaign: str
    pid: Optional[int]
    host: Optional[str]
    lease_ttl_s: Optional[float]
    started_at: float
    last_heartbeat: float
    retired_at: Optional[float]
    current_run: Optional[str]
    runs_done: int
    runs_failed: int
    #: Liveness verdict at query time: heartbeat within two TTLs and
    #: the worker has not announced a clean exit.
    alive: bool

    @property
    def state(self) -> str:
        """``alive``, ``exited`` (announced a clean exit) or ``dead``."""
        if self.alive:
            return "alive"
        return "exited" if self.retired_at is not None else "dead"

    @property
    def throughput_per_min(self) -> float:
        horizon = max(self.last_heartbeat - self.started_at, 1e-9)
        return 60.0 * (self.runs_done + self.runs_failed) / horizon


def _decode(row: sqlite3.Row, column: str, default: Any = None) -> Any:
    """One JSON column of a ``runs`` row; NULL reads as ``default``.

    A store file comes from outside the program, so a value that does
    not decode raises :class:`StoreError` naming the run and column.
    """
    text = row[column]
    if text is None:
        return default
    try:
        return json.loads(text)
    except (TypeError, ValueError) as error:
        raise StoreError(f"run {row['run_hash']} has an unreadable "
                         f"{column}: {error}") from None


def _run_key(row: sqlite3.Row) -> RunKey:
    """A row's ``spec_json``, read back into its :class:`RunKey`."""
    try:
        return RunKey.from_dict(_decode(row, "spec_json"))
    except ConfigurationError as error:
        raise StoreError(f"run {row['run_hash']} has an unreadable "
                         f"spec_json: {error}") from None


def _attempts(row: sqlite3.Row,
              lost_at: Optional[float] = None) -> List[Dict[str, Any]]:
    """A row's ``attempts_json`` audit trail, which must be a list; with
    ``lost_at``, plus the entry auditing its lease as lost then."""
    history = _decode(row, "attempts_json", [])
    if not isinstance(history, list):
        raise StoreError(f"run {row['run_hash']} has an unreadable "
                         f"attempts_json: expected a list, got "
                         f"{type(history).__name__}")
    if lost_at is not None:
        history.append({"attempt": row["attempts"],
                        "worker": row["lease_owner"],
                        "outcome": OUTCOME_LOST, "at": lost_at})
    return history


#: What sqlite3 raises on a damaged file: its own errors, and
#: ``UnicodeDecodeError`` for text it cannot decode while it runs a
#: statement.
_DAMAGED = (sqlite3.Error, UnicodeDecodeError)


def _is_locked(error: sqlite3.Error) -> bool:
    message = str(error).lower()
    return "locked" in message or "busy" in message


class ResultStore:
    """One campaign database.  Safe to reopen; writes are upserts.

    Parameters
    ----------
    path:
        SQLite file (or ``":memory:"``).
    clock:
        Timestamp source for every write and lease decision (default
        :func:`time.time`).  Tests inject a fake clock here to prove
        lease expiry bounds without sleeping.
    timeout_s:
        SQLite busy timeout; concurrent writers block up to this long
        instead of erroring.
    """

    #: Bounded retries of a whole write transaction on ``database is
    #: locked`` (each retry doubles a 50 ms backoff) before the error
    #: surfaces as a :class:`StoreError`.
    _LOCK_RETRIES = 6

    def __init__(self, path, *,
                 clock: Optional[Callable[[], float]] = None,
                 timeout_s: float = 30.0) -> None:
        self.path = str(path)
        self._clock = time.time if clock is None else clock
        if self.path != ":memory:":
            parent = pathlib.Path(self.path).parent
            if not parent.exists():
                raise StoreError(
                    f"store directory {parent} does not exist")
        try:
            self._conn = sqlite3.connect(self.path, timeout=timeout_s)
            self._conn.row_factory = sqlite3.Row
            # Autocommit at the connection level; writes run in explicit
            # BEGIN IMMEDIATE transactions (see _with_txn).
            self._conn.isolation_level = None
            self._conn.execute(
                f"PRAGMA busy_timeout={int(timeout_s * 1000)}")
            # Refuse another schema before anything, even the journal
            # mode, is written, so a refused file keeps its bytes.
            version = self._read_version()
            if version not in (None, str(_SCHEMA_VERSION)):
                raise StoreError(
                    f"campaign store {self.path!r} has schema version "
                    f"{version!r}; this release reads only version "
                    f"{_SCHEMA_VERSION}")
            # Switching to WAL needs an exclusive lock, which SQLite
            # refuses at once, busy timeout or not, while a concurrent
            # first open holds the file: retry it like a transaction.
            self._retry_locked(
                lambda: self._conn.execute("PRAGMA journal_mode=WAL"))
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._init_schema()
        except _DAMAGED as error:
            raise StoreError(
                f"cannot open campaign store {self.path!r}: {error}"
            ) from None

    # -- lifecycle -----------------------------------------------------------

    def _read_version(self) -> Optional[str]:
        """The file's ``schema_version`` text; ``None`` for a file with
        no tables yet.

        The schema and its version row are written in one transaction,
        so a file with tables but no version row is damaged, or not a
        campaign store: it raises rather than being taken for a fresh
        file and written into.
        """
        if self._conn.execute(
                "SELECT 1 FROM sqlite_master LIMIT 1").fetchone() is None:
            return None
        row = self._conn.execute(
            "SELECT value FROM campaign_meta WHERE key='schema_version'"
        ).fetchone()
        if row is None:
            raise StoreError(f"campaign store {self.path!r} has no "
                             f"schema version")
        return row["value"]

    def _init_schema(self) -> None:
        """Create the schema in a fresh file.  Creation and the version
        row share one write transaction, so concurrent first opens
        create it once."""

        def body() -> None:
            if self._read_version() is None:
                for statement in _SCHEMA.split(";")[:-1]:
                    self._conn.execute(statement)
                self._conn.execute(
                    "INSERT INTO campaign_meta (key, value) VALUES (?, ?)",
                    ("schema_version", str(_SCHEMA_VERSION)))

        self._with_txn(body)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _now(self, now: Optional[float]) -> float:
        return self._clock() if now is None else now

    # -- transactions --------------------------------------------------------

    @contextlib.contextmanager
    def _txn(self):
        """One BEGIN IMMEDIATE transaction (no retry; see _with_txn)."""
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            yield
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        self._conn.execute("COMMIT")

    def _with_txn(self, body: Callable[[], Any]) -> Any:
        """Run ``body`` in a write transaction, retrying lock conflicts.

        SQLite allows one writer at a time; with many workers sharing
        the WAL file a ``BEGIN IMMEDIATE`` (or, rarely, a statement
        inside the transaction) can still time out with ``database is
        locked``.  That is contention, not corruption, so it is retried
        with doubling backoff a bounded number of times before becoming
        a :class:`StoreError`.
        """

        def txn() -> Any:
            with self._txn():
                return body()

        return self._retry_locked(txn)

    def _retry_locked(self, body: Callable[[], Any]) -> Any:
        """Run ``body``, retrying ``database is locked`` (see
        :meth:`_with_txn`); any other SQLite error is a StoreError."""
        delay = 0.05
        for attempt in range(self._LOCK_RETRIES + 1):
            try:
                return body()
            except _DAMAGED as error:
                if (isinstance(error, sqlite3.OperationalError)
                        and _is_locked(error)
                        and attempt < self._LOCK_RETRIES):
                    if OBS.enabled:
                        OBS.registry.counter("store.lock_retries").inc()
                    time.sleep(delay)
                    delay *= 2
                    continue
                raise StoreError(
                    f"campaign store {self.path!r} failed: {error}"
                ) from None

    def _read(self, sql: str, params: Sequence = (),
              convert: Optional[Callable[[sqlite3.Row], Any]] = None
              ) -> List[Any]:
        """Every row of one read statement, each through ``convert``.

        A damaged file shows at three points: running the statement,
        decoding a fetched text column, and ``convert`` naming a column
        that a damaged schema renamed (``IndexError``).  The fetch and
        ``convert`` run inside the same guard, so all three raise
        :class:`StoreError` naming the store.
        """
        try:
            rows = self._conn.execute(sql, params).fetchall()
            return rows if convert is None else [convert(row) for row in rows]
        except (*_DAMAGED, IndexError) as error:
            raise StoreError(
                f"campaign store {self.path!r} failed: {error}") from None

    # -- registration --------------------------------------------------------

    def register(self, campaign: str, keys: Iterable[RunKey]) -> int:
        """Ensure a pending row exists for every key; returns #created.

        Idempotent: keys whose rows already exist (any status) are left
        untouched, which is exactly the resume semantics — a completed
        run stays completed no matter how often the spec is re-expanded.
        """
        keys = list(keys)
        now = self._now(None)

        def body() -> int:
            created = 0
            for key in keys:
                cursor = self._conn.execute(
                    "INSERT OR IGNORE INTO runs (run_hash, campaign, "
                    "workload, setup, environment, objective, seed, "
                    "spec_json, status, updated_at) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (key.run_hash, campaign, key.workload, key.setup,
                     key.environment, key.objective.label(), key.seed,
                     json.dumps(key.as_dict(), sort_keys=True),
                     STATUS_PENDING, now))
                created += cursor.rowcount
            return created

        return self._with_txn(body)

    # -- state transitions ---------------------------------------------------

    def mark_running(self, key: RunKey) -> None:
        """Leaseless running transition (single-process runner path)."""
        now = self._now(None)
        self._with_txn(lambda: self._conn.execute(
            "UPDATE runs SET status=?, attempts=attempts+1, updated_at=? "
            "WHERE run_hash=?",
            (STATUS_RUNNING, now, key.run_hash)))

    def record_success(self, key: RunKey, *, score: float,
                       panel_cm2: float, latency_s: float,
                       solution: Dict[str, Any],
                       stats: Optional[Dict[str, Any]] = None,
                       failures: Optional[List[Dict[str, Any]]] = None,
                       wall_seconds: float = 0.0,
                       campaign: str = "",
                       obs: Optional[Dict[str, Any]] = None,
                       worker_id: Optional[str] = None,
                       front: Optional[List[Dict[str, Any]]] = None) -> bool:
        """Upsert a finished run (idempotent; works without register).

        With ``worker_id`` the write is lease-guarded: if another
        worker holds a live lease on the row (this worker's own lease
        expired and the run was reclaimed), the write is dropped and
        ``False`` returned — the live claimant's eventual write is the
        authoritative one.  Results are deterministic per run key, so a
        dropped write never loses information.
        """
        return self._finish(
            key, STATUS_DONE, campaign=campaign, score=score,
            panel_cm2=panel_cm2, latency_s=latency_s, solution=solution,
            stats=stats, failures=failures, wall_seconds=wall_seconds,
            obs=obs, worker_id=worker_id, front=front) is not None

    def record_failure(self, key: RunKey, error: str,
                       failures: Optional[List[Dict[str, Any]]] = None,
                       wall_seconds: float = 0.0,
                       campaign: str = "",
                       obs: Optional[Dict[str, Any]] = None,
                       worker_id: Optional[str] = None,
                       max_attempts: Optional[int] = None,
                       retry_delay_s: Optional[float] = None,
                       ) -> Optional[str]:
        """Upsert a failed run; the campaign continues past it.

        Returns the status written (``failed``, or ``exhausted`` once
        the row has burned ``max_attempts`` attempts), or ``None`` if a
        lease guard dropped the write.  ``retry_delay_s`` schedules the
        earliest re-claim (capped-backoff retries).
        """
        return self._finish(
            key, STATUS_FAILED, campaign=campaign, error=str(error),
            failures=failures, wall_seconds=wall_seconds, obs=obs,
            worker_id=worker_id, max_attempts=max_attempts,
            retry_delay_s=retry_delay_s)

    def _finish(self, key: RunKey, status: str, *, campaign: str,
                wall_seconds: float, worker_id: Optional[str],
                error: Optional[str] = None,
                max_attempts: Optional[int] = None,
                retry_delay_s: Optional[float] = None,
                score=None, panel_cm2=None, latency_s=None, solution=None,
                stats=None, failures=None, obs=None,
                front=None) -> Optional[str]:
        """Write one finished attempt; each of the five blobs (``solution``
        to ``front``) is stored as its JSON text, or NULL for None."""
        now = self._now(None)
        solution_json, stats_json, failures_json, obs_json, front_json = (
            None if blob is None else json.dumps(blob)
            for blob in (solution, stats, failures, obs, front))

        def body() -> Optional[str]:
            row = self._conn.execute(
                "SELECT run_hash, status, attempts, attempts_json, "
                "lease_owner, lease_deadline FROM runs WHERE run_hash=?",
                (key.run_hash,)).fetchone()
            attempts = 1 if row is None else max(row["attempts"], 1)
            history = [] if row is None else _attempts(row)
            if worker_id is not None and row is not None:
                holder = row["lease_owner"]
                deadline = row["lease_deadline"]
                if (row["status"] == STATUS_RUNNING
                        and holder not in (None, worker_id)
                        and deadline is not None and deadline > now):
                    # Another live lease owns this run now; our claim
                    # expired somewhere along the way.
                    return None
                if row["status"] == STATUS_DONE:
                    return None  # a reclaimant already finished it
            final_status, retry_at = status, None
            if status == STATUS_FAILED:
                if max_attempts is not None and attempts >= max_attempts:
                    final_status = STATUS_EXHAUSTED
                elif retry_delay_s is not None:
                    retry_at = now + retry_delay_s
            # Each OUTCOME_* constant equals its status name.
            entry: Dict[str, Any] = {"attempt": attempts,
                                     "worker": worker_id,
                                     "outcome": final_status,
                                     "wall_seconds": wall_seconds,
                                     "at": now}
            if error is not None:
                entry["error"] = error
            history.append(entry)
            self._conn.execute(
                "INSERT INTO runs (run_hash, campaign, workload, setup, "
                "environment, objective, seed, spec_json, status, score, "
                "panel_cm2, latency_s, solution_json, stats_json, "
                "failures_json, error, wall_seconds, attempts, updated_at, "
                "obs_json, lease_owner, lease_deadline, retry_at, "
                "attempts_json, front_json) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, "
                "?, 1, ?, ?, NULL, NULL, ?, ?, ?) "
                "ON CONFLICT(run_hash) DO UPDATE SET "
                "status=excluded.status, score=excluded.score, "
                "panel_cm2=excluded.panel_cm2, "
                "latency_s=excluded.latency_s, "
                "solution_json=excluded.solution_json, "
                "stats_json=excluded.stats_json, "
                "failures_json=excluded.failures_json, "
                "error=excluded.error, "
                "wall_seconds=excluded.wall_seconds, "
                "updated_at=excluded.updated_at, "
                "obs_json=excluded.obs_json, "
                "lease_owner=NULL, lease_deadline=NULL, "
                "retry_at=excluded.retry_at, "
                "attempts_json=excluded.attempts_json, "
                "front_json=excluded.front_json",
                (key.run_hash, campaign, key.workload, key.setup,
                 key.environment, key.objective.label(), key.seed,
                 json.dumps(key.as_dict(), sort_keys=True), final_status,
                 score, panel_cm2, latency_s, solution_json, stats_json,
                 failures_json, error, wall_seconds, now, obs_json,
                 retry_at, json.dumps(history), front_json))
            if worker_id is not None:
                column = ("runs_done" if final_status == STATUS_DONE
                          else "runs_failed")
                self._conn.execute(
                    f"UPDATE workers SET {column}={column}+1, "
                    "current_run=NULL WHERE worker_id=?", (worker_id,))
            return final_status

        written = self._with_txn(body)
        if written is None and OBS.enabled:
            OBS.registry.counter("fleet.store.dropped_writes").inc()
        return written

    # -- leases --------------------------------------------------------------

    def claim(self, campaign: str, worker_id: str, *,
              ttl_s: float = DEFAULT_LEASE_TTL_S,
              max_attempts: Optional[int] = None,
              now: Optional[float] = None) -> Optional[StoredRun]:
        """Atomically lease the next executable run to ``worker_id``.

        Claimable rows, in stable grid order: ``pending`` rows,
        ``failed`` rows that still have attempts left and whose backoff
        (``retry_at``) has elapsed, and ``running`` rows whose lease has
        expired (crashed worker — claiming doubles as reaping) and that
        still have attempts left; :meth:`reap_stale` exhausts a spent
        one.  The winning row flips to ``running`` with
        ``lease_deadline = now + ttl_s`` and its attempt counter
        incremented, all in one write transaction, so two workers can
        never claim the same row.

        Returns the claimed row, or ``None`` when nothing is claimable
        right now (which is *not* the same as the campaign being done —
        see :meth:`unfinished_count`).
        """
        _check_seconds("ttl_s", ttl_s)
        now = self._now(now)

        def body() -> Optional[str]:
            row = self._conn.execute(
                "SELECT run_hash, status, lease_owner, attempts, "
                "attempts_json, spec_json FROM runs WHERE campaign=? AND ("
                "status=? "
                "OR (status=? AND (? IS NULL OR attempts<?) "
                "    AND (retry_at IS NULL OR retry_at<=?)) "
                "OR (status=? AND (? IS NULL OR attempts<?) "
                "    AND (lease_deadline IS NULL OR lease_deadline<=?))) "
                "ORDER BY workload, setup, environment, objective, seed "
                "LIMIT 1",
                (campaign, STATUS_PENDING,
                 STATUS_FAILED, max_attempts, max_attempts, now,
                 STATUS_RUNNING, max_attempts, max_attempts,
                 now)).fetchone()
            if row is None:
                return None
            _run_key(row)  # lease only a run its claimant can read back
            # Taking over an expired lease audits the loss.
            history = _attempts(row, lost_at=(
                now if row["status"] == STATUS_RUNNING else None))
            self._conn.execute(
                "UPDATE runs SET status=?, lease_owner=?, lease_deadline=?, "
                "retry_at=NULL, attempts=attempts+1, attempts_json=?, "
                "updated_at=? WHERE run_hash=?",
                (STATUS_RUNNING, worker_id, now + ttl_s,
                 json.dumps(history), now, row["run_hash"]))
            self._conn.execute(
                "UPDATE workers SET current_run=?, last_heartbeat=? "
                "WHERE worker_id=?", (row["run_hash"], now, worker_id))
            return row["run_hash"]

        claimed = self._with_txn(body)
        if claimed is None:
            return None
        if OBS.enabled:
            OBS.registry.counter("fleet.store.claims").inc()
        return self.get(claimed)

    def heartbeat(self, worker_id: str, run_hash: Optional[str] = None, *,
                  ttl_s: float = DEFAULT_LEASE_TTL_S,
                  now: Optional[float] = None) -> bool:
        """Refresh worker liveness and (optionally) extend a run lease.

        The lease deadline is monotonic — it only ever moves forward —
        and extends only while this worker still owns the row.  Returns
        ``False`` if the lease was lost (expired and reclaimed), which
        tells the worker its in-flight result will be dropped.
        """
        _check_seconds("ttl_s", ttl_s)
        now = self._now(now)

        def body() -> bool:
            held = True
            if run_hash is not None:
                cursor = self._conn.execute(
                    "UPDATE runs "
                    "SET lease_deadline=MAX(COALESCE(lease_deadline, 0), ?),"
                    " updated_at=? "
                    "WHERE run_hash=? AND lease_owner=? AND status=?",
                    (now + ttl_s, now, run_hash, worker_id, STATUS_RUNNING))
                held = cursor.rowcount == 1
            self._conn.execute(
                "UPDATE workers SET last_heartbeat=? WHERE worker_id=?",
                (now, worker_id))
            return held

        held = self._with_txn(body)
        if OBS.enabled:
            OBS.registry.counter("fleet.store.heartbeats").inc()
            if not held:
                OBS.registry.counter("fleet.store.lease_lost").inc()
        return held

    def reap_stale(self, campaign: Optional[str] = None, *,
                   max_attempts: Optional[int] = None,
                   now: Optional[float] = None) -> List[str]:
        """Re-queue every ``running`` row whose lease has expired.

        A dead worker's runs come back as ``pending`` (immediately
        claimable — losing a lease is the worker's fault, not the
        run's, so no backoff), or flip straight to ``exhausted`` when
        the row already burned ``max_attempts`` attempts.  Returns the
        reaped run hashes.  Idempotent and safe to call from any
        process: the coordinator does it on a timer, workers do it
        opportunistically when they find nothing to claim.
        """
        now = self._now(now)

        def body() -> List[str]:
            sql = ("SELECT run_hash, attempts, attempts_json, lease_owner "
                   "FROM runs WHERE status=? "
                   "AND (lease_deadline IS NULL OR lease_deadline<=?)")
            params: List[Any] = [STATUS_RUNNING, now]
            if campaign is not None:
                sql += " AND campaign=?"
                params.append(campaign)
            reaped = []
            for row in self._conn.execute(sql, params).fetchall():
                # A spent row is exhausted with the lease loss as its
                # error; a re-queued one keeps the error it had.
                spent = (max_attempts is not None
                         and row["attempts"] >= max_attempts)
                self._conn.execute(
                    "UPDATE runs SET status=?, error=COALESCE(?, error), "
                    "lease_owner=NULL, lease_deadline=NULL, retry_at=NULL, "
                    "attempts_json=?, updated_at=? WHERE run_hash=?",
                    (STATUS_EXHAUSTED if spent else STATUS_PENDING,
                     f"lease expired after {row['attempts']} attempt(s)"
                     if spent else None,
                     json.dumps(_attempts(row, lost_at=now)), now,
                     row["run_hash"]))
                reaped.append(row["run_hash"])
            return reaped

        reaped = self._with_txn(body)
        if reaped and OBS.enabled:
            OBS.registry.counter("fleet.store.reaped").inc(len(reaped))
        return reaped

    def exhaust_spent(self, campaign: str, max_attempts: int,
                      now: Optional[float] = None) -> List[str]:
        """Flip ``failed`` rows with no attempts left to ``exhausted``."""
        now = self._now(now)

        def body() -> List[str]:
            rows = self._conn.execute(
                "SELECT run_hash FROM runs WHERE campaign=? AND status=? "
                "AND attempts>=?",
                (campaign, STATUS_FAILED, max_attempts)).fetchall()
            hashes = [row["run_hash"] for row in rows]
            for run_hash in hashes:
                self._conn.execute(
                    "UPDATE runs SET status=?, retry_at=NULL, updated_at=? "
                    "WHERE run_hash=?", (STATUS_EXHAUSTED, now, run_hash))
            return hashes

        return self._with_txn(body)

    # -- worker registry -----------------------------------------------------

    def register_worker(self, worker_id: str, campaign: str, *,
                        pid: Optional[int] = None,
                        host: Optional[str] = None,
                        lease_ttl_s: Optional[float] = None,
                        now: Optional[float] = None) -> None:
        """Announce a worker (idempotent; re-registering restarts it)."""
        now = self._now(now)
        self._with_txn(lambda: self._conn.execute(
            "INSERT INTO workers (worker_id, campaign, pid, host, "
            "lease_ttl_s, started_at, last_heartbeat, retired_at, "
            "current_run) VALUES (?, ?, ?, ?, ?, ?, ?, NULL, NULL) "
            "ON CONFLICT(worker_id) DO UPDATE SET "
            "campaign=excluded.campaign, pid=excluded.pid, "
            "host=excluded.host, lease_ttl_s=excluded.lease_ttl_s, "
            "started_at=excluded.started_at, "
            "last_heartbeat=excluded.last_heartbeat, "
            "retired_at=NULL, current_run=NULL",
            (worker_id, campaign, pid, host, lease_ttl_s, now, now)))

    def retire_worker(self, worker_id: str,
                      now: Optional[float] = None) -> None:
        """Record a clean worker exit (its row stays for throughput)."""
        now = self._now(now)
        self._with_txn(lambda: self._conn.execute(
            "UPDATE workers SET retired_at=?, last_heartbeat=?, "
            "current_run=NULL WHERE worker_id=?",
            (now, now, worker_id)))

    def workers_status(self, campaign: Optional[str] = None,
                       now: Optional[float] = None) -> List[WorkerStatus]:
        """Every known worker with a liveness verdict, store-only."""
        now = self._now(now)
        sql = "SELECT * FROM workers"
        params: List[str] = []
        if campaign is not None:
            sql += " WHERE campaign=?"
            params.append(campaign)
        sql += " ORDER BY worker_id"

        def worker(row: sqlite3.Row) -> WorkerStatus:
            ttl = row["lease_ttl_s"] or DEFAULT_LEASE_TTL_S
            alive = (row["retired_at"] is None
                     and now - row["last_heartbeat"] <= 2 * ttl)
            return WorkerStatus(
                worker_id=row["worker_id"], campaign=row["campaign"],
                pid=row["pid"], host=row["host"],
                lease_ttl_s=row["lease_ttl_s"],
                started_at=row["started_at"],
                last_heartbeat=row["last_heartbeat"],
                retired_at=row["retired_at"],
                current_run=row["current_run"],
                runs_done=row["runs_done"], runs_failed=row["runs_failed"],
                alive=alive)

        return self._read(sql, params, worker)

    # -- queries -------------------------------------------------------------

    def get(self, run_hash: str) -> Optional[StoredRun]:
        rows = self._read("SELECT * FROM runs WHERE run_hash=?",
                          (run_hash,), self._to_stored)
        return rows[0] if rows else None

    def runs(self, campaign: Optional[str] = None,
             status: Optional[str] = None) -> List[StoredRun]:
        """Rows filtered by campaign and/or status, in stable key order."""
        if status is not None and status not in _STATUSES:
            raise StoreError(
                f"unknown status {status!r}; expected one of {_STATUSES}")
        sql = "SELECT * FROM runs"
        clauses, params = [], []
        if campaign is not None:
            clauses.append("campaign=?")
            params.append(campaign)
        if status is not None:
            clauses.append("status=?")
            params.append(status)
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY workload, setup, environment, objective, seed"
        return self._read(sql, params, self._to_stored)

    def campaigns(self) -> List[str]:
        return self._read("SELECT DISTINCT campaign FROM runs "
                          "ORDER BY campaign", (),
                          lambda row: row["campaign"])

    def status_counts(self, campaign: Optional[str] = None) -> Dict[str, int]:
        """``{status: count}`` with every lifecycle state present."""
        sql = "SELECT status, COUNT(*) AS n FROM runs"
        params: List[str] = []
        if campaign is not None:
            sql += " WHERE campaign=?"
            params.append(campaign)
        sql += " GROUP BY status"
        counts = {status: 0 for status in _STATUSES}
        counts.update(self._read(sql, params,
                                 lambda row: (row["status"], row["n"])))
        return counts

    def unfinished_count(self, campaign: Optional[str] = None) -> int:
        """Rows that still need execution (not ``done``/``exhausted``)."""
        sql = ("SELECT COUNT(*) AS n FROM runs WHERE status NOT IN (?, ?)")
        params: List[str] = [STATUS_DONE, STATUS_EXHAUSTED]
        if campaign is not None:
            sql += " AND campaign=?"
            params.append(campaign)
        return self._read(sql, params, lambda row: row["n"])[0]

    # -- Pareto slices -------------------------------------------------------

    def pareto_points(self, campaign: Optional[str] = None,
                      workload: Optional[str] = None) -> List[ParetoPoint]:
        """(panel cm^2, latency s) points of every finished run.

        Payloads are the :class:`StoredRun` rows, so front points lead
        straight back to their stored solutions.
        """
        points = []
        for run in self.runs(campaign=campaign, status=STATUS_DONE):
            if workload is not None and run.key.workload != workload:
                continue
            if run.panel_cm2 is None or run.latency_s is None:
                continue
            points.append(ParetoPoint(values=(run.panel_cm2, run.latency_s),
                                      payload=run))
        return points

    def pareto_slice(self, campaign: Optional[str] = None,
                     workload: Optional[str] = None) -> List[ParetoPoint]:
        """The non-dominated front of :meth:`pareto_points`."""
        return pareto_front(self.pareto_points(campaign=campaign,
                                               workload=workload))

    # -- row decoding --------------------------------------------------------

    def _to_stored(self, row: sqlite3.Row) -> StoredRun:
        return StoredRun(
            run_hash=row["run_hash"],
            campaign=row["campaign"],
            key=_run_key(row),
            status=row["status"],
            score=row["score"],
            panel_cm2=row["panel_cm2"],
            latency_s=row["latency_s"],
            solution=_decode(row, "solution_json"),
            stats=_decode(row, "stats_json"),
            failures=_decode(row, "failures_json"),
            error=row["error"],
            wall_seconds=row["wall_seconds"],
            attempts=row["attempts"],
            updated_at=row["updated_at"],
            obs=_decode(row, "obs_json"),
            lease_owner=row["lease_owner"],
            lease_deadline=row["lease_deadline"],
            retry_at=row["retry_at"],
            attempt_history=_attempts(row),
            front=_decode(row, "front_json"),
        )
