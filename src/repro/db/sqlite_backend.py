"""SQLite EMEWS DB backend.

The durable engine: the five tables the paper describes for PostgreSQL,
plus the write-once payload/result tables (see :mod:`repro.db.schema`),
on stdlib ``sqlite3``.  One connection is shared across threads behind a
re-entrant lock — worker pools, the EMEWS service, and the ME algorithm
all touch the store concurrently, and SQLite serializes writers anyway,
so a Python-level lock is both necessary (``check_same_thread=False``)
and free of additional contention cost.

Every public operation is one transaction; the pop path uses
``DELETE ... RETURNING``-free portable SQL (select + delete + update in
one ``BEGIN IMMEDIATE`` block) so two pools can never pop the same task.

Throughput tuning (documented trade-offs):

- File-backed stores default to ``PRAGMA journal_mode=WAL`` with
  ``synchronous=NORMAL``: commits append to the write-ahead log instead
  of rewriting pages through a rollback journal, and fsyncs happen at
  WAL checkpoints rather than per transaction.  WAL mode is durable
  against *process* crashes; an OS/power failure can lose the most
  recent commits (the database never corrupts — it rolls back to the
  last checkpointed state).  Task rows are recoverable work, not
  financial ledger entries, so this is the right default; pass
  ``durable=True`` for rollback-journal + ``synchronous=FULL``
  semantics where every commit must survive power loss.
- Batch operations (``create_tasks``, ``report_batch``,
  ``update_priorities``) run set-based SQL / ``executemany`` inside a
  single transaction — one commit per batch, not per row.
- One cursor is cached and reused for every operation (the connection
  and cursor live behind the store lock anyway), keeping the hot
  pop/report path free of per-call cursor allocation; sqlite3's
  per-connection statement cache then makes repeated SQL a lookup, not
  a re-parse.
"""

from __future__ import annotations

import sqlite3
import threading
from collections.abc import Iterable, Mapping, Sequence
from contextlib import contextmanager

from repro.db.backend import TaskStore, normalize_priorities, normalize_profiles
from repro.db.schema import SCHEMA_STATEMENTS, TABLE_NAMES, TaskRow, TaskStatus
from repro.db.waits import WaitRegistry
from repro.telemetry.journal import (
    EV_CANCEL,
    EV_ENQUEUE,
    EV_LEASE_RENEW,
    EV_POP,
    EV_REPORT,
    EV_REQUEUE,
    EV_WITHDRAW,
    ROLE_DB,
    Journal,
    get_journal,
)
from repro.telemetry.metrics import MetricsRegistry, get_metrics
from repro.util.errors import NotFoundError
from repro.util.serialization import json_dumps

# pop_in_any's three statements (json_each: built in since SQLite 3.38).
# CROSS JOIN pins json_each as the outer loop (SQLite never reorders
# it), so rows come out in the caller's array order at one
# emews_queue_in index probe per id.
_WATCHED = (
    " FROM json_each(?) AS j"
    " CROSS JOIN emews_queue_in AS q ON q.eq_task_id = j.value"
)
_READY_IN_SQL = "SELECT q.eq_task_id" + _WATCHED + " ORDER BY j.key"
_CLAIM_IN_SQL = (
    "SELECT q.eq_task_id, r.json_in" + _WATCHED
    + " LEFT JOIN eq_task_in AS r ON r.eq_task_id = q.eq_task_id ORDER BY j.key"
)
_DELETE_IN_SQL = (
    "DELETE FROM emews_queue_in"
    " WHERE eq_task_id IN (SELECT value FROM json_each(?))"
)


def _to_db(text: str) -> str | bytes:
    """``text`` as sqlite3 can bind it.

    sqlite3 binds a ``str`` by strict UTF-8 encoding, which refuses a
    lone surrogate — text that JSON and the wire carry fine.  Such text
    is stored as its ``"utf-8", "surrogatepass"`` bytes (a BLOB, which a
    TEXT column keeps as is) and :func:`_from_db` turns it back.  ASCII
    text, the common case, is returned after one C-level scan.
    """
    if not isinstance(text, str) or text.isascii():
        return text
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return text.encode("utf-8", "surrogatepass")
    return text


def _from_db(value: str | bytes | None) -> str | None:
    """A payload or result column read back (see :func:`_to_db`)."""
    if type(value) is bytes:
        return value.decode("utf-8", "surrogatepass")
    return value


class SqliteTaskStore(TaskStore):
    """EMEWS DB on SQLite (file-backed or ``:memory:``).

    Long-polls wait on :attr:`waits`, the store's
    :class:`~repro.db.waits.WaitRegistry`: each write through this
    object wakes the waits it can satisfy at once, whether they block in
    this process (pools and ME sharing the store object) or are parked
    by a :class:`~repro.core.service.TaskService` in front of it.  A
    write through another connection to the same file (a second handle,
    another process) is seen within :data:`~repro.db.waits.WAIT_POLL`
    seconds, when ``PRAGMA data_version`` says it happened.
    """

    def __init__(
        self,
        path: str = ":memory:",
        metrics: MetricsRegistry | None = None,
        *,
        durable: bool = False,
        journal: Journal | None = None,
    ) -> None:
        registry = metrics if metrics is not None else get_metrics()
        # Flight recorder: resolved per call when not injected, so a
        # later configure_journal() is picked up (tracer discipline).
        self._journal = journal
        self._m_lease_renewals = registry.counter(
            "db.lease_renewals", "task leases extended by a heartbeat"
        )
        self._m_lease_requeues = registry.counter(
            "db.lease_requeues", "expired-lease tasks requeued by a reaper sweep"
        )
        self._m_report_withdrawals = registry.counter(
            "db.report_withdrawals",
            "requeued copies withdrawn because the original report landed",
        )
        self._path = path
        self._durable = durable
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._conn.isolation_level = None  # explicit transaction control
        # One cached cursor serves every operation: all access is
        # serialized behind the store lock and every query fetches
        # eagerly, so reuse is safe and the hot pop/report path skips a
        # cursor allocation per call.
        self._cursor = self._conn.cursor()
        if not durable and path != ":memory:":
            # WAL + NORMAL: commit = one WAL append, fsync deferred to
            # checkpoints.  See the module docstring for the durability
            # trade-off; ``durable=True`` opts back out.  ``:memory:``
            # databases have no journal to tune.
            self._cursor.execute("PRAGMA journal_mode=WAL")
            self._cursor.fetchall()
            self._cursor.execute("PRAGMA synchronous=NORMAL")
        with self._txn() as cur:
            # Pre-lease database files lack the lease_expiry column;
            # CREATE TABLE IF NOT EXISTS won't add it, so migrate first
            # (reattaching to a durable file is a supported fault path).
            cur.execute("PRAGMA table_info(eq_tasks)")
            columns = {row[1] for row in cur.fetchall()}
            if columns and "lease_expiry" not in columns:
                cur.execute("ALTER TABLE eq_tasks ADD COLUMN lease_expiry REAL")
            if columns and "eq_priority" not in columns:
                # Pre-sticky-priority files: backfill the task-row copy
                # of the priority (0 matches the old requeue behavior
                # for existing rows; queued rows keep their live
                # emews_queue_out priority regardless).
                cur.execute(
                    "ALTER TABLE eq_tasks ADD COLUMN eq_priority"
                    " INTEGER NOT NULL DEFAULT 0"
                )
            for stmt in SCHEMA_STATEMENTS:
                cur.execute(stmt)
            if "json_out" in columns:
                # Files from before the write-once text tables keep the
                # payload and result inside eq_tasks: move them beside
                # it, then drop the columns (SQLite >= 3.35).
                cur.execute(
                    "INSERT INTO eq_task_out (eq_task_id, json_out)"
                    " SELECT eq_task_id, json_out FROM eq_tasks"
                )
                cur.execute(
                    "INSERT INTO eq_task_in (eq_task_id, json_in)"
                    " SELECT eq_task_id, json_in FROM eq_tasks"
                    " WHERE json_in IS NOT NULL"
                )
                cur.execute("ALTER TABLE eq_tasks DROP COLUMN json_out")
                cur.execute("ALTER TABLE eq_tasks DROP COLUMN json_in")
        self._closed = False
        self.waits = WaitRegistry(self._lock, self._data_version)

    @property
    def path(self) -> str:
        """The database file path (``:memory:`` for transient stores)."""
        return self._path

    @property
    def durable(self) -> bool:
        """True when the store runs rollback-journal + synchronous=FULL
        (the ``durable=True`` opt-out of the WAL default)."""
        return self._durable

    @contextmanager
    def _txn(self):
        """One locked transaction; rolls back on error, commits on success."""
        with self._lock:
            cur = self._cursor
            try:
                cur.execute("BEGIN IMMEDIATE")
                yield cur
                cur.execute("COMMIT")
            except BaseException:
                cur.execute("ROLLBACK")
                raise

    @contextmanager
    def _read(self):
        """A locked read-only cursor (no transaction frame needed)."""
        with self._lock:
            yield self._cursor

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("store is closed")

    def _data_version(self) -> int:
        """``PRAGMA data_version``: moves when another connection
        commits to the file (the wait registry's probe; under the lock)."""
        self._cursor.execute("PRAGMA data_version")
        return int(self._cursor.fetchone()[0])

    def _jrnl(self) -> Journal:
        return self._journal if self._journal is not None else get_journal()

    # -- task creation -----------------------------------------------------

    def create_tasks(
        self,
        exp_id: str,
        eq_type: int,
        payloads: Sequence[str],
        *,
        priority: int | Sequence[int] = 0,
        tag: str | None = None,
        time_created: float = 0.0,
    ) -> list[int]:
        self._check_open()
        priorities = normalize_priorities(len(payloads), priority)
        if not payloads:
            return []
        with self._txn() as cur:
            # Pre-allocate the id range so every table loads via one
            # executemany instead of four round trips per task.
            # eq_task_id is the rowid (INTEGER PRIMARY KEY), so explicit
            # MAX+1.. ids keep later implicit allocation consistent.
            cur.execute("SELECT COALESCE(MAX(eq_task_id), 0) FROM eq_tasks")
            next_id = int(cur.fetchone()[0]) + 1
            ids = list(range(next_id, next_id + len(payloads)))
            cur.executemany(
                "INSERT INTO eq_tasks (eq_task_id, eq_task_type, eq_status,"
                " time_created, eq_priority) VALUES (?, ?, ?, ?, ?)",
                [
                    (tid, eq_type, int(TaskStatus.QUEUED), time_created, pr)
                    for tid, pr in zip(ids, priorities)
                ],
            )
            cur.executemany(
                "INSERT INTO eq_task_out (eq_task_id, json_out) VALUES (?, ?)",
                zip(ids, map(_to_db, payloads)),
            )
            cur.executemany(
                "INSERT INTO eq_exp_id_tasks (exp_id, eq_task_id) VALUES (?, ?)",
                [(exp_id, tid) for tid in ids],
            )
            if tag is not None:
                cur.executemany(
                    "INSERT INTO eq_task_tags (eq_task_id, tag) VALUES (?, ?)",
                    [(tid, tag) for tid in ids],
                )
            cur.executemany(
                "INSERT INTO emews_queue_out (eq_task_id, eq_task_type, eq_priority)"
                " VALUES (?, ?, ?)",
                [(tid, eq_type, pr) for tid, pr in zip(ids, priorities)],
            )
            self.waits.queued(eq_type, time_created)
            journal = self._jrnl()
            if journal.enabled:
                for tid, pr in zip(ids, priorities):
                    journal.emit(
                        EV_ENQUEUE, tid, role=ROLE_DB, work_type=eq_type,
                        time=time_created,
                        extra={"exp_id": exp_id, "priority": pr},
                    )
            return ids

    # -- output queue --------------------------------------------------------

    def pop_out(
        self,
        eq_type: int,
        n: int = 1,
        *,
        worker_pool: str = "default",
        now: float = 0.0,
        lease: float | None = None,
        wait: float | None = None,
    ) -> list[tuple[int, str]]:
        self._check_open()
        if n < 1:
            return []
        if wait is None or wait <= 0:
            return self._claim_out(eq_type, n, worker_pool, now, lease)
        return self.waits.wait(
            lambda mark: self._claim_out(
                eq_type, n, worker_pool, now if mark is None else max(now, mark),
                lease,
            ),
            wait, eq_type=eq_type,
        )

    def _claim_out(
        self,
        eq_type: int,
        n: int,
        worker_pool: str,
        now: float,
        lease: float | None,
    ) -> list[tuple[int, str]]:
        """One claim attempt: a single ``BEGIN IMMEDIATE`` transaction."""
        lease_expiry = None if lease is None else now + lease
        with self._txn() as cur:
            cur.execute(
                "SELECT eq_task_id FROM emews_queue_out WHERE eq_task_type = ?"
                " ORDER BY eq_priority DESC, eq_task_id ASC LIMIT ?",
                (eq_type, n),
            )
            ids = [row[0] for row in cur.fetchall()]
            if not ids:
                return []
            marks = ",".join("?" for _ in ids)
            cur.execute(
                f"DELETE FROM emews_queue_out WHERE eq_task_id IN ({marks})", ids
            )
            cur.execute(
                f"UPDATE eq_tasks SET eq_status = ?, time_start = ?, worker_pool = ?,"
                f" lease_expiry = ? WHERE eq_task_id IN ({marks})",
                [int(TaskStatus.RUNNING), now, worker_pool, lease_expiry, *ids],
            )
            cur.execute(
                f"SELECT eq_task_id, json_out FROM eq_task_out"
                f" WHERE eq_task_id IN ({marks})",
                ids,
            )
            by_id = dict(cur.fetchall())
            journal = self._jrnl()
            if journal.enabled:
                for tid in ids:
                    journal.emit(
                        EV_POP, tid, role=ROLE_DB, work_type=eq_type,
                        time=now, source=worker_pool,
                        extra=None if lease is None else {"lease": lease},
                    )
            # Preserve priority pop order, not id order.
            return [(tid, _from_db(by_id[tid])) for tid in ids]

    def queue_out_length(self, eq_type: int | None = None) -> int:
        with self._read() as cur:
            if eq_type is None:
                cur.execute("SELECT COUNT(*) FROM emews_queue_out")
            else:
                cur.execute(
                    "SELECT COUNT(*) FROM emews_queue_out WHERE eq_task_type = ?",
                    (eq_type,),
                )
            return int(cur.fetchone()[0])

    # -- input queue ----------------------------------------------------------

    def report_batch(
        self,
        reports: Sequence[tuple[int, int, str]],
        *,
        now: float = 0.0,
        profiles: Mapping[int, dict] | None = None,
    ) -> None:
        self._check_open()
        if not reports:
            return
        ids = [tid for tid, _, _ in reports]
        marks = ",".join("?" for _ in ids)
        with self._txn() as cur:
            cur.execute(
                f"SELECT eq_task_id, eq_status FROM eq_tasks"
                f" WHERE eq_task_id IN ({marks})",
                ids,
            )
            status_by_id = dict(cur.fetchall())
            missing = sorted({tid for tid in ids if tid not in status_by_id})
            missing_set = set(missing)
            # First write wins — across the batch and within it: skip
            # already-COMPLETE rows and duplicate ids after their first
            # occurrence, so a retried or duplicate report can neither
            # overwrite the stored result nor enqueue a second
            # input-queue row — and the result text is written once.
            fresh: list[tuple[int, int, str]] = []
            seen: set[int] = set()
            for tid, eq_type, result in reports:
                if tid in seen or tid in missing_set:
                    continue
                seen.add(tid)
                if status_by_id[tid] != int(TaskStatus.COMPLETE):
                    fresh.append((tid, eq_type, result))
            if fresh:
                journal = self._jrnl()
                withdrawn: set[int] = set()
                if journal.enabled:
                    # Which of these reports will withdraw a requeued
                    # copy?  Only knowable before the DELETE — gated on
                    # the journal so the hot path pays nothing extra.
                    fmarks = ",".join("?" for _ in fresh)
                    cur.execute(
                        f"SELECT eq_task_id FROM emews_queue_out"
                        f" WHERE eq_task_id IN ({fmarks})",
                        [tid for tid, _, _ in fresh],
                    )
                    withdrawn = {row[0] for row in cur.fetchall()}
                    # ... and the reporting pool, for the report event.
                    cur.execute(
                        f"SELECT eq_task_id, worker_pool FROM eq_tasks"
                        f" WHERE eq_task_id IN ({fmarks})",
                        [tid for tid, _, _ in fresh],
                    )
                    pool_by_id = dict(cur.fetchall())
                cur.executemany(
                    "UPDATE eq_tasks SET eq_status = ?, time_stop = ?,"
                    " lease_expiry = NULL WHERE eq_task_id = ?",
                    [(int(TaskStatus.COMPLETE), now, tid) for tid, _, _ in fresh],
                )
                cur.executemany(
                    "INSERT INTO eq_task_in (eq_task_id, json_in) VALUES (?, ?)",
                    [(tid, _to_db(result)) for tid, _, result in fresh],
                )
                # If a task was requeued (lease expiry racing a slow
                # pool's report), withdraw the queued copy — the output
                # queue must hold only QUEUED tasks, and the result
                # makes re-execution pointless.
                fmarks = ",".join("?" for _ in fresh)
                cur.execute(
                    f"DELETE FROM emews_queue_out WHERE eq_task_id IN ({fmarks})",
                    [tid for tid, _, _ in fresh],
                )
                if cur.rowcount:
                    self._m_report_withdrawals.inc(cur.rowcount)
                cur.executemany(
                    "INSERT INTO emews_queue_in (eq_task_id, eq_task_type)"
                    " VALUES (?, ?)",
                    [(tid, eq_type) for tid, eq_type, _ in fresh],
                )
                self.waits.reported(tid for tid, _, _ in fresh)
                if journal.enabled:
                    profile_by_id = normalize_profiles(profiles)
                    for tid, eq_type, _ in fresh:
                        if tid in withdrawn:
                            journal.emit(
                                EV_WITHDRAW, tid, role=ROLE_DB,
                                work_type=eq_type, time=now,
                            )
                        profile = profile_by_id.get(tid)
                        journal.emit(
                            EV_REPORT, tid, role=ROLE_DB, work_type=eq_type,
                            time=now, source=pool_by_id.get(tid) or "",
                            extra={"profile": profile} if profile else None,
                        )
        if missing:
            raise NotFoundError(f"no task(s) with id(s) {missing}")

    def pop_in_any(
        self,
        eq_task_ids: Iterable[int],
        limit: int | None = None,
        *,
        wait: float | None = None,
    ) -> list[tuple[int, str]]:
        self._check_open()
        ids = list(eq_task_ids)
        if not ids:
            return []
        if limit is not None and limit <= 0:
            return []
        if wait is None or wait <= 0:
            return self._claim_in(ids, limit)
        return self.waits.wait(lambda _mark: self._claim_in(ids, limit), wait, ids=ids)

    def _claim_in(
        self, ids: list[int], limit: int | None
    ) -> list[tuple[int, str]]:
        """One claim attempt: a peek outside any transaction, then one
        transaction that claims what is still ready."""
        # The watch list travels as ONE bound JSON array, so the
        # statement text (and sqlite3's cached prepared statement) is
        # the same for any list length.  json_each drives the join in
        # array order, one index probe per watched id.
        with self._read() as cur:
            # Peek outside any transaction: an empty try (a long-poll's
            # first, most often) must not take the database write lock.
            cur.execute(_READY_IN_SQL, (json_dumps(ids),))
            # Caller order; a repeated id counts once.
            ready = list(dict.fromkeys(row[0] for row in cur.fetchall()))[:limit]
            if not ready:
                return []
            chosen = json_dumps(ready)
            with self._txn() as cur:
                # The claim re-reads under the write lock: another
                # handle on this file may have popped some of ``ready``
                # since the peek, and what this SELECT still sees is
                # exactly what the DELETE below removes.
                cur.execute(_CLAIM_IN_SQL, (chosen,))
                claimed = cur.fetchall()
                cur.execute(_DELETE_IN_SQL, (chosen,))
            return [
                (tid, _from_db(res) if res is not None else "") for tid, res in claimed
            ]

    def queue_in_length(self) -> int:
        with self._read() as cur:
            cur.execute("SELECT COUNT(*) FROM emews_queue_in")
            return int(cur.fetchone()[0])

    # -- status / priority / cancellation --------------------------------------

    def get_task(self, eq_task_id: int) -> TaskRow:
        self._check_open()
        with self._read() as cur:
            cur.execute(
                "SELECT t.eq_task_id, eq_task_type, eq_status, worker_pool,"
                " o.json_out, i.json_in, time_created, time_start, time_stop,"
                " lease_expiry, eq_priority FROM eq_tasks AS t"
                " LEFT JOIN eq_task_out AS o ON o.eq_task_id = t.eq_task_id"
                " LEFT JOIN eq_task_in AS i ON i.eq_task_id = t.eq_task_id"
                " WHERE t.eq_task_id = ?",
                (eq_task_id,),
            )
            row = cur.fetchone()
            if row is None:
                raise NotFoundError(f"no task with id {eq_task_id}")
            cur.execute(
                "SELECT tag FROM eq_task_tags WHERE eq_task_id = ?", (eq_task_id,)
            )
            tags = [r[0] for r in cur.fetchall()]
        return TaskRow(
            eq_task_id=row[0],
            eq_task_type=row[1],
            eq_status=TaskStatus(row[2]),
            worker_pool=row[3],
            json_out=_from_db(row[4]),
            json_in=_from_db(row[5]),
            time_created=row[6],
            time_start=row[7],
            time_stop=row[8],
            lease_expiry=row[9],
            eq_priority=row[10],
            tags=tags,
        )

    def get_statuses(self, eq_task_ids: Sequence[int]) -> list[tuple[int, TaskStatus]]:
        if not eq_task_ids:
            return []
        marks = ",".join("?" for _ in eq_task_ids)
        with self._read() as cur:
            cur.execute(
                f"SELECT eq_task_id, eq_status FROM eq_tasks WHERE eq_task_id IN ({marks})",
                list(eq_task_ids),
            )
            by_id = dict(cur.fetchall())
        return [
            (tid, TaskStatus(by_id[tid])) for tid in eq_task_ids if tid in by_id
        ]

    def get_priorities(self, eq_task_ids: Sequence[int]) -> list[tuple[int, int]]:
        if not eq_task_ids:
            return []
        marks = ",".join("?" for _ in eq_task_ids)
        with self._read() as cur:
            cur.execute(
                f"SELECT eq_task_id, eq_priority FROM emews_queue_out"
                f" WHERE eq_task_id IN ({marks})",
                list(eq_task_ids),
            )
            by_id = dict(cur.fetchall())
        return [(tid, by_id[tid]) for tid in eq_task_ids if tid in by_id]

    def update_priorities(
        self, eq_task_ids: Sequence[int], priorities: int | Sequence[int]
    ) -> int:
        self._check_open()
        values = normalize_priorities(len(eq_task_ids), priorities)
        if not eq_task_ids:
            return 0
        with self._txn() as cur:
            # executemany accumulates rowcount across the parameter set,
            # so one statement replaces the per-task UPDATE loop (the
            # GPR reprioritization touches hundreds of tasks at a time).
            cur.executemany(
                "UPDATE emews_queue_out SET eq_priority = ? WHERE eq_task_id = ?",
                [(priority, tid) for tid, priority in zip(eq_task_ids, values)],
            )
            changed = max(cur.rowcount, 0)
            # Keep the sticky task-row priority in sync for rows that
            # actually changed (i.e. were still queued), so a later
            # fault-recovery requeue restores the updated value.
            cur.executemany(
                "UPDATE eq_tasks SET eq_priority = ? WHERE eq_task_id = ?"
                " AND EXISTS (SELECT 1 FROM emews_queue_out o"
                "             WHERE o.eq_task_id = eq_tasks.eq_task_id)",
                [(priority, tid) for tid, priority in zip(eq_task_ids, values)],
            )
            return changed

    def cancel_tasks(self, eq_task_ids: Sequence[int]) -> int:
        self._check_open()
        if not eq_task_ids:
            return 0
        marks = ",".join("?" for _ in eq_task_ids)
        ids = list(eq_task_ids)
        with self._txn() as cur:
            cur.execute(
                f"SELECT eq_task_id, eq_task_type FROM emews_queue_out"
                f" WHERE eq_task_id IN ({marks}) ORDER BY eq_task_id",
                ids,
            )
            canceled = cur.fetchall()
            if not canceled:
                return 0
            queued = [row[0] for row in canceled]
            qmarks = ",".join("?" for _ in queued)
            cur.execute(
                f"DELETE FROM emews_queue_out WHERE eq_task_id IN ({qmarks})", queued
            )
            cur.execute(
                f"UPDATE eq_tasks SET eq_status = ? WHERE eq_task_id IN ({qmarks})",
                [int(TaskStatus.CANCELED), *queued],
            )
            journal = self._jrnl()
            if journal.enabled:
                for tid, eq_type in canceled:
                    journal.emit(EV_CANCEL, tid, role=ROLE_DB, work_type=eq_type)
            return len(queued)

    def requeue(self, eq_task_id: int, *, priority: int | None = None) -> bool:
        self._check_open()
        with self._txn() as cur:
            cur.execute(
                "SELECT eq_task_type, eq_status, eq_priority FROM eq_tasks"
                " WHERE eq_task_id = ?",
                (eq_task_id,),
            )
            row = cur.fetchone()
            if row is None:
                raise NotFoundError(f"no task with id {eq_task_id}")
            eq_type, status, sticky = row
            if TaskStatus(status) != TaskStatus.RUNNING:
                return False
            effective = sticky if priority is None else priority
            self._requeue_in_txn(cur, eq_task_id, eq_type, effective)
            return True

    def _requeue_in_txn(
        self,
        cur: sqlite3.Cursor,
        eq_task_id: int,
        eq_type: int,
        priority: int,
        *,
        now: float | None = None,
    ) -> None:
        """Move a RUNNING row back to QUEUED (call inside a transaction).

        ``priority`` is already resolved by the caller (sticky value or
        an explicit override); it becomes the row's new sticky priority.
        """
        journal = self._jrnl()
        source = ""
        if journal.enabled:
            cur.execute(
                "SELECT worker_pool FROM eq_tasks WHERE eq_task_id = ?",
                (eq_task_id,),
            )
            pool_row = cur.fetchone()
            source = pool_row[0] if pool_row and pool_row[0] else ""
        cur.execute(
            "UPDATE eq_tasks SET eq_status = ?, worker_pool = NULL,"
            " time_start = NULL, lease_expiry = NULL, eq_priority = ?"
            " WHERE eq_task_id = ?",
            (int(TaskStatus.QUEUED), priority, eq_task_id),
        )
        cur.execute(
            "INSERT INTO emews_queue_out (eq_task_id, eq_task_type, eq_priority)"
            " VALUES (?, ?, ?)",
            (eq_task_id, eq_type, priority),
        )
        self.waits.queued(eq_type, now)
        if journal.enabled:
            journal.emit(
                EV_REQUEUE, eq_task_id, role=ROLE_DB, work_type=eq_type,
                time=now, source=source,
                extra={"priority": priority},
            )

    # -- leases ------------------------------------------------------------------

    def renew_leases(
        self, eq_task_ids: Sequence[int], *, now: float, lease: float
    ) -> int:
        self._check_open()
        ids = list(eq_task_ids)
        if not ids:
            return 0
        marks = ",".join("?" for _ in ids)
        with self._txn() as cur:
            journal = self._jrnl()
            renewed_rows: list[tuple[int, int, str | None]] = []
            if journal.enabled:
                # Which ids will actually renew?  The UPDATE's rowcount
                # can't say per-id, so look first — gated on the journal
                # to keep the heartbeat hot path one statement.
                cur.execute(
                    f"SELECT eq_task_id, eq_task_type, worker_pool FROM eq_tasks"
                    f" WHERE eq_task_id IN ({marks}) AND eq_status = ?",
                    [*ids, int(TaskStatus.RUNNING)],
                )
                renewed_rows = cur.fetchall()
            cur.execute(
                f"UPDATE eq_tasks SET lease_expiry = ?"
                f" WHERE eq_task_id IN ({marks}) AND eq_status = ?",
                [now + lease, *ids, int(TaskStatus.RUNNING)],
            )
            renewed = cur.rowcount
            if renewed:
                self._m_lease_renewals.inc(renewed)
            if journal.enabled:
                for tid, eq_type, pool in renewed_rows:
                    journal.emit(
                        EV_LEASE_RENEW, tid, role=ROLE_DB, work_type=eq_type,
                        time=now, source=pool or "",
                    )
            return renewed

    def requeue_expired(
        self, *, now: float, priority: int | None = None
    ) -> list[int]:
        self._check_open()
        with self._txn() as cur:
            cur.execute(
                "SELECT eq_task_id, eq_task_type, eq_priority FROM eq_tasks"
                " WHERE eq_status = ? AND lease_expiry IS NOT NULL"
                " AND lease_expiry <= ? ORDER BY eq_task_id",
                (int(TaskStatus.RUNNING), now),
            )
            expired = cur.fetchall()
            for eq_task_id, eq_type, sticky in expired:
                effective = sticky if priority is None else priority
                self._requeue_in_txn(cur, eq_task_id, eq_type, effective, now=now)
            if expired:
                self._m_lease_requeues.inc(len(expired))
            return [eq_task_id for eq_task_id, _, _ in expired]

    # -- monitoring ---------------------------------------------------------------

    def stats(self, *, now: float = 0.0) -> dict:
        self._check_open()
        with self._read() as cur:
            cur.execute("SELECT eq_status, COUNT(*) FROM eq_tasks GROUP BY eq_status")
            raw_status = dict(cur.fetchall())
            cur.execute(
                "SELECT eq_task_type, COUNT(*) FROM emews_queue_out"
                " GROUP BY eq_task_type"
            )
            queue_out = {str(eq_type): int(n) for eq_type, n in cur.fetchall()}
            cur.execute("SELECT COUNT(*) FROM emews_queue_in")
            queue_in = int(cur.fetchone()[0])
            cur.execute(
                "SELECT"
                " SUM(CASE WHEN lease_expiry IS NULL THEN 1 ELSE 0 END),"
                " SUM(CASE WHEN lease_expiry > ? THEN 1 ELSE 0 END),"
                " SUM(CASE WHEN lease_expiry IS NOT NULL AND lease_expiry <= ?"
                "      THEN 1 ELSE 0 END)"
                " FROM eq_tasks WHERE eq_status = ?",
                (now, now, int(TaskStatus.RUNNING)),
            )
            unleased, active, expired = (int(v or 0) for v in cur.fetchone())
        by_status = {
            status.label(): int(raw_status.get(int(status), 0))
            for status in TaskStatus
        }
        return {
            "tasks": {**by_status, "total": sum(by_status.values())},
            "queue_out": queue_out,
            "queue_out_total": sum(queue_out.values()),
            "queue_in": queue_in,
            "leases": {
                "active": active,
                "expired": expired,
                "unleased_running": unleased,
            },
        }

    # -- experiment / tag queries ------------------------------------------------

    def tasks_for_experiment(self, exp_id: str) -> list[int]:
        with self._read() as cur:
            cur.execute(
                "SELECT eq_task_id FROM eq_exp_id_tasks WHERE exp_id = ?"
                " ORDER BY eq_task_id",
                (exp_id,),
            )
            return [row[0] for row in cur.fetchall()]

    def tasks_for_tag(self, tag: str) -> list[int]:
        with self._read() as cur:
            cur.execute(
                "SELECT eq_task_id FROM eq_task_tags WHERE tag = ? ORDER BY eq_task_id",
                (tag,),
            )
            return [row[0] for row in cur.fetchall()]

    # -- maintenance ----------------------------------------------------------------

    def max_task_id(self) -> int:
        with self._read() as cur:
            cur.execute("SELECT COALESCE(MAX(eq_task_id), 0) FROM eq_tasks")
            return int(cur.fetchone()[0])

    def clear(self) -> None:
        self._check_open()
        with self._txn() as cur:
            for table in TABLE_NAMES:
                cur.execute(f"DELETE FROM {table}")

    def wake_waiters(self) -> None:
        """Unblock every blocking long-poll now; woken waits return empty."""
        self.waits.wake_all()

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._closed = True
                # Blocked long-polls raise instead of sleeping out their
                # deadline.
                self.waits.close()
                self._conn.close()
