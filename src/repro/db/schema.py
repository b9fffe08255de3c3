"""EMEWS DB schema (paper §IV-C).

The paper's five tables, linked by the shared integer task identifier:

- ``eq_tasks`` — one row per task: identifier, work type, status, the
  owning worker pool, and creation / start / stop timestamps (plus the
  lease and sticky-priority columns of the fault-tolerance layer).
- ``emews_queue_out`` — the output queue tasks are popped from for
  execution: task id, work type, priority.
- ``emews_queue_in`` — the input queue completed results are pushed to:
  task id, work type.
- ``eq_exp_id_tasks`` — links tasks to experiment identifiers.
- ``eq_task_tags`` — links tasks to metadata tag strings.

Three more, each keyed by what it caches or stores:

- ``eq_task_cache`` — the content-addressed result cache.
- ``eq_task_out`` / ``eq_task_in`` — the task's outbound payload
  (``json_out``) and its result (``json_in``), each written once: the
  payload at create, the result by the report that completes the task.
  The paper keeps both in the task row; here they live beside it, keyed
  by task id, because every state change (pop, report, requeue, lease
  renewal) rewrites the task row — and SQLite rewrites a whole record,
  overflow pages included, whenever an update changes its size.  With
  a 64 KiB payload in the row, a pop appended 36 WAL frames; with the
  text beside it, a pop updates a row of about 50 bytes and appends 3.
  ``TaskRow`` still carries both columns: the split is storage, not
  contract.

Column names follow the open-source EQ/SQL implementation the paper
describes so the schema reads as the original would.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class TaskStatus(enum.IntEnum):
    """Lifecycle of a task (paper: queued, running, complete, canceled)."""

    QUEUED = 0
    RUNNING = 1
    COMPLETE = 2
    CANCELED = 3

    def label(self) -> str:
        """Lower-case display name matching the paper's vocabulary."""
        return self.name.lower()


@dataclass
class TaskRow:
    """A task: its ``eq_tasks`` row with its text joined back in.

    ``json_out`` is the payload sent *out* to worker pools (simulation
    input parameters); ``json_in`` is the result coming back *in*
    (``None`` until a report lands).
    """

    eq_task_id: int
    eq_task_type: int
    eq_status: TaskStatus = TaskStatus.QUEUED
    worker_pool: str | None = None
    json_out: str = ""
    json_in: str | None = None
    time_created: float = 0.0
    time_start: float | None = None
    time_stop: float | None = None
    #: Fault-tolerance lease: a RUNNING task whose lease expires without
    #: renewal is presumed lost with its pool and eligible for automatic
    #: requeue.  ``None`` means the task runs unleased (never reaped).
    lease_expiry: float | None = None
    #: Sticky copy of the task's current priority.  ``emews_queue_out``
    #: rows are deleted on pop, so without this the priority would be
    #: unrecoverable at requeue time and fault recovery would silently
    #: demote reprioritized tasks back to 0.  Kept in sync by
    #: ``create``, ``update_priorities``, and explicit-priority requeues.
    eq_priority: int = 0
    tags: list[str] = field(default_factory=list)

    def runtime(self) -> float | None:
        """Execution duration, once the task has started and stopped."""
        if self.time_start is None or self.time_stop is None:
            return None
        return self.time_stop - self.time_start


# DDL for SQL backends.  Kept as data so tests can assert the table
# structure and so alternative SQL engines could reuse it unchanged.
SCHEMA_STATEMENTS: tuple[str, ...] = (
    """
    CREATE TABLE IF NOT EXISTS eq_tasks (
        eq_task_id   INTEGER PRIMARY KEY,
        eq_task_type INTEGER NOT NULL,
        eq_status    INTEGER NOT NULL DEFAULT 0,
        worker_pool  TEXT,
        time_created REAL NOT NULL,
        time_start   REAL,
        time_stop    REAL,
        lease_expiry REAL,
        eq_priority  INTEGER NOT NULL DEFAULT 0
    )
    """,
    # Write-once task text (see the module docstring for why it is not
    # in eq_tasks).  A row of eq_task_in exists iff a report landed.
    """
    CREATE TABLE IF NOT EXISTS eq_task_out (
        eq_task_id INTEGER PRIMARY KEY REFERENCES eq_tasks(eq_task_id),
        json_out   TEXT NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS eq_task_in (
        eq_task_id INTEGER PRIMARY KEY REFERENCES eq_tasks(eq_task_id),
        json_in    TEXT NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS eq_exp_id_tasks (
        exp_id     TEXT NOT NULL,
        eq_task_id INTEGER NOT NULL REFERENCES eq_tasks(eq_task_id)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS eq_task_tags (
        eq_task_id INTEGER NOT NULL REFERENCES eq_tasks(eq_task_id),
        tag        TEXT NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS emews_queue_out (
        eq_task_id   INTEGER NOT NULL REFERENCES eq_tasks(eq_task_id),
        eq_task_type INTEGER NOT NULL,
        eq_priority  INTEGER NOT NULL DEFAULT 0
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS emews_queue_in (
        eq_task_id   INTEGER NOT NULL REFERENCES eq_tasks(eq_task_id),
        eq_task_type INTEGER NOT NULL
    )
    """,
    # Pop order is (priority DESC, eq_task_id ASC) filtered by work type;
    # this index makes the hot pop path a range scan.
    """
    CREATE INDEX IF NOT EXISTS idx_queue_out_pop
        ON emews_queue_out (eq_task_type, eq_priority DESC, eq_task_id ASC)
    """,
    """
    CREATE INDEX IF NOT EXISTS idx_queue_in_task
        ON emews_queue_in (eq_task_id)
    """,
    # Every by-id statement on the output queue — the pop's DELETE, a
    # report's withdraw, reprioritize, cancel, requeue — is a lookup,
    # not a scan of the queue.  Files without it gain it on open (the
    # open path replays every statement here).
    """
    CREATE INDEX IF NOT EXISTS idx_queue_out_task
        ON emews_queue_out (eq_task_id)
    """,
    """
    CREATE INDEX IF NOT EXISTS idx_exp_tasks
        ON eq_exp_id_tasks (exp_id)
    """,
    """
    CREATE INDEX IF NOT EXISTS idx_task_tags
        ON eq_task_tags (tag)
    """,
    # The lease reaper scans for expired RUNNING tasks; the partial
    # index keeps that scan proportional to the leased set, not the
    # full task table.
    """
    CREATE INDEX IF NOT EXISTS idx_lease_expiry
        ON eq_tasks (lease_expiry) WHERE lease_expiry IS NOT NULL
    """,
    # Content-addressed result cache.  One row per distinct task content
    # hash (see ``repro.util.serialization.cache_key``); ``last_used``
    # is a monotonically assigned use counter driving LRU eviction, and
    # ``expiry`` (absolute store time, NULL = no TTL) drives expiry.
    # Existing database files pick the table up automatically: the
    # migration path replays every SCHEMA_STATEMENT and this is
    # ``IF NOT EXISTS``.
    """
    CREATE TABLE IF NOT EXISTS eq_task_cache (
        cache_key    TEXT PRIMARY KEY,
        eq_task_type INTEGER NOT NULL,
        result       TEXT NOT NULL,
        time_created REAL NOT NULL,
        expiry       REAL,
        last_used    INTEGER NOT NULL DEFAULT 0
    )
    """,
    # LRU eviction deletes the lowest last_used rows; keep that a range
    # scan rather than a full-table sort.
    """
    CREATE INDEX IF NOT EXISTS idx_task_cache_lru
        ON eq_task_cache (last_used)
    """,
)

TABLE_NAMES: tuple[str, ...] = (
    "eq_tasks",
    "eq_task_out",
    "eq_task_in",
    "eq_exp_id_tasks",
    "eq_task_tags",
    "emews_queue_out",
    "emews_queue_in",
    "eq_task_cache",
)
