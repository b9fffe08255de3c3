"""The SQLite store's write-once text tables.

Task payloads (``json_out``) and results (``json_in``) live in
``eq_task_out`` / ``eq_task_in`` beside ``eq_tasks``, each written once.
Pinned here: files in the old layout (text inside ``eq_tasks``) reopen
with every row, result, queue and priority intact; ``clear()`` empties
the side tables; any text the wire carries, lone surrogates included,
is stored and read back; and the point of the split — a state change no longer
rewrites the payload — as a deterministic count of WAL frames per op.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.db import SqliteTaskStore
from repro.db.schema import TaskStatus

# The task table as it was while the text lived in it, and the other
# four tables of the paper; written verbatim so the test does not depend
# on what the current DDL says.
_OLD_DDL = (
    """
    CREATE TABLE eq_tasks (
        eq_task_id   INTEGER PRIMARY KEY,
        eq_task_type INTEGER NOT NULL,
        eq_status    INTEGER NOT NULL DEFAULT 0,
        worker_pool  TEXT,
        json_out     TEXT NOT NULL,
        json_in      TEXT,
        time_created REAL NOT NULL,
        time_start   REAL,
        time_stop    REAL,
        lease_expiry REAL,
        eq_priority  INTEGER NOT NULL DEFAULT 0
    )
    """,
    "CREATE TABLE eq_exp_id_tasks (exp_id TEXT NOT NULL, eq_task_id INTEGER NOT NULL)",
    "CREATE TABLE eq_task_tags (eq_task_id INTEGER NOT NULL, tag TEXT NOT NULL)",
    """
    CREATE TABLE emews_queue_out (
        eq_task_id INTEGER NOT NULL, eq_task_type INTEGER NOT NULL,
        eq_priority INTEGER NOT NULL DEFAULT 0
    )
    """,
    "CREATE TABLE emews_queue_in (eq_task_id INTEGER NOT NULL, eq_task_type INTEGER NOT NULL)",
    """
    CREATE INDEX idx_lease_expiry ON eq_tasks (lease_expiry)
        WHERE lease_expiry IS NOT NULL
    """,
)

BIG = "résumé 😀\n" * 8000  # 72 000 characters: overflow pages

#: (id, type, status, pool, json_out, json_in, created, start, stop,
#:  lease_expiry, priority) — one task in each state the queues encode.
_ROWS = [
    (1, 0, int(TaskStatus.QUEUED), None, "q-low", None, 1.0, None, None, None, 1),
    (2, 0, int(TaskStatus.QUEUED), None, BIG, None, 1.0, None, None, None, 9),
    (3, 1, int(TaskStatus.RUNNING), "pool-a", "run", None, 1.0, 2.0, None, 30.0, 4),
    (4, 0, int(TaskStatus.COMPLETE), "pool-a", "done", BIG, 1.0, 2.0, 3.0, None, 0),
    (5, 0, int(TaskStatus.COMPLETE), "pool-b", "done2", "", 1.0, 2.0, 3.0, None, 0),
    (6, 1, int(TaskStatus.COMPLETE), "pool-b", "collected", "r6", 1.0, 2.0, 3.0, None, 2),
    (7, 0, int(TaskStatus.CANCELED), None, "gone", None, 1.0, None, None, None, 5),
]


def _old_layout_file(path: str) -> None:
    conn = sqlite3.connect(path)
    with conn:
        for stmt in _OLD_DDL:
            conn.execute(stmt)
        conn.executemany(
            "INSERT INTO eq_tasks VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)", _ROWS
        )
        conn.executemany(
            "INSERT INTO eq_exp_id_tasks VALUES ('exp', ?)", [(r[0],) for r in _ROWS]
        )
        conn.executemany("INSERT INTO eq_task_tags VALUES (?, 'tagged')", [(2,), (4,)])
        conn.executemany(
            "INSERT INTO emews_queue_out VALUES (?, ?, ?)", [(1, 0, 1), (2, 0, 9)]
        )
        conn.executemany("INSERT INTO emews_queue_in VALUES (?, ?)", [(4, 0), (5, 0)])
    conn.close()


def _columns(store: SqliteTaskStore, table: str) -> list[str]:
    return [row[1] for row in store._conn.execute(f"PRAGMA table_info({table})")]


@pytest.mark.parametrize("durable", [False, True], ids=["wal", "durable"])
def test_old_layout_file_reopens_with_everything(tmp_path, durable):
    path = str(tmp_path / "old.db")
    _old_layout_file(path)
    store = SqliteTaskStore(path, durable=durable)
    try:
        assert "json_out" not in _columns(store, "eq_tasks")
        assert "json_in" not in _columns(store, "eq_tasks")
        for tid, eq_type, status, pool, out, into, created, start, stop, lease, prio in _ROWS:
            row = store.get_task(tid)
            assert (
                row.eq_task_type, int(row.eq_status), row.worker_pool, row.json_out,
                row.json_in, row.time_created, row.time_start, row.time_stop,
                row.lease_expiry, row.eq_priority,
            ) == (eq_type, status, pool, out, into, created, start, stop, lease, prio)
        assert store.get_task(2).tags == ["tagged"]
        assert store.tasks_for_experiment("exp") == [r[0] for r in _ROWS]
        assert store.get_priorities([1, 2, 3]) == [(1, 1), (2, 9)]
        assert store.stats(now=10.0)["tasks"] == {
            "queued": 2, "running": 1, "complete": 3, "canceled": 1, "total": 7,
        }
        # The queues behave: priority order, payloads and results intact.
        assert store.pop_out(0, 5, worker_pool="p", now=5.0) == [(2, BIG), (1, "q-low")]
        assert store.pop_in_any([5, 6, 4]) == [(5, ""), (4, BIG)]
        assert store.requeue_expired(now=31.0) == [3]
        assert store.get_priorities([3]) == [(3, 4)]
        # New work continues the id sequence and writes the side tables.
        (new,) = store.create_tasks("exp", 0, ["fresh"])
        assert new == 8
        store.report_batch([(2, 0, "r2")])
        assert store.get_task(2).json_in == "r2"
    finally:
        store.close()
    # The migration ran once; reopening the migrated file changes nothing.
    again = SqliteTaskStore(path, durable=durable)
    try:
        assert again.get_task(4).json_in == BIG
        assert again.get_task(8).json_out == "fresh"
        assert again.max_task_id() == 8
    finally:
        again.close()


def test_clear_empties_the_text_tables(tmp_path):
    store = SqliteTaskStore(str(tmp_path / "emews.db"))
    try:
        ids = store.create_tasks("exp", 0, ["a", BIG])
        store.pop_out(0, 2)
        store.report_batch([(ids[1], 0, BIG)])
        store.clear()
        for table in ("eq_task_out", "eq_task_in"):
            assert store._conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone() == (0,)
        # Ids restart after a clear; stale text must not shadow the new rows.
        assert store.create_tasks("exp", 0, ["b"]) == [1]
        assert store.get_task(1).json_out == "b"
        assert store.get_task(1).json_in is None
    finally:
        store.close()


class TestLoneSurrogates:
    """Text that survives JSON and the wire survives the store.

    sqlite3 binds ``str`` by strict UTF-8 encoding, which refuses a lone
    surrogate; the memory store keeps such text and the protocol codec
    round-trips it (``"surrogatepass"``), so the durable store must too.
    """

    PAYLOAD = "a\ud800b"
    RESULT = "r\udfffx" + BIG  # large and non-ASCII: an attachment on the wire

    def test_file_store_round_trips_every_read_path(self, tmp_path):
        store = SqliteTaskStore(str(tmp_path / "emews.db"))
        try:
            ids = store.create_tasks("e", 0, [self.PAYLOAD, "plain é"])
            assert store.get_task(ids[0]).json_out == self.PAYLOAD
            assert store.pop_out(0, 2) == [(ids[0], self.PAYLOAD), (ids[1], "plain é")]
            store.report_batch([(ids[0], 0, self.RESULT), (ids[1], 0, "ok")])
            row = store.get_task(ids[0])
            assert (row.json_out, row.json_in) == (self.PAYLOAD, self.RESULT)
            assert store.pop_in_any(ids) == [(ids[0], self.RESULT), (ids[1], "ok")]
            store.cache_put("k", 0, self.RESULT)
            assert store.cache_get("k") == self.RESULT
        finally:
            store.close()

    def test_valid_text_is_stored_as_text(self, tmp_path):
        store = SqliteTaskStore(str(tmp_path / "emews.db"))
        try:
            store.create_tasks("e", 0, ["ascii", "résumé 😀", self.PAYLOAD])
            kinds = store._conn.execute(
                "SELECT typeof(json_out) FROM eq_task_out ORDER BY eq_task_id"
            ).fetchall()
            assert kinds == [("text",), ("text",), ("blob",)]
        finally:
            store.close()

    def test_live_service_over_sqlite(self, tmp_path):
        from repro.core import RemoteTaskStore, TaskService

        backing = SqliteTaskStore(str(tmp_path / "emews.db"))
        service = TaskService(backing).start()
        remote = RemoteTaskStore(*service.address)
        try:
            ids = remote.create_tasks("e", 0, [self.PAYLOAD])
            assert remote.pop_out(0, 1) == [(ids[0], self.PAYLOAD)]
            remote.report_batch([(ids[0], 0, self.RESULT)])
            assert remote.get_task(ids[0]).json_in == self.RESULT
            assert remote.pop_in_any(ids) == [(ids[0], self.RESULT)]
        finally:
            remote.close()
            service.stop()
            backing.close()


class TestWriteAmplification:
    """WAL frames appended by one op on a task whose payload and result
    are 64 KiB (4 KiB pages).  With the text inside ``eq_tasks`` every
    size-changing update rewrote the record's overflow chain: a pop
    appended 36 frames, a report 52, a requeue 37."""

    PAYLOAD = "x" * 65536

    @pytest.fixture
    def store(self, tmp_path):
        store = SqliteTaskStore(str(tmp_path / "emews.db"))
        store.create_tasks("exp", 0, [self.PAYLOAD] * 4)
        yield store
        store.close()

    @staticmethod
    def frames(store: SqliteTaskStore, op) -> int:
        store._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)").fetchall()
        op()
        busy, wal_frames, _ = store._conn.execute(
            "PRAGMA wal_checkpoint(PASSIVE)"
        ).fetchone()
        assert busy == 0
        return wal_frames

    def test_pop_out_does_not_rewrite_the_payload(self, store):
        assert self.frames(store, lambda: store.pop_out(0, 1, lease=5.0)) <= 6

    def test_report_writes_the_result_once(self, store):
        (tid, _), = store.pop_out(0, 1)
        assert self.frames(store, lambda: store.report_batch([(tid, 0, self.PAYLOAD)])) <= 24

    def test_requeue_does_not_rewrite_the_payload(self, store):
        (tid, _), = store.pop_out(0, 1, lease=5.0)
        assert self.frames(store, lambda: store.renew_leases([tid], now=1.0, lease=5.0)) <= 6
        assert self.frames(store, lambda: store.requeue(tid)) <= 6
