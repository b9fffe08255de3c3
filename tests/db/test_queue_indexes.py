"""The SQLite output queue is indexed for every statement that picks rows
by task id.

``emews_queue_out`` is pop-ordered by ``idx_queue_out_pop``; the DELETE
of a pop, a report's withdraw, reprioritization, cancellation and
requeue all find their rows by ``eq_task_id`` instead, through
``idx_queue_out_task``.  Without it each of those statements scans the
whole queue.  Pinned here from the query plans of the statements the
store actually runs, and for files created before the index existed.
"""

from __future__ import annotations

import re
import sqlite3

from repro.db import SqliteTaskStore
from repro.telemetry.journal import Journal
from repro.util.clock import VirtualClock

_BY_ID = re.compile(r"eq_task_id\s*(=|IN\b)", re.IGNORECASE)


def _by_id_statements(path: str) -> list[str]:
    """Every statement naming the output queue and filtering by task id
    that a workload of each store op executes (journal on, so the
    recording-gated selects run too)."""
    store = SqliteTaskStore(path, journal=Journal(clock=VirtualClock()))
    executed: list[str] = []
    store._conn.set_trace_callback(executed.append)
    try:
        ids = store.create_tasks("exp", 0, [f"t{i}" for i in range(12)], priority=1)
        store.update_priorities(ids[:4], [5, 6, 7, 8])
        store.get_priorities(ids)
        popped = [tid for tid, _ in store.pop_out(0, 4, worker_pool="p", now=1.0, lease=1.0)]
        store.report_batch([(popped[0], 0, "r")], now=2.0)
        store.report_batch([(popped[1], 0, "r")], now=2.0)
        store.report_pop([(popped[2], 0, "r")], 0, 1, worker_pool="p", now=2.0)
        store.requeue(popped[3])
        store.requeue_expired(now=9.0)
        store.renew_leases(ids, now=9.0, lease=1.0)
        store.cancel_tasks(ids[-2:])
        store.stats(now=9.0)
    finally:
        store._conn.set_trace_callback(None)
        store.close()
    return [
        sql for sql in executed if "emews_queue_out" in sql and _BY_ID.search(sql)
    ]


def test_no_by_id_statement_scans_the_output_queue(tmp_path):
    path = str(tmp_path / "emews.db")
    statements = _by_id_statements(path)
    kinds = {sql.split()[0].upper() for sql in statements}
    assert {"SELECT", "UPDATE", "DELETE"} <= kinds, statements
    conn = sqlite3.connect(path)
    try:
        for sql in statements:
            plan = [row[-1] for row in conn.execute("EXPLAIN QUERY PLAN " + sql)]
            assert not [step for step in plan if step.startswith("SCAN")], (sql, plan)
    finally:
        conn.close()


def test_old_file_gains_the_index_on_open(tmp_path):
    path = str(tmp_path / "old.db")
    store = SqliteTaskStore(path)
    store.create_tasks("exp", 0, ["a", "b"])
    store.close()
    conn = sqlite3.connect(path)
    with conn:
        conn.execute("DROP INDEX idx_queue_out_task")
    conn.close()

    def indexes() -> set[str]:
        probe = sqlite3.connect(path)
        try:
            return {row[1] for row in probe.execute("PRAGMA index_list(emews_queue_out)")}
        finally:
            probe.close()

    assert "idx_queue_out_task" not in indexes()
    reopened = SqliteTaskStore(path)
    try:
        assert "idx_queue_out_task" in indexes()
        assert [tid for tid, _ in reopened.pop_out(0, 2)] == [1, 2]
    finally:
        reopened.close()
