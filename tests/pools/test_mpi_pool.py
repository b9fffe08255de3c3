"""Tests for the Swift/T-style MPI worker pool."""

from __future__ import annotations

import json
import threading

import pytest

from repro.cli import main as cli_main
from repro.core import EQSQL, EQ_STOP
from repro.db import SqliteTaskStore
from repro.pools import PoolConfig, PythonTaskHandler, run_mpi_pool
from repro.telemetry import Journal, set_journal, task_timeline


@pytest.fixture
def eq():
    eqsql = EQSQL(SqliteTaskStore())
    yield eqsql
    eqsql.close()


def submit_with_stop(eq, n, eq_type=0):
    futures = eq.submit_tasks(
        "exp", eq_type, [json.dumps({"x": i}) for i in range(n)]
    )
    eq.submit_task("exp", eq_type, EQ_STOP, priority=-100)
    return futures


class TestMpiPool:
    def test_runs_all_tasks_then_stops(self, eq):
        futures = submit_with_stop(eq, 20)
        config = PoolConfig(work_type=0, n_workers=3, name="mpi-pool")
        handler = PythonTaskHandler(lambda d: {"y": d["x"] + 1})
        stats = run_mpi_pool(eq, handler, config, timeout=60)
        assert stats.tasks_completed == 20
        assert stats.tasks_failed == 0
        for f in futures:
            _, result = f.result(timeout=0)
            x = json.loads(eq.task_info(f.eq_task_id).json_out)["x"]
            assert json.loads(result) == {"y": x + 1}

    def test_failures_counted(self, eq):
        submit_with_stop(eq, 4)

        def flaky(d):
            if d["x"] >= 2:
                raise RuntimeError("boom")
            return d

        config = PoolConfig(work_type=0, n_workers=2)
        stats = run_mpi_pool(eq, PythonTaskHandler(flaky), config, timeout=60)
        assert stats.tasks_completed == 2
        assert stats.tasks_failed == 2

    def test_trace_records_pool_lifecycle(self, eq, tmp_path, capsys):
        """The engine journals the same four pool-role hops as the
        threaded pool, so a task's timeline interleaves them with the
        store's rows."""
        journal = Journal(clock=eq.clock)
        previous = set_journal(journal)
        try:
            futures = submit_with_stop(eq, 6)
            config = PoolConfig(work_type=0, n_workers=2, name="traced-mpi")
            run_mpi_pool(eq, PythonTaskHandler(lambda d: d), config, timeout=60)
        finally:
            set_journal(previous)
        records = journal.records()
        task_ids = {f.eq_task_id for f in futures}
        for event in ("fetch", "run_start", "run_end", "report"):
            rows = [
                r for r in records
                if r.role == "pool" and r.event == event and r.task_id in task_ids
            ]
            assert len(rows) == 6
            assert {r.source for r in rows} == {"traced-mpi"}
        timeline = task_timeline(records, futures[0].eq_task_id)
        assert [(r.role, r.event) for r in timeline] == [
            ("db", "enqueue"),
            ("db", "pop"),
            ("pool", "fetch"),
            ("pool", "run_start"),
            ("pool", "run_end"),
            ("pool", "report"),
            ("db", "report"),
        ]
        # ... and `repro timeline` renders them from a saved journal.
        path = str(tmp_path / "journal.jsonl")
        journal.save_jsonl(path)
        assert cli_main(["timeline", str(futures[0].eq_task_id), "--journal", path]) == 0
        pool_lines = [
            line.split() for line in capsys.readouterr().out.splitlines()
            if "traced-mpi" in line and " pool " in line
        ]
        assert [cells[3] for cells in pool_lines] == [
            "fetch", "run_start", "run_end", "report",
        ]

    def test_worker_pool_recorded_in_db(self, eq):
        futures = submit_with_stop(eq, 3)
        config = PoolConfig(work_type=0, n_workers=2, name="mpi-name")
        run_mpi_pool(eq, PythonTaskHandler(lambda d: d), config, timeout=60)
        assert eq.task_info(futures[0].eq_task_id).worker_pool == "mpi-name"

    def test_concurrent_with_submitter_thread(self, eq):
        """Tasks submitted while the pool runs are still executed."""
        first = submit_with_stop(eq, 0)  # just the EQ_STOP, lowest priority
        del first
        late_futures = []

        def submitter():
            for i in range(10):
                late_futures.append(
                    eq.submit_task("exp", 0, json.dumps({"x": i}), priority=1)
                )

        t = threading.Thread(target=submitter)
        t.start()
        config = PoolConfig(work_type=0, n_workers=2)
        stats = run_mpi_pool(eq, PythonTaskHandler(lambda d: d), config, timeout=60)
        t.join()
        # The pool may pop EQ_STOP before some late tasks; at least the
        # ones submitted before the sentinel was popped completed.
        assert stats.tasks_completed + eq.queue_lengths(0)[0] == 10
