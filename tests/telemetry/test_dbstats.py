"""Tests for DB-derived timing statistics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import EQSQL
from repro.db import SqliteTaskStore
from repro.telemetry.dbstats import TimingSummary, task_timing_stats
from repro.util.clock import VirtualClock


@pytest.fixture
def eq():
    clock = VirtualClock()
    eqsql = EQSQL(SqliteTaskStore(), clock=clock)
    yield eqsql, clock
    eqsql.close()


class TestTimingSummary:
    def test_from_values(self):
        summary = TimingSummary.from_values(np.array([1.0, 2.0, 3.0, 4.0]))
        assert summary.count == 4
        assert summary.mean == 2.5
        assert summary.median == 2.5
        assert summary.max == 4.0

    def test_empty(self):
        summary = TimingSummary.from_values(np.array([]))
        assert summary.count == 0
        assert summary.mean == 0.0


class TestTaskTimingStats:
    def test_waits_and_runtimes_from_virtual_clock(self, eq):
        eqsql, clock = eq
        futures = eqsql.submit_tasks("exp", 0, ["a", "b"])  # created at t=0
        clock.advance(5)
        first = eqsql.query_task(0, worker_pool="p1", timeout=0)  # starts t=5
        clock.advance(3)
        eqsql.report_task(first["eq_task_id"], 0, "r")  # stops t=8
        clock.advance(2)
        second = eqsql.query_task(0, worker_pool="p2", timeout=0)  # starts t=10
        clock.advance(1)
        eqsql.report_task(second["eq_task_id"], 0, "r")  # stops t=11

        stats = task_timing_stats(eqsql, "exp")
        assert stats.queue_wait.count == 2
        assert stats.queue_wait.mean == pytest.approx((5 + 10) / 2)
        assert stats.runtime.mean == pytest.approx((3 + 1) / 2)
        assert stats.per_pool_completed == {"p1": 1, "p2": 1}
        assert stats.n_incomplete == 0
        del futures

    def test_incomplete_tasks_counted_not_measured(self, eq):
        eqsql, clock = eq
        eqsql.submit_tasks("exp", 0, ["a", "b", "c"])
        message = eqsql.query_task(0, timeout=0)
        eqsql.report_task(message["eq_task_id"], 0, "r")
        eqsql.query_task(0, timeout=0)  # running, never reported
        stats = task_timing_stats(eqsql, "exp")
        assert stats.queue_wait.count == 1
        assert stats.n_incomplete == 2

    def test_empty_experiment(self, eq):
        eqsql, _ = eq
        stats = task_timing_stats(eqsql, "ghost")
        assert stats.queue_wait.count == 0
        assert stats.per_pool_completed == {}

    def test_matches_des_scenario(self):
        """DB stats over a full DES run agree with the runtime model."""
        # A dedicated run we can introspect: rebuild the pieces inline.
        from repro.sim import SimPoolConfig, SimWorkerPool
        from repro.simt import Environment

        env = Environment()
        eqsql = EQSQL(SqliteTaskStore(), clock=env.clock)
        eqsql.submit_tasks("des", 0, ["t"] * 40)
        pool = SimWorkerPool(
            env, eqsql, SimPoolConfig(name="p", n_workers=5, query_cost=0.1),
            runtime_fn=lambda tid, _p: 7.0,
        ).start()
        while pool.tasks_completed < 40:
            env.step()
        stats = task_timing_stats(eqsql, "des")
        assert stats.runtime.count == 40
        assert stats.runtime.mean == pytest.approx(7.0)
        # Later waves wait longer than the first.
        assert stats.queue_wait.max > stats.queue_wait.median
        eqsql.close()


class TestTimingSummaryEmptyInputs:
    """Regression: from_values must accept any sequence, including an
    empty plain list (it used to require an ndarray with .size)."""

    def test_empty_list(self):
        summary = TimingSummary.from_values([])
        assert summary == TimingSummary(count=0, mean=0.0, median=0.0,
                                        p95=0.0, max=0.0)

    def test_empty_array(self):
        assert TimingSummary.from_values(np.array([])).count == 0

    def test_plain_list(self):
        summary = TimingSummary.from_values([1.0, 2.0, 3.0])
        assert summary.count == 3
        assert summary.mean == pytest.approx(2.0)
        assert summary.max == 3.0

    def test_tuple_and_generator_free_sequences(self):
        assert TimingSummary.from_values((5.0,)).count == 1

    def test_empty_tasks_table(self):
        """dbstats over a store with zero tasks: all-zero summaries."""
        eqsql = EQSQL(SqliteTaskStore())
        try:
            stats = task_timing_stats(eqsql, "never-ran")
            assert stats.queue_wait.count == 0
            assert stats.runtime == TimingSummary(count=0, mean=0.0,
                                                  median=0.0, p95=0.0, max=0.0)
            assert stats.n_incomplete == 0
        finally:
            eqsql.close()
