"""Tests for the DES worker pool."""

from __future__ import annotations

import pytest

from repro.core import EQSQL, EQ_STOP
from repro.core.constants import TaskStatus
from repro.db import SqliteTaskStore
from repro.sim import SimPoolConfig, SimWorkerPool
from repro.simt import Environment
from repro.telemetry import Journal, concurrency_series, utilization_stats


def build(n_workers=4, batch=None, threshold=1, query_cost=0.1, runtime=2.0):
    env = Environment()
    eqsql = EQSQL(SqliteTaskStore(), clock=env.clock)
    journal = Journal(clock=env.clock)
    pool = SimWorkerPool(
        env,
        eqsql,
        SimPoolConfig(
            name="p",
            n_workers=n_workers,
            batch_size=batch,
            threshold=threshold,
            query_cost=query_cost,
        ),
        runtime_fn=lambda tid, payload: runtime,
        journal=journal,
    )
    return env, eqsql, journal, pool


def run_until_done(env, pool, n_tasks):
    while pool.tasks_completed < n_tasks:
        env.step()


class TestExecution:
    def test_completes_all_tasks(self):
        env, eqsql, _, pool = build(n_workers=3)
        eqsql.submit_tasks("e", 0, [f"t{i}" for i in range(10)])
        pool.start()
        run_until_done(env, pool, 10)
        assert pool.tasks_completed == 10
        # All reported through the real DB: input queue holds results.
        assert eqsql.queue_lengths(0) == (0, 10)

    def test_makespan_matches_capacity(self):
        # 12 tasks of 2s on 4 workers -> three waves ~6s + overheads.
        env, eqsql, _, pool = build(n_workers=4, runtime=2.0, query_cost=0.0)
        eqsql.submit_tasks("e", 0, ["t"] * 12)
        pool.start()
        run_until_done(env, pool, 12)
        assert 6.0 <= env.now < 8.0

    def test_concurrency_never_exceeds_workers(self):
        env, eqsql, journal, pool = build(n_workers=3, batch=8)
        eqsql.submit_tasks("e", 0, ["t"] * 30)
        pool.start()
        run_until_done(env, pool, 30)
        series = concurrency_series(journal.records(), source="p")
        assert int(series.counts.max()) <= 3

    def test_oversubscription_owns_more_than_runs(self):
        env, eqsql, journal, pool = build(n_workers=2, batch=6, runtime=5.0)
        eqsql.submit_tasks("e", 0, ["t"] * 6)
        pool.start()
        # After the first fetch the pool owns 6 but runs only 2.
        env.run(until=1.0)
        assert pool.owned() == 6
        series = concurrency_series(journal.records(), source="p", end=1.0)
        assert int(series.counts.max()) == 2
        run_until_done(env, pool, 6)

    def test_db_timestamps_are_virtual(self):
        env, eqsql, _, pool = build(n_workers=1, runtime=4.0, query_cost=0.0)
        futures = eqsql.submit_tasks("e", 0, ["a", "b"])
        pool.start()
        run_until_done(env, pool, 2)
        first = eqsql.task_info(futures[0].eq_task_id)
        second = eqsql.task_info(futures[1].eq_task_id)
        assert first.runtime() == pytest.approx(4.0)
        # Sequential on one worker: second starts when first stops.
        assert second.time_start >= first.time_stop

    def test_journal_rows_per_task(self):
        """Each task leaves pool-role fetch, run_start, run_end rows in
        that order, stamped in virtual time under the pool's name."""
        env, eqsql, journal, pool = build(n_workers=2, runtime=2.0, query_cost=0.5)
        futures = eqsql.submit_tasks("e", 0, ["t"] * 5)
        pool.start()
        run_until_done(env, pool, 5)
        for future in futures:
            rows = journal.records(future.eq_task_id)
            assert [r.event for r in rows] == ["fetch", "run_start", "run_end"]
            assert {(r.role, r.source) for r in rows} == {("pool", "p")}
            fetch, start, end = rows
            assert 0.5 <= fetch.time <= start.time
            assert end.time - start.time == pytest.approx(2.0)
        assert pool.fetches >= 1

    def test_worker_pool_column_set(self):
        env, eqsql, _, pool = build()
        futures = eqsql.submit_tasks("e", 0, ["t"])
        pool.start()
        run_until_done(env, pool, 1)
        assert eqsql.task_info(futures[0].eq_task_id).worker_pool == "p"


class TestShutdown:
    def test_eq_stop_drains_pool(self):
        env, eqsql, _, pool = build(n_workers=2, runtime=1.0)
        eqsql.submit_tasks("e", 0, ["t"] * 4)
        stop = eqsql.submit_task("e", 0, EQ_STOP, priority=-10)
        pool.start()
        env.run(until=pool.process)
        assert pool.tasks_completed == 4
        assert eqsql.task_info(stop.eq_task_id).eq_status == TaskStatus.COMPLETE

    def test_explicit_stop_ends_process(self):
        env, eqsql, _, pool = build()
        pool.start()
        env.run(until=2.0)
        pool.stop()
        env.run(until=pool.process)  # terminates

    def test_double_start_rejected(self):
        env, _, _, pool = build()
        pool.start()
        with pytest.raises(RuntimeError):
            pool.start()


class TestPolicyEffects:
    def run_policy(self, batch, threshold, n_tasks=120):
        # Heterogeneous runtimes (the paper's lognormal padding exists
        # for exactly this reason): constant runtimes synchronize
        # completions and mask the policy differences.
        env = Environment()
        eqsql = EQSQL(SqliteTaskStore(), clock=env.clock)
        journal = Journal(clock=env.clock)
        pool = SimWorkerPool(
            env,
            eqsql,
            SimPoolConfig(
                name="p", n_workers=8, batch_size=batch,
                threshold=threshold, query_cost=0.2,
            ),
            runtime_fn=lambda tid, payload: 3.0 + (tid * 2.17) % 7,
            journal=journal,
        )
        eqsql.submit_tasks("e", 0, ["t"] * n_tasks)
        pool.start()
        run_until_done(env, pool, n_tasks)
        series = concurrency_series(journal.records(), source="p", end=env.now)
        return utilization_stats(series, 8), pool

    def test_large_threshold_reduces_utilization(self):
        tight, _ = self.run_policy(batch=8, threshold=1)
        loose, _ = self.run_policy(batch=8, threshold=8)
        assert tight["utilization"] > loose["utilization"]

    def test_large_threshold_fewer_fetches(self):
        _, tight_pool = self.run_policy(batch=8, threshold=1)
        _, loose_pool = self.run_policy(batch=8, threshold=8)
        assert 0 < loose_pool.fetches < tight_pool.fetches

    def test_oversubscription_improves_utilization(self):
        exact, _ = self.run_policy(batch=8, threshold=1)
        over, _ = self.run_policy(batch=12, threshold=1)
        assert over["utilization"] >= exact["utilization"]
