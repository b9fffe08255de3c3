"""Direct tests for the DES ME-algorithm process."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import EQSQL
from repro.db import SqliteTaskStore
from repro.sim import SimMEAlgorithm, SimPoolConfig, SimWorkerPool
from repro.simt import Environment
from repro.telemetry import Journal


def build_scenario(n_tasks=60, repri_every=20, n_workers=5, runtime=4.0, **me_kwargs):
    env = Environment()
    eqsql = EQSQL(SqliteTaskStore(), clock=env.clock)
    journal = Journal(clock=env.clock)
    rng = np.random.default_rng(0)
    points = rng.uniform(-5, 5, size=(n_tasks, 2))
    values = np.sum(points**2, axis=1)
    payloads = ["{}"] * n_tasks
    me = SimMEAlgorithm(
        env, eqsql, 0, points, values, payloads,
        repri_every=repri_every, **me_kwargs,
    )
    pool = SimWorkerPool(
        env, eqsql,
        SimPoolConfig(name="p", n_workers=n_workers, query_cost=0.1),
        runtime_fn=lambda tid, _p: runtime,
        journal=journal,
    )
    return env, me, pool, journal


class TestSimMEAlgorithm:
    def test_all_tasks_complete_in_order_tracking(self):
        env, me, pool, _ = build_scenario()
        me.start()
        pool.start()
        env.run(until=me.process)
        assert sorted(me.completion_order) == list(range(60))
        assert me.completed_values().shape == (60,)

    def test_remote_duration_blocks_me_not_pools(self):
        """During a long reprioritization the pools keep completing."""
        env, me, pool, journal = build_scenario(
            remote_duration=lambda n: 10.0, repri_every=20
        )
        me.start()
        pool.start()
        env.run(until=me.process)
        assert len(me.reprioritizations) >= 1
        first = me.reprioritizations[0]
        assert first.time_stop - first.time_start == pytest.approx(10.0)
        # Tasks stopped during the reprioritization window.
        stops = [
            r.time for r in journal.records()
            if r.event == "run_end" and first.time_start < r.time < first.time_stop
        ]
        assert stops, "pools idled during reprioritization"

    def test_callback_indices(self):
        seen = []
        env, me, pool, _ = build_scenario(
            n_tasks=80, repri_every=20, on_reprioritization=seen.append
        )
        me.start()
        pool.start()
        env.run(until=me.process)
        assert seen[: len(me.reprioritizations)] == list(
            range(1, len(me.reprioritizations) + 1)
        )

    def test_no_reprioritization_when_batch_never_reached(self):
        env, me, pool, _ = build_scenario(n_tasks=10, repri_every=100)
        me.start()
        pool.start()
        env.run(until=me.process)
        assert me.reprioritizations == []

    def test_priorities_shape_each_round(self):
        env, me, pool, _ = build_scenario(n_tasks=60, repri_every=15)
        me.start()
        pool.start()
        env.run(until=me.process)
        for record in me.reprioritizations:
            assert sorted(record.priorities) == list(
                range(1, len(record.priorities) + 1)
            )
            assert record.n_reprioritized <= len(record.priorities)

    def test_double_start_rejected(self):
        env, me, pool, _ = build_scenario()
        me.start()
        with pytest.raises(RuntimeError):
            me.start()

    def test_trace_phase_events_paired(self):
        """Each ReprioritizationTrace is one start/stop pair: rounds are
        numbered, never overlap, and see a growing completed set."""
        env, me, pool, _ = build_scenario(n_tasks=60, repri_every=20)
        me.start()
        pool.start()
        env.run(until=me.process)
        rounds = me.reprioritizations
        assert [r.index for r in rounds] == list(range(1, len(rounds) + 1))
        assert len(rounds) >= 2
        for r in rounds:
            assert r.time_start <= r.time_stop
        for earlier, later in zip(rounds, rounds[1:]):
            assert earlier.time_stop <= later.time_start
            assert earlier.n_completed < later.n_completed
