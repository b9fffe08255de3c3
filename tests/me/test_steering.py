"""Tests for the Colmena-style steering layer."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import EQSQL, TaskStatus
from repro.db import SqliteTaskStore
from repro.me import sphere
from repro.me.steering import Actions, Steering
from repro.pools import PoolConfig, PythonTaskHandler, ThreadedWorkerPool

WORK_TYPE = 0


@pytest.fixture
def eq():
    eqsql = EQSQL(SqliteTaskStore())
    yield eqsql
    eqsql.close()


@pytest.fixture
def pool(eq):
    pool = ThreadedWorkerPool(
        eq,
        PythonTaskHandler(lambda d: {"y": float(sphere(d["x"]))}),
        PoolConfig(work_type=WORK_TYPE, n_workers=3),
    ).start()
    yield pool
    pool.stop()


def payloads_for(points):
    return [json.dumps({"x": list(map(float, p))}) for p in points]


class TestSteering:
    def test_drain_without_policy_actions(self, eq, pool):
        steering = Steering(eq, "exp", WORK_TYPE, timeout=30)
        steering.submit(payloads_for(np.eye(3)))
        result = steering.run(lambda task, s: None)
        assert len(result.completed) == 3
        assert not result.stopped_by_policy
        assert result.n_submitted == 3
        # Results decoded for the policy.
        assert all(isinstance(t.result["y"], float) for t in result.completed)
        assert [t.index for t in result.completed] == [1, 2, 3]

    def test_policy_submits_follow_up_tasks(self, eq, pool):
        """Each good result spawns a refinement near it (re-sample)."""
        steering = Steering(eq, "exp", WORK_TYPE, timeout=30)
        steering.submit(payloads_for([[2.0, 2.0], [0.5, 0.5]]))
        spawned = []

        def policy(task, s):
            if task.result["y"] < 1.0 and len(spawned) < 2:
                refined = [v / 2 for v in task.payload["x"]]
                spawned.append(refined)
                return Actions(submit=payloads_for([refined]))
            return None

        result = steering.run(policy)
        assert len(spawned) >= 1
        assert len(result.completed) == 2 + len(spawned)

    def test_policy_stop_cancels_pending(self, eq):
        # No pool: everything stays queued so stop must cancel the rest.
        steering = Steering(eq, "exp", WORK_TYPE, timeout=30)
        futures = steering.submit(payloads_for(np.eye(4)))
        # Complete exactly one task by hand.
        message = eq.query_task(WORK_TYPE, timeout=0)
        eq.report_task(message["eq_task_id"], WORK_TYPE, '{"y": 0.0}')

        result = steering.run(lambda task, s: Actions(stop=True))
        assert result.stopped_by_policy
        assert len(result.completed) == 1
        assert result.n_canceled == 3
        statuses = [f.status for f in futures]
        assert statuses.count(TaskStatus.CANCELED) == 3

    def test_policy_cancel_specific_tasks(self, eq):
        steering = Steering(eq, "exp", WORK_TYPE, timeout=30)
        futures = steering.submit(payloads_for(np.eye(3)))
        message = eq.query_task(WORK_TYPE, timeout=0)
        eq.report_task(message["eq_task_id"], WORK_TYPE, '{"y": 1.0}')
        to_cancel = futures[2].eq_task_id

        def policy(task, s):
            return Actions(cancel=[to_cancel], stop=True)

        result = steering.run(policy)
        assert result.n_canceled >= 1
        assert futures[2].cancelled

    def test_policy_reprioritize_pending(self, eq):
        steering = Steering(eq, "exp", WORK_TYPE, timeout=30)
        futures = steering.submit(payloads_for(np.eye(3)))
        message = eq.query_task(WORK_TYPE, timeout=0)
        eq.report_task(message["eq_task_id"], WORK_TYPE, '{"y": 1.0}')

        def policy(task, s):
            # Two still pending: make the later one urgent, then stop.
            return Actions(reprioritize=[1, 9], stop=True)

        steering.run(policy)
        # Third task got priority 9 before cancellation on stop...
        # verify the DB saw the update by checking the canceled rows'
        # history is consistent: at minimum the call must not raise and
        # the pending count must have matched.

    def test_reprioritize_wrong_length_raises(self, eq):
        steering = Steering(eq, "exp", WORK_TYPE, timeout=30)
        steering.submit(payloads_for(np.eye(3)))
        message = eq.query_task(WORK_TYPE, timeout=0)
        eq.report_task(message["eq_task_id"], WORK_TYPE, '{"y": 1.0}')
        with pytest.raises(ValueError):
            steering.run(lambda task, s: Actions(reprioritize=[1]))

    def test_max_results_bound(self, eq, pool):
        steering = Steering(eq, "exp", WORK_TYPE, timeout=30)
        steering.submit(payloads_for(np.eye(5)))
        result = steering.run(lambda task, s: None, max_results=2)
        assert len(result.completed) == 2

    def test_fig2_loop_as_policy(self, eq, pool):
        """The paper's Fig 2 pseudocode expressed as a steering policy:
        every 3 completions, reorder the remaining queue by proximity of
        the submitted point to the best seen so far."""
        rng = np.random.default_rng(0)
        points = rng.uniform(-4, 4, size=(12, 2))
        steering = Steering(eq, "fig2", WORK_TYPE, timeout=30)
        steering.submit(payloads_for(points))
        best = [np.inf]
        reorders = [0]

        def policy(task, s):
            best[0] = min(best[0], task.result["y"])
            if task.index % 3 == 0 and s.pending:
                pend = s.pending
                dist = [
                    float(np.sum(np.square(np.array(json.loads(eq.task_info(f.eq_task_id).json_out)["x"]))))
                    for f in pend
                ]
                order = np.argsort(dist)
                priorities = np.empty(len(pend), dtype=int)
                priorities[order] = np.arange(len(pend), 0, -1)
                reorders[0] += 1
                return Actions(reprioritize=[int(p) for p in priorities])
            return None

        result = steering.run(policy)
        assert len(result.completed) == 12
        assert reorders[0] >= 2
        assert best[0] == min(t.result["y"] for t in result.completed)
