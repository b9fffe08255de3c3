"""Integration tests: the async ME driver against a real threaded pool."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import EQSQL
from repro.db import SqliteTaskStore
from repro.me import ackley, ranks_to_priorities, run_async_optimization, uniform_random
from repro.me.driver import decode_result
from repro.pools import PoolConfig, PythonTaskHandler, ThreadedWorkerPool

WORK_TYPE = 0


@pytest.fixture
def eq():
    eqsql = EQSQL(SqliteTaskStore())
    yield eqsql
    eqsql.close()


@pytest.fixture
def pool(eq):
    handler = PythonTaskHandler(lambda d: {"y": float(ackley(d["x"]))})
    config = PoolConfig(work_type=WORK_TYPE, n_workers=4)
    pool = ThreadedWorkerPool(eq, handler, config).start()
    yield pool
    pool.stop()


class TestDecodeResult:
    def test_dict_form(self):
        assert decode_result('{"y": 1.5}') == 1.5

    def test_bare_number(self):
        assert decode_result("2.5") == 2.5

    def test_error_payload_raises(self):
        with pytest.raises(ValueError, match="task failed"):
            decode_result('{"error": "boom"}')


class TestDriver:
    def test_all_points_evaluated(self, eq, pool):
        rng = np.random.default_rng(0)
        points = uniform_random(rng, 40, [(-5, 5)] * 2)
        result = run_async_optimization(
            eq, "exp", WORK_TYPE, points, batch_completed=10, timeout=60
        )
        assert result.X.shape == (40, 2)
        assert result.y.shape == (40,)
        # Values match the true objective at each returned point.
        assert np.allclose(result.y, np.asarray(ackley(result.X)), atol=1e-9)

    def test_reprioritizer_called_and_recorded(self, eq, pool):
        rng = np.random.default_rng(1)
        points = uniform_random(rng, 30, [(-5, 5)] * 2)
        calls = []

        def fake_reprioritizer(X_done, y_done, X_rem):
            calls.append((len(X_done), len(X_rem)))
            return ranks_to_priorities(np.asarray(ackley(X_rem)))

        result = run_async_optimization(
            eq,
            "exp",
            WORK_TYPE,
            points,
            reprioritizer=fake_reprioritizer,
            batch_completed=10,
            timeout=60,
        )
        assert len(result.y) == 30
        assert calls, "reprioritizer never invoked"
        # Each call saw a growing completed set.
        assert all(c1 >= 10 for c1, _ in calls)
        assert len(result.reprioritizations) == len(calls)
        # The records carry what the phase markers did: when, and on what.
        assert [r.n_completed for r in result.reprioritizations] == [
            n_done for n_done, _ in calls
        ]
        assert all(r.time_stop >= r.time_start for r in result.reprioritizations)

    def test_best_trajectory_monotone(self, eq, pool):
        rng = np.random.default_rng(2)
        points = uniform_random(rng, 25, [(-3, 3)] * 2)
        result = run_async_optimization(
            eq, "exp", WORK_TYPE, points, batch_completed=5, timeout=60
        )
        trajectory = result.best_trajectory()
        assert np.all(np.diff(trajectory) <= 1e-12)
        assert trajectory[-1] == result.best_y
        assert ackley(result.best_x) == pytest.approx(result.best_y)
