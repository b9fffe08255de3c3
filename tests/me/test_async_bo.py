"""Tests for the asynchronous Bayesian optimization driver (Fig 2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import EQSQL
from repro.db import SqliteTaskStore
from repro.me import BOConfig, ackley, run_async_bo, sphere
from repro.pools import PoolConfig, PythonTaskHandler, ThreadedWorkerPool

WORK_TYPE = 0


@pytest.fixture
def eq():
    eqsql = EQSQL(SqliteTaskStore())
    yield eqsql
    eqsql.close()


@pytest.fixture
def sphere_pool(eq):
    pool = ThreadedWorkerPool(
        eq,
        PythonTaskHandler(lambda d: {"y": float(sphere(d["x"]))}),
        PoolConfig(work_type=WORK_TYPE, n_workers=4),
    ).start()
    yield pool
    pool.stop()


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BOConfig(bounds=[])
        with pytest.raises(ValueError):
            BOConfig(bounds=[(-1, 1)], n_initial=1)
        with pytest.raises(ValueError):
            BOConfig(bounds=[(-1, 1)], n_initial=20, n_total=10)
        with pytest.raises(ValueError):
            BOConfig(bounds=[(-1, 1)], cancel_fraction=1.0)


class TestRun:
    def test_completes_exact_budget(self, eq, sphere_pool):
        config = BOConfig(
            bounds=[(-3, 3)] * 2, n_initial=10, n_total=30,
            batch_completed=5, proposals_per_round=5, seed=1,
        )
        result = run_async_bo(eq, "bo", WORK_TYPE, config, timeout=60)
        assert result.y.shape == (30,)
        assert result.X.shape == (30, 2)
        assert result.rounds >= 2
        # Values are the true objective at the returned points.
        assert np.allclose(result.y, np.asarray(sphere(result.X)), atol=1e-9)

    def test_bo_beats_random_on_sphere(self, eq, sphere_pool):
        config = BOConfig(
            bounds=[(-3, 3)] * 2, n_initial=10, n_total=40,
            batch_completed=5, proposals_per_round=5, seed=3,
        )
        result = run_async_bo(eq, "bo-v-random", WORK_TYPE, config, timeout=60)
        rng = np.random.default_rng(3)
        random_best = float(
            np.min(sphere(rng.uniform(-3, 3, size=(40, 2))))
        )
        # EI proposals concentrate near the optimum: clearly better
        # than the same budget of random points.
        assert result.best_y < random_best
        assert result.best_y < 0.15

    def test_cancellation_counts(self, eq, sphere_pool):
        config = BOConfig(
            bounds=[(-3, 3)] * 2, n_initial=15, n_total=35,
            batch_completed=5, proposals_per_round=6,
            cancel_fraction=0.4, seed=5,
        )
        result = run_async_bo(eq, "bo-cancel", WORK_TYPE, config, timeout=60)
        assert result.y.shape == (35,)
        # Some tasks were canceled and replaced.
        assert result.n_canceled >= 0
        assert result.n_submitted >= 35

    def test_trajectory_monotone(self, eq, sphere_pool):
        config = BOConfig(
            bounds=[(-2, 2)] * 2, n_initial=8, n_total=20,
            batch_completed=4, seed=7,
        )
        result = run_async_bo(eq, "bo-traj", WORK_TYPE, config, timeout=60)
        trajectory = result.best_trajectory()
        assert np.all(np.diff(trajectory) <= 1e-12)
        assert trajectory[-1] == result.best_y

    def test_on_ackley(self, eq):
        pool = ThreadedWorkerPool(
            eq,
            PythonTaskHandler(lambda d: {"y": float(ackley(d["x"]))}),
            PoolConfig(work_type=WORK_TYPE, n_workers=4),
        ).start()
        try:
            config = BOConfig(
                bounds=[(-10, 10)] * 2, n_initial=15, n_total=45,
                batch_completed=5, proposals_per_round=6, seed=11,
            )
            result = run_async_bo(eq, "bo-ackley", WORK_TYPE, config, timeout=60)
            assert result.y.shape == (45,)
            # Ackley at the proposals' best should improve on the
            # random initialization's best.
            init_best = float(np.min(result.y[: config.n_initial]))
            assert result.best_y <= init_best
        finally:
            pool.stop()
