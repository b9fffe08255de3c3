"""PERF-KERNEL — DES kernel throughput and GPR fit cost.

DES events per second bounds how large a Figure-4-style scenario the
benchmarks can regenerate; the GPR fit is the reprioritization step's
dominant cost.
"""

from __future__ import annotations

import pytest

from repro.me import GaussianProcessRegressor
from repro.simt import Environment


class TestSimtKernel:
    @pytest.mark.parametrize("n_processes", [100, 1000])
    def test_event_throughput(self, benchmark, n_processes):
        """N processes x 50 timeouts each: pure kernel dispatch."""

        def run():
            env = Environment()
            fired = [0]

            def proc():
                for _ in range(50):
                    yield env.timeout(1.0)
                    fired[0] += 1

            for _ in range(n_processes):
                env.process(proc())
            env.run()
            return fired[0]

        fired = benchmark.pedantic(run, rounds=3, iterations=1)
        assert fired == n_processes * 50


class TestGPR:
    @pytest.mark.parametrize("n_train", [100, 300])
    def test_fit_predict_cost(self, benchmark, n_train):
        """The reprioritization step's dominant cost at scale."""
        import numpy as np

        rng = np.random.default_rng(0)
        X = rng.uniform(-5, 5, size=(n_train, 4))
        y = np.sin(X).sum(axis=1)
        Xs = rng.uniform(-5, 5, size=(700, 4))

        def fit_predict():
            model = GaussianProcessRegressor(optimize_hyperparameters=False)
            model.fit(X, y)
            return model.predict(Xs)

        predicted = benchmark(fit_predict)
        assert predicted.shape == (700,)
