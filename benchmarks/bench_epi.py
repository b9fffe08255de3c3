"""PERF-EPI — domain workload task costs.

Per-task simulation cost for the three model scopes (ODE SEIR,
chain-binomial SEIR, network ABM) and the calibration objective — the
numbers that size worker-pool allocations for the epi examples.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.epi import (
    ABMParams,
    CalibrationProblem,
    NetworkABM,
    SEIRParams,
    SurveillanceModel,
    generate_surveillance,
    simulate_seir,
    simulate_stochastic_seir,
)

PARAMS = SEIRParams(beta=0.5, sigma=0.25, gamma=0.2, population=100_000)


# 120 days at dt=0.25 is the forward run inside every `seir_calib` task
# of benchmarks/e2e.
@pytest.mark.parametrize("t_end", [200.0, 120.0], ids=["200d", "e2e-120d"])
def test_seir_ode(benchmark, t_end):
    result = benchmark(
        simulate_seir, PARAMS, initial_infected=5, t_end=t_end, dt=0.25
    )
    assert result.attack_rate() > 0.5


def test_stochastic_seir(benchmark):
    rng = np.random.default_rng(0)
    result = benchmark(
        simulate_stochastic_seir, PARAMS, rng, initial_infected=20, days=200
    )
    assert result.S[-1] >= 0


@pytest.mark.parametrize("n_agents", [1000, 5000])
def test_network_abm(benchmark, n_agents):
    graph = nx.watts_strogatz_graph(n_agents, 8, 0.1, seed=0)
    params = ABMParams(p_transmit=0.1, sigma=0.3, gamma=0.15)

    def run():
        abm = NetworkABM(graph, params)
        rng = np.random.default_rng(1)
        abm.seed(rng, 10)
        return abm.run(rng, days=150)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.counts[-1].sum() == n_agents


def test_calibration_objective(benchmark):
    truth = simulate_seir(PARAMS, initial_infected=5, t_end=100.0, dt=0.25)
    daily = truth.incidence[1:].reshape(100, 4).sum(axis=1)
    surveillance = SurveillanceModel(reporting_rate=0.3, delay_mean=2.0)
    observed = generate_surveillance(daily, surveillance, np.random.default_rng(0))
    problem = CalibrationProblem(
        observed=observed, population=PARAMS.population, surveillance=surveillance
    )
    theta = np.array([0.5, 0.25, 0.2])
    loss = benchmark(problem.loss, theta)
    assert loss >= 0
