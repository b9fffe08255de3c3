"""Golden test: the scalar RK4 in ``repro.epi.seir`` must reproduce the
former vector implementation (``reference_seir.py``) bit for bit.

``np.array_equal`` throughout, no tolerance: the e2e driver, the
calibration examples and the ME tests all consume these numbers, and
this test is what allowed the vector integrator to be deleted from the
package.  It fails if the operation order is ever "simplified".
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.epi import (
    CalibrationProblem,
    SEIRParams,
    SurveillanceModel,
    generate_surveillance,
    poisson_deviance,
    simulate_seir,
)

from .reference_seir import reference_expected_cases, reference_simulate_seir

FIELDS = ("t", "S", "E", "I", "R")


def assert_same_bits(params: SEIRParams, **kwargs):
    new = simulate_seir(params, **kwargs)
    ref = reference_simulate_seir(params, **kwargs)
    for name in FIELDS:
        a, b = getattr(new, name), getattr(ref, name)
        assert a.dtype == b.dtype == np.float64, name
        assert np.array_equal(a, b), (name, params, kwargs)
    return new


@pytest.mark.parametrize("dt", [0.1, 0.25, 0.5, 1.0])
def test_random_draws_bit_identical(dt):
    """80 seeded draws per step size (320 in all): rates across and
    beyond the calibration box, N from 10 to 1e7, horizons up to 400."""
    rng = np.random.default_rng(int(dt * 100))
    for _ in range(80):
        population = float(np.round(10 ** rng.uniform(1, 7)))
        params = SEIRParams(
            beta=rng.uniform(0.0, 2.0),
            sigma=rng.uniform(0.0, 1.5),
            gamma=rng.uniform(0.0, 1.5),
            population=population,
        )
        infected = float(rng.integers(1, max(2, int(population // 10))))
        assert_same_bits(
            params,
            initial_infected=infected,
            t_end=float(rng.integers(2, 401)),
            dt=dt,
        )


EDGE_CASES = {
    "beta=0": (dict(beta=0.0, sigma=0.25, gamma=0.2, population=1e4), {}),
    "sigma=0": (dict(beta=0.5, sigma=0.0, gamma=0.2, population=1e4), {}),
    "gamma=0": (dict(beta=0.5, sigma=0.25, gamma=0.0, population=1e4), {}),
    "all rates 0": (dict(beta=0.0, sigma=0.0, gamma=0.0, population=50.0), {}),
    "no infection seeded": (
        dict(beta=0.5, sigma=0.25, gamma=0.2, population=1e4),
        dict(initial_infected=0.0),
    ),
    "seeded == population": (
        dict(beta=0.5, sigma=0.25, gamma=0.2, population=100.0),
        dict(initial_infected=60.0, initial_exposed=30.0, initial_recovered=10.0),
    ),
    "exposed and recovered seeded": (
        dict(beta=0.7, sigma=0.3, gamma=0.15, population=2.5e5),
        dict(initial_infected=3.0, initial_exposed=40.5, initial_recovered=1e3),
    ),
    "single step (dt == t_end)": (
        dict(beta=0.5, sigma=0.25, gamma=0.2, population=1e4),
        dict(t_end=0.5, dt=0.5),
    ),
    "steps rounds t_end/dt": (
        dict(beta=0.5, sigma=0.25, gamma=0.2, population=1e4),
        dict(t_end=10.1, dt=0.3),
    ),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_edge_cases_bit_identical(case):
    fields, kwargs = EDGE_CASES[case]
    kwargs = {"t_end": 60.0, "dt": 0.25, **kwargs}
    assert_same_bits(SEIRParams(**fields), **kwargs)


def test_zero_clamp_is_reached_and_identical():
    """gamma * dt = 3 is outside RK4's stability region: compartments
    overshoot below zero and the clamp fires — same bits either way."""
    params = SEIRParams(beta=0.5, sigma=0.25, gamma=3.0, population=10.0)
    result = assert_same_bits(params, initial_infected=5.0, t_end=100.0, dt=1.0)
    assert result.S[0] > 0 and np.any(result.S[1:] == 0.0)
    for name in FIELDS:
        assert np.all(getattr(result, name) >= 0.0)


def test_argument_types_do_not_change_the_bits():
    """ints and numpy scalars are coerced once at entry; the trajectory
    is the one floats give, under both implementations."""
    as_float = simulate_seir(
        SEIRParams(beta=1.0, sigma=0.25, gamma=0.2, population=100000.0),
        initial_infected=5.0,
        initial_exposed=2.0,
        initial_recovered=1.0,
        t_end=50.0,
        dt=1.0,
    )
    variants = [
        (
            SEIRParams(beta=1, sigma=0.25, gamma=0.2, population=100000),
            dict(initial_infected=5, initial_exposed=2, initial_recovered=1,
                 t_end=50, dt=1),
        ),
        (
            SEIRParams(
                beta=np.float64(1.0),
                sigma=np.float64(0.25),
                gamma=np.float64(0.2),
                population=np.float64(100000.0),
            ),
            dict(
                initial_infected=np.float64(5.0),
                initial_exposed=np.int64(2),
                initial_recovered=np.float32(1.0),
                t_end=np.float64(50.0),
                dt=np.float64(1.0),
            ),
        ),
    ]
    for params, kwargs in variants:
        result = assert_same_bits(params, **kwargs)
        for name in FIELDS:
            assert np.array_equal(getattr(result, name), getattr(as_float, name))


@pytest.mark.parametrize("population", [100_000.0, 250_000.0])
def test_calibration_loss_on_the_e2e_shape(population):
    """The benchmark's task: 120 days, dt = 0.25, stock surveillance
    model.  The loss must equal the one computed through the reference
    integrator and the objective's former private delay smoothing."""
    rng = np.random.default_rng(7)
    truth = SEIRParams(beta=0.6, sigma=0.3, gamma=0.2, population=population)
    sim = reference_simulate_seir(truth, initial_infected=5.0, t_end=120.0, dt=0.25)
    daily = sim.incidence[1:].reshape(120, 4).sum(axis=1)
    model = SurveillanceModel()
    observed = generate_surveillance(daily, model, rng)
    problem = CalibrationProblem(observed, population, model)
    for _ in range(10):
        theta = np.array([rng.uniform(lo, hi) for lo, hi in problem.bounds])
        expected = reference_expected_cases(problem, theta)
        assert np.array_equal(problem.expected_cases(theta), expected)
        assert problem.loss(theta) == poisson_deviance(observed, expected)


@given(
    beta=st.floats(0.0, 2.0),
    sigma=st.floats(0.0, 1.0),
    gamma=st.floats(0.0, 1.0),
    population=st.floats(10.0, 1e7),
    seeded_frac=st.floats(0.0, 1.0),
    dt=st.sampled_from([0.1, 0.25, 0.5, 1.0]),
)
@settings(max_examples=60, deadline=None)
def test_invariants_of_the_scalar_path(beta, sigma, gamma, population, seeded_frac, dt):
    params = SEIRParams(beta=beta, sigma=sigma, gamma=gamma, population=population)
    result = simulate_seir(
        params, initial_infected=seeded_frac * population, t_end=80.0, dt=dt
    )
    for name in ("S", "E", "I", "R"):
        assert np.all(getattr(result, name) >= 0.0)
    assert np.all(np.diff(result.S) <= 0.0)
    total = result.S + result.E + result.I + result.R
    assert np.allclose(total, population, rtol=1e-9, atol=0.0)
