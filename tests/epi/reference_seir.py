"""Reference SEIR integrator: the vector RK4 that ``repro.epi.seir`` ran
before it moved to scalars, kept verbatim so ``test_seir_golden.py`` can
demand bit-identical trajectories from the production kernel — plus the
calibration objective's observation model as it was when it carried its
own copy of the reporting-delay smoothing.

Do not "tidy" the arithmetic here: the operation order *is* the
specification.
"""

from __future__ import annotations

import numpy as np

from repro.epi.seir import SEIRParams, SEIRResult


def _deriv(params: SEIRParams, y: np.ndarray) -> np.ndarray:
    S, E, I, _R = y
    n = params.population
    force = params.beta * S * I / n
    return np.array(
        [
            -force,
            force - params.sigma * E,
            params.sigma * E - params.gamma * I,
            params.gamma * I,
        ]
    )


def reference_simulate_seir(
    params: SEIRParams,
    initial_infected: float = 1.0,
    initial_exposed: float = 0.0,
    initial_recovered: float = 0.0,
    t_end: float = 200.0,
    dt: float = 0.25,
) -> SEIRResult:
    """Integrate the SEIR ODE with RK4 on 4-element numpy arrays."""
    if t_end <= 0 or dt <= 0:
        raise ValueError("t_end and dt must be positive")
    if dt > t_end:
        raise ValueError("dt must not exceed t_end")
    seeded = initial_infected + initial_exposed + initial_recovered
    if seeded > params.population:
        raise ValueError("initial compartments exceed the population")
    steps = int(round(t_end / dt))
    t = np.linspace(0.0, steps * dt, steps + 1)
    y = np.empty((steps + 1, 4))
    y[0] = [
        params.population - seeded,
        initial_exposed,
        initial_infected,
        initial_recovered,
    ]
    for k in range(steps):
        yk = y[k]
        k1 = _deriv(params, yk)
        k2 = _deriv(params, yk + 0.5 * dt * k1)
        k3 = _deriv(params, yk + 0.5 * dt * k2)
        k4 = _deriv(params, yk + dt * k3)
        y[k + 1] = yk + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        # RK4 can produce tiny negatives near extinction; clamp so the
        # force of infection never flips sign.
        np.maximum(y[k + 1], 0.0, out=y[k + 1])
    return SEIRResult(t=t, S=y[:, 0], E=y[:, 1], I=y[:, 2], R=y[:, 3])


def reference_expected_cases(problem, theta: np.ndarray) -> np.ndarray:
    """``CalibrationProblem.expected_cases`` as it was when the objective
    carried its own copy of the reporting-delay smoothing, on the
    reference integrator."""
    beta, sigma, gamma = (float(v) for v in theta)
    params = SEIRParams(
        beta=beta, sigma=sigma, gamma=gamma, population=problem.population
    )
    days = problem.observed.shape[0]
    result = reference_simulate_seir(
        params,
        initial_infected=problem.initial_infected,
        t_end=float(days),
        dt=0.25,
    )
    per_step = result.incidence
    steps_per_day = int(round(1.0 / 0.25))
    daily = per_step[1:].reshape(days, steps_per_day).sum(axis=1)
    expected = daily * problem.surveillance.reporting_rate
    if problem.surveillance.delay_mean > 0:
        p = 1.0 / (1.0 + problem.surveillance.delay_mean)
        max_delay = min(days, 30)
        weights = p * (1 - p) ** np.arange(max_delay)
        weights /= weights.sum()
        smoothed = np.zeros(days)
        for lag, w in enumerate(weights):
            smoothed[lag:] += expected[: days - lag] * w
        expected = smoothed
    return expected
