"""Calibration objectives: the tasks OSPREY's queues carry.

A :class:`CalibrationProblem` packages observed surveillance data and a
forward model into a callable objective — parameter vector in, loss out
— plus the JSON task-handler wrapper that makes it runnable by any
worker pool.  The loss is the Poisson deviance between observed and
model-predicted reported cases, the standard count-data discrepancy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.epi.seir import SEIRParams, simulate_seir
from repro.epi.surveillance import SurveillanceModel, apply_reporting_delay


def poisson_deviance(observed: np.ndarray, expected: np.ndarray) -> float:
    """2 * sum[ obs*log(obs/exp) - (obs - exp) ], with 0*log0 = 0.

    Nonnegative; zero iff observed == expected elementwise.
    """
    observed = np.asarray(observed, dtype=float)
    expected = np.maximum(np.asarray(expected, dtype=float), 1e-9)
    if observed.shape != expected.shape:
        raise ValueError("observed and expected must have the same shape")
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where(
            observed > 0, observed * np.log(observed / expected), 0.0
        )
    return float(2.0 * np.sum(term - (observed - expected)))


@dataclass
class CalibrationProblem:
    """Calibrate (beta, sigma, gamma) of a SEIR model to daily cases.

    The forward model is the deterministic SEIR (fast, smooth — the
    surrogate-friendly choice); the observation model applies the known
    reporting rate and delay.  ``bounds`` defines the search box the ME
    algorithm samples.
    """

    observed: np.ndarray
    population: float
    surveillance: SurveillanceModel = field(default_factory=SurveillanceModel)
    initial_infected: float = 5.0
    bounds: tuple[tuple[float, float], ...] = (
        (0.1, 1.5),  # beta
        (0.1, 1.0),  # sigma
        (0.05, 1.0),  # gamma
    )

    def expected_cases(self, theta: np.ndarray) -> np.ndarray:
        """Model-predicted reported cases for parameters ``theta``."""
        beta, sigma, gamma = (float(v) for v in theta)
        params = SEIRParams(
            beta=beta, sigma=sigma, gamma=gamma, population=self.population
        )
        days = self.observed.shape[0]
        result = simulate_seir(
            params,
            initial_infected=self.initial_infected,
            t_end=float(days),
            dt=0.25,
        )
        # Daily incidence: aggregate the sub-daily grid.
        per_step = result.incidence
        steps_per_day = int(round(1.0 / 0.25))
        daily = per_step[1:].reshape(days, steps_per_day).sum(axis=1)
        # The (known) observation model, through the generator's own
        # delay kernel.
        return apply_reporting_delay(
            daily * self.surveillance.reporting_rate,
            self.surveillance.delay_mean,
        )

    def loss(self, theta: np.ndarray) -> float:
        """Poisson deviance of ``theta`` against the observed series."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (3,):
            raise ValueError(f"theta must have 3 entries, got shape {theta.shape}")
        low = np.array([b[0] for b in self.bounds])
        high = np.array([b[1] for b in self.bounds])
        if not np.all(np.isfinite(theta) & (theta >= low) & (theta <= high)):
            # Out-of-box proposals get a large finite penalty so the
            # surrogate stays informative near the boundary.  Phrased as
            # "unless inside" so NaN, which compares False both ways,
            # gets the penalty too instead of reaching the wire as NaN.
            return 1e12
        return poisson_deviance(self.observed, self.expected_cases(theta))

    def task_function(self, payload: dict) -> dict:
        """Worker-pool handler body: ``{'x': theta}`` -> ``{'y': loss}``."""
        return {"y": self.loss(np.asarray(payload["x"], dtype=float))}
