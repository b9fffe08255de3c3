"""Synthetic surveillance data.

The paper's data-ingestion requirements (§II-B2) are driven by real
surveillance streams being "heterogeneous, changing, and incomplete":
under-reporting, reporting delay, and overdispersed noise.  This module
generates synthetic case-count streams with exactly those pathologies
from a ground-truth epidemic, so calibration examples and the data
pipelines have realistic inputs with a known answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SurveillanceModel:
    """Observation process applied to true daily incidence.

    ``reporting_rate``: fraction of true infections ever reported;
    ``delay_mean``: mean reporting delay in days (geometric);
    ``dispersion``: negative-binomial k (smaller = noisier; ``inf``
    reduces to Poisson).
    """

    reporting_rate: float = 0.3
    delay_mean: float = 2.0
    dispersion: float = 10.0

    def __post_init__(self) -> None:
        if not 0 < self.reporting_rate <= 1:
            raise ValueError("reporting_rate must be in (0, 1]")
        if self.delay_mean < 0:
            raise ValueError("delay_mean must be nonnegative")
        if self.dispersion <= 0:
            raise ValueError("dispersion must be positive")


def apply_reporting_delay(expected: np.ndarray, delay_mean: float) -> np.ndarray:
    """Distribute each day's expected reports over future days.

    Delays are geometric with mean ``delay_mean`` days, truncated at 30
    and renormalised.  The one delay kernel: the generator and the
    calibration objective's observation model both call it, so what is
    fitted is what was generated.
    """
    if delay_mean == 0:
        return expected
    days = expected.shape[0]
    p = 1.0 / (1.0 + delay_mean)  # geometric success prob
    weights = p * (1 - p) ** np.arange(min(days, 30))
    weights /= weights.sum()
    delayed = np.zeros(days)
    for lag, w in enumerate(weights):
        delayed[lag:] += expected[: days - lag] * w
    return delayed


def generate_surveillance(
    incidence: np.ndarray,
    model: SurveillanceModel,
    rng: np.random.Generator,
) -> np.ndarray:
    """Observed daily case counts from true daily ``incidence``.

    Pipeline: thin by the reporting rate, shift each reported case by a
    geometric delay, then add negative-binomial observation noise via
    the gamma-Poisson mixture.
    """
    incidence = np.asarray(incidence, dtype=float)
    if np.any(incidence < 0):
        raise ValueError("incidence must be nonnegative")
    delayed = apply_reporting_delay(
        incidence * model.reporting_rate, model.delay_mean
    )

    # Negative binomial noise: Poisson with gamma-distributed rate.
    k = model.dispersion
    if np.isinf(k):
        return rng.poisson(delayed).astype(float)
    rates = np.where(
        delayed > 0, rng.gamma(shape=k, scale=np.maximum(delayed, 1e-12) / k), 0.0
    )
    return rng.poisson(rates).astype(float)
