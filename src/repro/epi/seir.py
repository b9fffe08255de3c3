"""Deterministic SEIR compartmental model.

The classic four-compartment ODE::

    dS/dt = -beta * S * I / N
    dE/dt =  beta * S * I / N - sigma * E
    dI/dt =  sigma * E - gamma * I
    dR/dt =  gamma * I

integrated with a self-contained fixed-step RK4 (no black-box solver:
the integrator is part of the substrate and is tested against known
invariants — population conservation, monotone S, R0 threshold).

The integrator runs on Python floats, not 4-element arrays: the state is
four numbers, and on arrays that short numpy dispatch was ~90 % of a
run's cost, all of it holding the GIL in a worker thread.  The operation
order is pinned bit-for-bit against the former vector implementation by
``tests/epi/test_seir_golden.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SEIRParams:
    """Epidemiological rates.

    ``beta``: transmission rate (contacts × infection probability /day);
    ``sigma``: 1 / latent period; ``gamma``: 1 / infectious period;
    ``population``: total N.
    """

    beta: float
    sigma: float
    gamma: float
    population: float

    def __post_init__(self) -> None:
        if min(self.beta, self.sigma, self.gamma) < 0:
            raise ValueError("rates must be nonnegative")
        if self.population <= 0:
            raise ValueError("population must be positive")

    @property
    def r0(self) -> float:
        """Basic reproduction number beta/gamma."""
        if self.gamma == 0:
            return float("inf")
        return self.beta / self.gamma


@dataclass
class SEIRResult:
    """Trajectories on a uniform time grid."""

    t: np.ndarray
    S: np.ndarray
    E: np.ndarray
    I: np.ndarray
    R: np.ndarray

    @property
    def incidence(self) -> np.ndarray:
        """New infections per step: the decrease of S (>= 0)."""
        inc = -np.diff(self.S, prepend=self.S[0])
        return np.maximum(inc, 0.0)

    def peak_infected(self) -> tuple[float, float]:
        """(time, value) of the infectious-compartment peak."""
        idx = int(np.argmax(self.I))
        return float(self.t[idx]), float(self.I[idx])

    def attack_rate(self) -> float:
        """Final fraction of the population ever infected."""
        n = self.S[0] + self.E[0] + self.I[0] + self.R[0]
        return float((n - self.S[-1]) / n)


def simulate_seir(
    params: SEIRParams,
    initial_infected: float = 1.0,
    initial_exposed: float = 0.0,
    initial_recovered: float = 0.0,
    t_end: float = 200.0,
    dt: float = 0.25,
) -> SEIRResult:
    """Integrate the SEIR ODE with RK4 on a fixed grid."""
    if t_end <= 0 or dt <= 0:
        raise ValueError("t_end and dt must be positive")
    if dt > t_end:
        raise ValueError("dt must not exceed t_end")
    seeded = initial_infected + initial_exposed + initial_recovered
    if seeded > params.population:
        raise ValueError("initial compartments exceed the population")
    steps = int(round(t_end / dt))
    t = np.linspace(0.0, steps * dt, steps + 1)
    # Python floats from here on: callers pass ints and np.float64, and
    # a loop left on numpy scalars pays the dispatch this kernel avoids.
    beta = float(params.beta)
    sigma = float(params.sigma)
    gamma = float(params.gamma)
    n = float(params.population)
    S = float(params.population - seeded)
    E = float(initial_exposed)
    I = float(initial_infected)
    R = float(initial_recovered)
    dt = float(dt)
    half_dt = 0.5 * dt
    rows = [(S, E, I, R)]
    for _ in range(steps):
        # Stage derivatives (dS, dE, dI, dR) = (-f, f - sE, sE - gI, gI).
        # dS is carried as f and subtracted: negation is exact, so
        # y - h * f has the bits of y + h * (-f).  R feeds nothing back,
        # so its stage states are never formed.
        f1 = beta * S * I / n
        sE1 = sigma * E
        gI1 = gamma * I
        dE1 = f1 - sE1
        dI1 = sE1 - gI1

        Ek = E + half_dt * dE1
        Ik = I + half_dt * dI1
        f2 = beta * (S - half_dt * f1) * Ik / n
        sE2 = sigma * Ek
        gI2 = gamma * Ik
        dE2 = f2 - sE2
        dI2 = sE2 - gI2

        Ek = E + half_dt * dE2
        Ik = I + half_dt * dI2
        f3 = beta * (S - half_dt * f2) * Ik / n
        sE3 = sigma * Ek
        gI3 = gamma * Ik
        dE3 = f3 - sE3
        dI3 = sE3 - gI3

        Ek = E + dt * dE3
        Ik = I + dt * dI3
        f4 = beta * (S - dt * f3) * Ik / n
        sE4 = sigma * Ek
        gI4 = gamma * Ik

        S = S - dt * (f1 + 2.0 * f2 + 2.0 * f3 + f4) / 6.0
        E = E + dt * (dE1 + 2.0 * dE2 + 2.0 * dE3 + (f4 - sE4)) / 6.0
        I = I + dt * (dI1 + 2.0 * dI2 + 2.0 * dI3 + (sE4 - gI4)) / 6.0
        R = R + dt * (gI1 + 2.0 * gI2 + 2.0 * gI3 + gI4) / 6.0
        # RK4 can produce tiny negatives near extinction; clamp so the
        # force of infection never flips sign.  (`< 0.0` rather than
        # max(): NaN and -0.0 pass through, as np.maximum(y, 0.0) does.)
        if S < 0.0:
            S = 0.0
        if E < 0.0:
            E = 0.0
        if I < 0.0:
            I = 0.0
        if R < 0.0:
            R = 0.0
        rows.append((S, E, I, R))
    y = np.array(rows)
    return SEIRResult(t=t, S=y[:, 0], E=y[:, 1], I=y[:, 2], R=y[:, 3])
