"""Tests for surveillance generation and calibration objectives."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.epi import (
    CalibrationProblem,
    SEIRParams,
    SurveillanceModel,
    generate_surveillance,
    poisson_deviance,
    simulate_seir,
)
from repro.util.serialization import json_dumps


def true_incidence(days=120, beta=0.5, population=1e5):
    params = SEIRParams(beta=beta, sigma=0.25, gamma=0.2, population=population)
    result = simulate_seir(params, initial_infected=5, t_end=float(days), dt=0.25)
    steps = int(round(1 / 0.25))
    return result.incidence[1:].reshape(days, steps).sum(axis=1)


class TestSurveillance:
    def test_reporting_rate_thins_counts(self):
        incidence = true_incidence()
        rng = np.random.default_rng(0)
        low = generate_surveillance(
            incidence, SurveillanceModel(reporting_rate=0.1, delay_mean=0), rng
        )
        rng = np.random.default_rng(0)
        high = generate_surveillance(
            incidence, SurveillanceModel(reporting_rate=0.9, delay_mean=0), rng
        )
        assert high.sum() > 5 * low.sum()

    def test_mean_preserved_roughly(self):
        incidence = true_incidence()
        rng = np.random.default_rng(1)
        observed = generate_surveillance(
            incidence, SurveillanceModel(reporting_rate=0.5, delay_mean=0), rng
        )
        assert observed.sum() == pytest.approx(0.5 * incidence.sum(), rel=0.05)

    def test_delay_shifts_peak_later(self):
        incidence = true_incidence()
        rng = np.random.default_rng(2)
        no_delay = generate_surveillance(
            incidence,
            SurveillanceModel(reporting_rate=0.5, delay_mean=0, dispersion=np.inf),
            rng,
        )
        rng = np.random.default_rng(2)
        delayed = generate_surveillance(
            incidence,
            SurveillanceModel(reporting_rate=0.5, delay_mean=5, dispersion=np.inf),
            rng,
        )
        assert int(np.argmax(delayed)) >= int(np.argmax(no_delay))

    def test_counts_nonnegative_integers(self):
        incidence = true_incidence()
        observed = generate_surveillance(
            incidence, SurveillanceModel(), np.random.default_rng(3)
        )
        assert np.all(observed >= 0)
        assert np.all(observed == np.round(observed))

    def test_dispersion_increases_variance(self):
        incidence = np.full(2000, 100.0)
        noisy = generate_surveillance(
            incidence,
            SurveillanceModel(reporting_rate=1.0, delay_mean=0, dispersion=2.0),
            np.random.default_rng(4),
        )
        poisson = generate_surveillance(
            incidence,
            SurveillanceModel(reporting_rate=1.0, delay_mean=0, dispersion=np.inf),
            np.random.default_rng(4),
        )
        assert np.var(noisy) > 2 * np.var(poisson)

    def test_invalid_model(self):
        with pytest.raises(ValueError):
            SurveillanceModel(reporting_rate=0)
        with pytest.raises(ValueError):
            SurveillanceModel(delay_mean=-1)
        with pytest.raises(ValueError):
            SurveillanceModel(dispersion=0)

    def test_negative_incidence_rejected(self):
        with pytest.raises(ValueError):
            generate_surveillance(
                np.array([-1.0]), SurveillanceModel(), np.random.default_rng(0)
            )


class TestPoissonDeviance:
    def test_zero_at_equality(self):
        obs = np.array([1.0, 5.0, 10.0])
        assert poisson_deviance(obs, obs) == pytest.approx(0.0, abs=1e-9)

    def test_positive_otherwise(self):
        assert poisson_deviance(np.array([5.0]), np.array([10.0])) > 0

    def test_handles_zero_observed(self):
        value = poisson_deviance(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
        assert value == pytest.approx(2 * 3.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            poisson_deviance(np.zeros(3), np.zeros(4))


class TestCalibrationProblem:
    @pytest.fixture
    def problem(self):
        truth = (0.5, 0.25, 0.2)
        incidence = true_incidence(days=100, beta=truth[0])
        surveillance = SurveillanceModel(reporting_rate=0.3, delay_mean=2.0)
        observed = generate_surveillance(
            incidence, surveillance, np.random.default_rng(11)
        )
        return (
            CalibrationProblem(
                observed=observed,
                population=1e5,
                surveillance=surveillance,
                initial_infected=5,
            ),
            truth,
        )

    def test_truth_scores_better_than_wrong_params(self, problem):
        prob, truth = problem
        loss_truth = prob.loss(np.array(truth))
        loss_wrong = prob.loss(np.array([1.2, 0.8, 0.6]))
        assert loss_truth < loss_wrong

    def test_out_of_bounds_penalized(self, problem):
        prob, _ = problem
        assert prob.loss(np.array([99.0, 0.25, 0.2])) == 1e12

    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_theta_penalized(self, problem, position, bad):
        """NaN compares False against both bounds; it must still get the
        finite penalty, and the handler's output must be strict JSON."""
        prob, truth = problem
        theta = list(truth)
        theta[position] = bad
        assert prob.loss(np.array(theta)) == 1e12
        out = prob.task_function({"x": theta})

        def refuse(name):
            raise AssertionError(f"non-JSON constant {name} on the wire")

        assert json.loads(json_dumps(out), parse_constant=refuse) == {"y": 1e12}

    def test_task_function_json_contract(self, problem):
        prob, truth = problem
        out = prob.task_function({"x": list(truth)})
        assert set(out) == {"y"}
        assert out["y"] == pytest.approx(prob.loss(np.array(truth)))

    def test_loss_shape_validation(self, problem):
        prob, _ = problem
        with pytest.raises(ValueError):
            prob.loss(np.array([0.5, 0.2]))

    def test_expected_cases_reasonable(self, problem):
        prob, truth = problem
        expected = prob.expected_cases(np.array(truth))
        assert expected.shape == prob.observed.shape
        assert np.all(expected >= 0)
        # Total expected reported cases should be near observed total.
        assert expected.sum() == pytest.approx(prob.observed.sum(), rel=0.3)
