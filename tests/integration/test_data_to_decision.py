"""Integration: the data-to-decision pipeline OSPREY exists for.

Synthetic portal → ingestion (provenance) → curation → calibration over
a worker pool → model publication with validation → multi-resolution
ensemble forecast and particle-filter assimilation on the same stream.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import EQSQL
from repro.data import (
    ArtifactManager,
    CurationPipeline,
    DataSource,
    ProvenanceLog,
    StreamIngestor,
    clip_outliers,
    fill_missing,
    rolling_mean,
)
from repro.db import SqliteTaskStore
from repro.epi import (
    CalibrationProblem,
    MultiResolutionEnsemble,
    ParticleFilter,
    ParticleFilterConfig,
    SEIRParams,
    SurveillanceModel,
    generate_surveillance,
    simulate_seir,
)
from repro.me import latin_hypercube, run_async_optimization
from repro.pools import PoolConfig, PythonTaskHandler, ThreadedWorkerPool
from repro.sde import ModelRegistry
from repro.store import MemoryConnector, Store, register_store, unregister_store
from repro.util.ids import short_id

TRUE = SEIRParams(beta=0.55, sigma=0.25, gamma=0.22, population=50_000)
DAYS = 80
SURVEILLANCE = SurveillanceModel(reporting_rate=0.3, delay_mean=2.0)


def true_daily_incidence():
    result = simulate_seir(TRUE, initial_infected=5, t_end=float(DAYS), dt=0.25)
    return result.incidence[1:].reshape(DAYS, 4).sum(axis=1)


# Module-level so the registry can reference it by import path.
_PUBLISHED_PROBLEM: dict = {}


def calibrated_model_fn(payload):
    problem: CalibrationProblem = _PUBLISHED_PROBLEM["problem"]
    return {"loss": problem.loss(np.asarray(payload["theta"]))}


@pytest.fixture
def staging():
    name = short_id("staging")
    store = Store(name, MemoryConnector(name))
    register_store(store)
    yield store
    unregister_store(name)
    MemoryConnector.drop_space(name)


def test_data_to_decision_pipeline(staging):
    # --- 1. publish + ingest + curate ---------------------------------------
    rng = np.random.default_rng(17)
    observed_raw = generate_surveillance(true_daily_incidence(), SURVEILLANCE, rng)
    observed_raw[30] = np.nan
    observed_raw[55] *= 15

    portal = DataSource("portal")
    portal.publish("cases", observed_raw)
    provenance = ProvenanceLog()
    ingestor = StreamIngestor(portal, staging, provenance=provenance)
    (version,) = ingestor.poll()

    curated = CurationPipeline(
        [fill_missing, clip_outliers(4.0), rolling_mean(5)]
    ).run(np.asarray(ingestor.staged_payload("cases"), dtype=float), provenance, version.key)
    assert not np.any(np.isnan(curated.series))
    assert len(provenance.lineage(curated.final_artifact)) == 4

    # --- 2. calibrate over a worker pool ---------------------------------------
    problem = CalibrationProblem(
        observed=curated.series,
        population=TRUE.population,
        surveillance=SURVEILLANCE,
        initial_infected=5,
    )
    eq = EQSQL(SqliteTaskStore())
    pool = ThreadedWorkerPool(
        eq, PythonTaskHandler(problem.task_function),
        PoolConfig(work_type=0, n_workers=4),
    ).start()
    samples = latin_hypercube(np.random.default_rng(3), 60, problem.bounds)
    result = run_async_optimization(
        eq, "calib", 0, samples, batch_completed=20, timeout=120
    )
    pool.stop()
    eq.close()
    assert len(result.y) == 60
    best_theta = result.best_x
    # The calibrated loss beats the sample median comfortably.
    assert result.best_y < np.median(result.y) / 2

    # --- 3. checkpoint + publish with validation --------------------------------
    artifacts = ArtifactManager(staging, provenance=provenance)
    checkpoint = artifacts.save(
        {"theta": list(map(float, best_theta)), "loss": result.best_y},
        kind="calibrated-params",
        tags={"exp": "calib"},
        parents=(curated.final_artifact,),
    )
    assert artifacts.latest("calibrated-params").artifact_id == checkpoint.artifact_id

    _PUBLISHED_PROBLEM["problem"] = problem
    registry = ModelRegistry()
    registry.publish(
        "seir-county", "1.0", calibrated_model_fn,
        cases=[
            (
                "best-theta",
                {"theta": list(map(float, best_theta))},
                {"loss": float(result.best_y)},
            )
        ],
        rtol=1e-9,
    )
    assert registry.validate("seir-county").passed

    # --- 4. decision products: ensemble forecast + assimilation -----------------
    def ode_member(days):
        beta, sigma, gamma = best_theta
        params = SEIRParams(beta=beta, sigma=sigma, gamma=gamma, population=TRUE.population)
        run = simulate_seir(params, initial_infected=5, t_end=float(days), dt=0.5)
        daily = run.incidence[1:].reshape(days, 2).sum(axis=1)
        return daily * SURVEILLANCE.reporting_rate

    def persistence_member(days):
        last = float(curated.series[-1])
        fit = np.asarray(curated.series[: days - 14]) if days > 14 else np.full(days, last)
        return np.concatenate([fit, np.full(days - fit.shape[0], last)])

    ensemble = (
        MultiResolutionEnsemble()
        .add_member("calibrated-ode", ode_member)
        .add_member("persistence", persistence_member)
    )
    forecast = ensemble.forecast(curated.series, horizon=14)
    assert forecast.mean.shape == (14,)
    assert np.all(forecast.lower <= forecast.upper)

    pf = ParticleFilter(
        ParticleFilterConfig(
            n_particles=300,
            population=int(TRUE.population),
            sigma=0.25,
            gamma=0.22,
            reporting_rate=0.3,
            initial_infected=5,
        ),
        np.random.default_rng(8),
    )
    steps = pf.run(np.asarray(observed_raw_clean := np.nan_to_num(observed_raw)))
    assert len(steps) == DAYS
    beta_mean, beta_std = pf.beta_posterior()
    assert 0.2 < beta_mean < 1.2
    assert np.all(pf.forecast(7) >= 0)
