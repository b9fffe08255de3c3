"""Asynchronous calibration of a SEIR model against surveillance data.

The domain workflow OSPREY exists for: synthetic case counts are
published by a (simulated) health-department portal, ingested and
curated through the provenance-tracked data pipeline, and a SEIR model
is calibrated to them by the asynchronous ME driver running over a
worker pool — with GPR reprioritization steering evaluation order
toward promising parameter sets.

Run:  python examples/epi_calibration.py
"""

from __future__ import annotations

import numpy as np

from repro.core import EQSQL
from repro.data import (
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
    SEIRParams,
    SurveillanceModel,
    generate_surveillance,
    simulate_seir,
)
from repro.me import GPRReprioritizer, latin_hypercube, run_async_optimization
from repro.pools import PoolConfig, PythonTaskHandler, ThreadedWorkerPool
from repro.store import MemoryConnector, Store
from repro.util.ids import short_id

TRUE_PARAMS = SEIRParams(beta=0.52, sigma=0.25, gamma=0.22, population=100_000)
DAYS = 100
N_SAMPLES = 250
WORK_TYPE = 0


def make_observed_data() -> np.ndarray:
    """Ground truth epidemic -> noisy, delayed, under-reported counts."""
    result = simulate_seir(TRUE_PARAMS, initial_infected=5, t_end=float(DAYS), dt=0.25)
    steps = int(round(1 / 0.25))
    daily_incidence = result.incidence[1:].reshape(DAYS, steps).sum(axis=1)
    surveillance = SurveillanceModel(reporting_rate=0.3, delay_mean=2.0, dispersion=10.0)
    observed = generate_surveillance(
        daily_incidence, surveillance, np.random.default_rng(2020)
    )
    # Inject the pathologies the curation pipeline exists for.
    observed[40] = np.nan  # missing reporting day
    observed[60] *= 20  # bulk-correction spike
    return observed


def main() -> None:
    # --- Ingest and curate the surveillance stream ----------------------------
    portal = DataSource("county-health-portal")
    portal.publish("daily-cases", make_observed_data())

    staging_name = short_id("staging")
    staging = Store(staging_name, MemoryConnector(staging_name))
    provenance = ProvenanceLog()
    ingestor = StreamIngestor(portal, staging, provenance=provenance)
    (version,) = ingestor.poll()
    print(f"ingested {version.key} (hash {version.content_hash})")

    pipeline = CurationPipeline([fill_missing, clip_outliers(4.0), rolling_mean(7)])
    curated = pipeline.run(
        np.asarray(ingestor.staged_payload("daily-cases"), dtype=float),
        provenance,
        version.key,
    )
    lineage = provenance.lineage(curated.final_artifact)
    print("curation lineage:", " -> ".join(r.operation for r in lineage))

    # --- Calibration problem as a worker-pool task -----------------------------
    problem = CalibrationProblem(
        observed=curated.series,
        population=TRUE_PARAMS.population,
        surveillance=SurveillanceModel(reporting_rate=0.3, delay_mean=2.0),
        initial_infected=5,
    )
    eq = EQSQL(SqliteTaskStore())
    pool = ThreadedWorkerPool(
        eq,
        PythonTaskHandler(problem.task_function),
        PoolConfig(work_type=WORK_TYPE, n_workers=4, name="calib-pool"),
    ).start()

    # --- Asynchronous ME loop with GPR reprioritization -------------------------
    rng = np.random.default_rng(11)
    samples = latin_hypercube(rng, N_SAMPLES, problem.bounds)
    result = run_async_optimization(
        eq,
        "seir-calibration",
        WORK_TYPE,
        samples,
        reprioritizer=GPRReprioritizer(optimize_hyperparameters=False, seed=1),
        batch_completed=20,
        timeout=300,
    )
    pool.stop()
    eq.close()
    MemoryConnector.drop_space(staging_name)

    best = result.best_x
    truth_loss = problem.loss(
        np.array([TRUE_PARAMS.beta, TRUE_PARAMS.sigma, TRUE_PARAMS.gamma])
    )
    print(f"\nevaluated {len(result.y)} parameter sets "
          f"({len(result.reprioritizations)} GPR reprioritizations)")
    print(f"best loss {result.best_y:.1f} at "
          f"beta={best[0]:.3f} sigma={best[1]:.3f} gamma={best[2]:.3f}")
    print(f"truth:    loss {truth_loss:.1f} at "
          f"beta={TRUE_PARAMS.beta:.3f} sigma={TRUE_PARAMS.sigma:.3f} "
          f"gamma={TRUE_PARAMS.gamma:.3f}")
    print(f"implied R0: fit={best[0] / best[2]:.2f}  true={TRUE_PARAMS.r0:.2f}")
    print("(beta and gamma are only weakly identified from case counts; "
          "their ratio R0 is the calibrated quantity)")


if __name__ == "__main__":
    main()
