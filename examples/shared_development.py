"""The Shared Development Environment and operations tooling.

Exercises the paper's §II-B3 capabilities plus the §VII future-work
items this reproduction implements:

1. a workflow is authored as a portable JSON spec, "shipped" to another
   group, rebuilt, and run identically (§II-B3a);
2. the calibrated model is published to the registry *with its
   validation data*; re-validation detects a simulated regression
   (§II-B3b);
3. worker pools run as PSI/J-managed pilot jobs with active status
   monitoring and remote termination (§VII);
4. a particle filter assimilates the daily case stream and issues a
   forecast — the continuously-running analysis of §II-A2.

Run:  python examples/shared_development.py
"""

from __future__ import annotations

import json

import numpy as np

from repro.core import EQSQL
from repro.db import SqliteTaskStore
from repro.epi import ParticleFilter, ParticleFilterConfig, SEIRParams, simulate_stochastic_seir
from repro.sched import Cluster, ClusterSpec, Scheduler
from repro.sched.psij import JobSpec, LocalSchedulerExecutor, managed_pool_job
from repro.sde import ModelRegistry, WorkflowSpec, run_workflow
from repro.pools import PoolConfig, PythonTaskHandler


# -- module-level functions: the currency of portable specs -----------------

def attack_rate_task(params: dict) -> dict:
    """Estimate a scenario's attack rate from stochastic replicates."""
    seir = SEIRParams(
        beta=params["beta"], sigma=0.25, gamma=0.2, population=20_000
    )
    rng = np.random.default_rng(params["seed"])
    rates = [
        simulate_stochastic_seir(seir, rng, initial_infected=5, days=150).attack_rate()
        for _ in range(params["replicates"])
    ]
    return {"attack_rate_mean": float(np.mean(rates)), "n": len(rates)}


_MODEL_STATE = {"drift": 0.0}


def scenario_model(payload: dict) -> dict:
    """The 'published model': attack-rate estimate for a beta scenario."""
    value = attack_rate_task(
        {"beta": payload["beta"], "seed": 42, "replicates": 5}
    )["attack_rate_mean"]
    return {"attack_rate": value + _MODEL_STATE["drift"]}


def main() -> None:
    # --- 1. share a workflow as a JSON spec -----------------------------------
    spec = WorkflowSpec(name="scenario-sweep", version="1.0",
                        parameters={"scope": "county"})
    spec.add_task_type(0, attack_rate_task, n_workers=3)
    shipped = spec.to_json()
    print(f"workflow spec ({len(shipped)} bytes of JSON) shipped to another group")

    received = WorkflowSpec.from_json(shipped)
    eq = EQSQL(SqliteTaskStore())
    betas = [0.25, 0.4, 0.55, 0.7]
    results = run_workflow(
        received, eq,
        payloads={0: [json.dumps({"beta": b, "seed": 7, "replicates": 4})
                      for b in betas]},
        timeout=120,
    )
    for beta, result in zip(betas, results[0]):
        print(f"  beta={beta:.2f} -> attack rate {json.loads(result)['attack_rate_mean']:.3f}")
    eq.close()

    # --- 2. publish the model with validation; detect a regression -------------
    registry = ModelRegistry()
    expected = scenario_model({"beta": 0.5})
    registry.publish(
        "scenario-model", "1.0", scenario_model,
        cases=[("beta-0.5", {"beta": 0.5}, expected)],
        rtol=1e-9,
    )
    print(f"\npublished scenario-model v1.0: {registry.validate('scenario-model').summary()}")
    _MODEL_STATE["drift"] = 0.05  # a bad refactor lands
    report = registry.validate("scenario-model")
    print(f"after code drift:            {report.summary()}")
    print(f"  regression detail: {report.regressions[0].mismatches[0]}")
    _MODEL_STATE["drift"] = 0.0

    # --- 3. PSI/J-managed worker pool ------------------------------------------
    scheduler = Scheduler(Cluster(ClusterSpec("bebop", n_nodes=2))).start()
    executor = LocalSchedulerExecutor(scheduler).start()
    eq2 = EQSQL(SqliteTaskStore())
    futures = eq2.submit_tasks(
        "psij-demo", 0,
        [json.dumps({"beta": 0.5, "seed": i, "replicates": 2}) for i in range(6)],
    )
    handle, stop = managed_pool_job(
        executor, eq2, PythonTaskHandler(attack_rate_task),
        PoolConfig(work_type=0, n_workers=2, name="managed-pool"),
        spec=JobSpec(name="managed-pool", nodes=1, walltime=120),
    )
    transitions: list[str] = []
    handle.on_status(lambda _h, s: transitions.append(s.value))
    from repro.core import as_completed

    done = list(as_completed(futures, timeout=60, delay=0.02))
    stop()  # remote termination through the portable layer
    final = handle.wait(timeout=30)
    print(f"\nPSI/J pool job: {len(done)} tasks done; transitions {transitions}; "
          f"final state {final.value}; pool reported {handle.native.result} completions")
    executor.stop()
    scheduler.shutdown()
    eq2.close()

    # --- 4. continuously running assimilation -----------------------------------
    truth = SEIRParams(beta=0.5, sigma=0.25, gamma=0.2, population=50_000)
    rng = np.random.default_rng(3)
    epidemic = simulate_stochastic_seir(truth, rng, initial_infected=10, days=60)
    observed = rng.binomial(epidemic.incidence[1:].astype(int), 0.3).astype(float)

    pf = ParticleFilter(
        ParticleFilterConfig(
            n_particles=400, population=50_000, sigma=0.25, gamma=0.2,
            reporting_rate=0.3, initial_infected=10,
        ),
        np.random.default_rng(11),
    )
    pf.run(observed)
    beta_mean, beta_std = pf.beta_posterior()
    forecast = pf.forecast(7)
    print(f"\nassimilated 60 days of cases: beta posterior "
          f"{beta_mean:.3f} ± {beta_std:.3f} (truth 0.500)")
    print(f"7-day reported-case forecast: {np.round(forecast, 1)}")


if __name__ == "__main__":
    main()
