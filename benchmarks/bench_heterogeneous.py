"""HET — heterogeneous worker pools matched to work types (§IV-D).

"An ME algorithm may have two types of tasks that need to be executed:
1) a multi-process MPI-based simulation model; and 2) an optimization
component that most efficiently runs on a GPU.  Two worker pools can be
launched and configured on resources appropriate for these two different
work types."

Scenario: 600 simulation tasks (work type SIM) stream through a
33-worker CPU pool; after every 50 simulation completions the ME submits
one ML task (work type ML) served by a small fast "GPU" pool.  The
bench verifies strict type matching (each pool only ever runs its own
type), that ML tasks never steal CPU-pool capacity, and reports both
pools' utilization.
"""

from __future__ import annotations

import numpy as np

from repro.core import EQSQL
from repro.db import SqliteTaskStore
from repro.sim import SimPoolConfig, SimWorkerPool
from repro.sim.scenarios import complete_records
from repro.simt import Environment
from repro.telemetry import Journal, concurrency_series, render_table, utilization_stats

SIM_TYPE, ML_TYPE = 0, 1
N_SIM = 600
ML_EVERY = 50


def run_heterogeneous():
    env = Environment()
    eqsql = EQSQL(SqliteTaskStore(), clock=env.clock)
    journal = Journal(clock=env.clock)
    rng = np.random.default_rng(7)
    sim_runtimes = rng.lognormal(np.log(15.0), 0.4, N_SIM)
    ml_runtime = 6.0

    def runtime_fn(tid, _payload):
        # ML tasks are submitted later; map sim ids to their runtimes.
        return float(sim_runtimes[tid - 1]) if tid <= N_SIM else ml_runtime

    cpu_pool = SimWorkerPool(
        env, eqsql,
        SimPoolConfig(name="cpu-pool", work_type=SIM_TYPE, n_workers=33),
        runtime_fn=runtime_fn, journal=journal,
    )
    gpu_pool = SimWorkerPool(
        env, eqsql,
        SimPoolConfig(name="gpu-pool", work_type=ML_TYPE, n_workers=4,
                      query_cost=0.1),
        runtime_fn=runtime_fn, journal=journal,
    )

    ml_submitted = [0]

    def me_process():
        futures = eqsql.submit_tasks("het", SIM_TYPE, ["{}"] * N_SIM)
        pending = {f.eq_task_id for f in futures}
        ml_pending: set[int] = set()
        done = 0
        since_ml = 0
        while pending or ml_pending:
            for tid, _ in eqsql.pop_completed_ids(sorted(pending)):
                pending.discard(tid)
                done += 1
                since_ml += 1
            for tid, _ in eqsql.pop_completed_ids(sorted(ml_pending)):
                ml_pending.discard(tid)
            if since_ml >= ML_EVERY and pending:
                since_ml = 0
                future = eqsql.submit_task("het", ML_TYPE, "{}")
                ml_pending.add(future.eq_task_id)
                ml_submitted[0] += 1
            yield env.timeout(0.5)

    me = env.process(me_process())
    cpu_pool.start()
    gpu_pool.start()
    env.run(until=me)
    makespan = env.now
    for pool in (cpu_pool, gpu_pool):
        pool.stop()
        env.run(until=pool.process)

    records = complete_records(journal)
    return {
        "eqsql": eqsql,
        "makespan": makespan,
        "cpu": cpu_pool,
        "gpu": gpu_pool,
        "ml_submitted": ml_submitted[0],
        "cpu_series": concurrency_series(records, source="cpu-pool", end=makespan),
        "gpu_series": concurrency_series(records, source="gpu-pool", end=makespan),
    }


def test_heterogeneous_work_type_matching(benchmark, report):
    result = benchmark.pedantic(run_heterogeneous, rounds=1, iterations=1)
    eqsql = result["eqsql"]
    cpu_stats = utilization_stats(result["cpu_series"], 33)
    gpu_stats = utilization_stats(result["gpu_series"], 4)

    report(
        "HET heterogeneous pools: 600 SIM tasks (CPU pool) + periodic ML "
        f"tasks (GPU pool), makespan {result['makespan']:.0f} virt s\n"
        + render_table(
            ["pool", "work type", "tasks", "utilization", "peak conc"],
            [
                ["cpu-pool", "SIM", result["cpu"].tasks_completed,
                 cpu_stats["utilization"], int(result["cpu_series"].counts.max())],
                ["gpu-pool", "ML", result["gpu"].tasks_completed,
                 gpu_stats["utilization"], int(result["gpu_series"].counts.max())],
            ],
        )
    )

    # Everything of both types completed.
    assert result["cpu"].tasks_completed == N_SIM
    assert result["gpu"].tasks_completed == result["ml_submitted"] > 5

    # Strict type matching: every task row names the right pool.
    for tid in eqsql.store.tasks_for_experiment("het"):
        row = eqsql.task_info(tid)
        expected = "cpu-pool" if row.eq_task_type == SIM_TYPE else "gpu-pool"
        assert row.worker_pool == expected

    # The ML pool never touched CPU capacity: the CPU pool's peak
    # concurrency is its own worker count, unaffected by ML submissions.
    assert int(result["cpu_series"].counts.max()) == 33
    assert int(result["gpu_series"].counts.max()) <= 4
    # CPU pool stayed busy throughout.
    assert cpu_stats["utilization"] > 0.85
