"""The paper's evaluation scenarios under virtual time.

- :func:`run_fig3` — Figure 3: one 33-worker pool consuming 750
  lognormal Ackley tasks under three fetch policies: (batch 50,
  threshold 1) oversubscribed; (33, 1) exactly subscribed; (33, 15)
  large threshold.  Expected shapes: top panel best utilization, middle
  slightly lower (a DB round trip per completion), bottom a saw-tooth
  with multi-second idle gaps.
- :func:`run_fig4` — Figure 4: the full federated workflow.  Worker
  pool 1 starts at t=0; GPR reprioritization runs after every 50
  completions (remote round-trip delay); pools 2 and 3 are *submitted*
  during reprioritizations 2 and 4 and begin only after a scheduler
  queue delay; all pools drain one output queue equitably.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.eqsql import EQSQL
from repro.db.sqlite_backend import SqliteTaskStore
from repro.sim.me_model import ReprioritizationTrace, SimMEAlgorithm
from repro.sim.pool_model import SimPoolConfig, SimWorkerPool
from repro.sim.workload import AckleyWorkload, RuntimeModel
from repro.simt.environment import Environment
from repro.telemetry.journal import Journal, JournalRecord
from repro.telemetry.timeseries import (
    ConcurrencySeries,
    concurrency_series,
    utilization_stats,
)

WORK_TYPE = 0


def _make_env(n_tasks: int) -> tuple[Environment, EQSQL, Journal]:
    """A virtual-time environment plus the journal its pools write to,
    sized for the three pool-role hops each task leaves."""
    env = Environment()
    eqsql = EQSQL(SqliteTaskStore(), clock=env.clock)
    return env, eqsql, Journal(clock=env.clock, capacity=max(1, 3 * n_tasks))


def complete_records(journal: Journal) -> list[JournalRecord]:
    """The journal's records, refusing a ring that evicted any: a
    concurrency series missing ``run_start`` rows would go negative."""
    records = journal.records()
    if journal.dropped > 0:
        raise RuntimeError(
            f"journal ring (capacity {journal.capacity}) dropped "
            f"{journal.dropped} records; concurrency series would be wrong"
        )
    return records


# ---------------------------------------------------------------------------
# Figure 3
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig3Config:
    """One Figure 3 panel."""

    batch_size: int
    threshold: int
    n_workers: int = 33
    n_tasks: int = 750
    runtime: RuntimeModel = RuntimeModel(mean=15.0, sigma=0.5)
    query_cost: float = 0.3
    poll_delay: float = 0.5
    seed: int = 2023

    def label(self) -> str:
        return f"batch={self.batch_size} threshold={self.threshold}"


@dataclass
class PanelResult:
    """Series and statistics for one panel."""

    config: Fig3Config
    series: ConcurrencySeries
    stats: dict[str, float]
    makespan: float
    n_fetches: int

    def label(self) -> str:
        return self.config.label()


def run_fig3_panel(config: Fig3Config) -> PanelResult:
    """Simulate one pool/policy combination to completion."""
    env, eqsql, journal = _make_env(config.n_tasks)
    workload = AckleyWorkload(
        n_tasks=config.n_tasks, runtime=config.runtime, seed=config.seed
    ).generate()
    futures = eqsql.submit_tasks("fig3", WORK_TYPE, workload.payloads)
    first_id = futures[0].eq_task_id

    pool = SimWorkerPool(
        env,
        eqsql,
        SimPoolConfig(
            name="pool-1",
            work_type=WORK_TYPE,
            n_workers=config.n_workers,
            batch_size=config.batch_size,
            threshold=config.threshold,
            query_cost=config.query_cost,
            poll_delay=config.poll_delay,
        ),
        runtime_fn=lambda tid, _p: float(workload.runtimes[tid - first_id]),
        journal=journal,
    ).start()

    while pool.tasks_completed < config.n_tasks:
        env.step()
    makespan = env.now
    pool.stop()
    env.run(until=pool.process)

    records = complete_records(journal)
    series = concurrency_series(records, source=pool.name, end=makespan)
    stats = utilization_stats(series, config.n_workers)
    return PanelResult(
        config=config, series=series, stats=stats, makespan=makespan, n_fetches=pool.fetches
    )


#: The three policies of Figure 3, top to bottom.
FIG3_PANELS: tuple[tuple[int, int], ...] = ((50, 1), (33, 1), (33, 15))


def run_fig3(
    n_tasks: int = 750, seed: int = 2023, runtime: RuntimeModel | None = None
) -> dict[str, PanelResult]:
    """All three Figure 3 panels, keyed by their policy label."""
    runtime = runtime if runtime is not None else RuntimeModel(mean=15.0, sigma=0.5)
    results: dict[str, PanelResult] = {}
    for batch, threshold in FIG3_PANELS:
        config = Fig3Config(
            batch_size=batch,
            threshold=threshold,
            n_tasks=n_tasks,
            seed=seed,
            runtime=runtime,
        )
        results[config.label()] = run_fig3_panel(config)
    return results


# ---------------------------------------------------------------------------
# Figure 4
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig4Config:
    """The federated three-pool workflow."""

    n_tasks: int = 750
    dim: int = 4
    n_workers: int = 33
    batch_size: int = 33
    threshold: int = 1
    repri_every: int = 50
    #: Reprioritization indices at which pools 2 and 3 are submitted.
    pool_submissions: tuple[int, ...] = (2, 4)
    #: Mean scheduler queue delay for the added pools (lognormal).
    queue_delay_mean: float = 15.0
    queue_delay_sigma: float = 0.4
    runtime: RuntimeModel = RuntimeModel(mean=15.0, sigma=0.5)
    query_cost: float = 0.3
    poll_delay: float = 0.5
    seed: int = 2023


@dataclass
class Fig4Result:
    """Everything Figure 4 plots."""

    config: Fig4Config
    makespan: float
    pool_names: list[str]
    #: Pool name -> (submit time, actual start time).
    pool_timing: dict[str, tuple[float, float]]
    #: Pool name -> tasks completed.
    pool_completed: dict[str, int]
    #: Pool name -> concurrency step function over the common horizon.
    pool_series: dict[str, ConcurrencySeries]
    reprioritizations: list[ReprioritizationTrace] = field(default_factory=list)
    #: Objective values in completion order (for the GPR-benefit check).
    completed_values: np.ndarray = field(default_factory=lambda: np.empty(0))

    def repri_start_times(self) -> list[float]:
        return [r.time_start for r in self.reprioritizations]

    def repri_gaps(self) -> np.ndarray:
        """Intervals between consecutive reprioritization starts."""
        times = self.repri_start_times()
        return np.diff(np.asarray(times))

    def best_trajectory(self) -> np.ndarray:
        return np.minimum.accumulate(self.completed_values)


def run_fig4(config: Fig4Config | None = None) -> Fig4Result:
    """Simulate the full §VI workflow."""
    config = config if config is not None else Fig4Config()
    env, eqsql, journal = _make_env(config.n_tasks)
    rng = np.random.default_rng(config.seed + 1)
    workload = AckleyWorkload(
        n_tasks=config.n_tasks,
        dim=config.dim,
        runtime=config.runtime,
        seed=config.seed,
    ).generate()

    def runtime_fn(tid: int, _payload: str) -> float:
        # The ME submits all tasks first; ids are 1..n_tasks in order.
        return float(workload.runtimes[tid - 1])

    def make_pool(name: str) -> SimWorkerPool:
        return SimWorkerPool(
            env,
            eqsql,
            SimPoolConfig(
                name=name,
                work_type=WORK_TYPE,
                n_workers=config.n_workers,
                batch_size=config.batch_size,
                threshold=config.threshold,
                query_cost=config.query_cost,
                poll_delay=config.poll_delay,
            ),
            runtime_fn=runtime_fn,
            journal=journal,
        )

    pools: list[SimWorkerPool] = [make_pool("pool-1")]
    pool_timing: dict[str, tuple[float, float]] = {}

    def submit_pool(name: str) -> None:
        """Submit a pool job: it starts after a scheduler queue delay."""
        submit_time = env.now
        delay = float(
            np.exp(
                rng.normal(
                    np.log(config.queue_delay_mean)
                    - 0.5 * config.queue_delay_sigma**2,
                    config.queue_delay_sigma,
                )
            )
        )
        pool = make_pool(name)
        pools.append(pool)
        # Record the submission now; a pool still waiting in the batch
        # queue when the workflow drains never gets a start time.
        pool_timing[name] = (submit_time, float("nan"))

        def job():
            yield env.timeout(delay)
            pool.start()
            pool_timing[name] = (submit_time, env.now)

        env.process(job())

    pending_names = [f"pool-{i + 2}" for i in range(len(config.pool_submissions))]

    def on_repri(index: int) -> None:
        if index in config.pool_submissions:
            position = config.pool_submissions.index(index)
            submit_pool(pending_names[position])

    me = SimMEAlgorithm(
        env,
        eqsql,
        WORK_TYPE,
        workload.points,
        workload.values,
        workload.payloads,
        repri_every=config.repri_every,
        poll_delay=config.poll_delay,
        on_reprioritization=on_repri,
    )
    me.start()
    pools[0].start()
    pool_timing["pool-1"] = (0.0, 0.0)

    env.run(until=me.process)
    makespan = env.now
    for pool in pools:
        pool.stop()
    for pool in pools:
        if pool.process is not None:
            env.run(until=pool.process)

    records = complete_records(journal)
    pool_names = [p.name for p in pools]
    return Fig4Result(
        config=config,
        makespan=makespan,
        pool_names=pool_names,
        pool_timing=pool_timing,
        pool_completed={p.name: p.tasks_completed for p in pools},
        pool_series={
            name: concurrency_series(records, source=name, end=makespan)
            for name in pool_names
        },
        reprioritizations=me.reprioritizations,
        completed_values=me.completed_values(),
    )
