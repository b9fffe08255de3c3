"""Timing statistics straight from the EMEWS DB.

The tasks table stamps creation, start, and stop for every task, so the
database itself is a telemetry source: queue wait (created → start) and
runtime (start → stop) distributions per experiment and per pool — the
operational numbers a deployment watches without any in-process tracing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.eqsql import EQSQL
from repro.db.schema import TaskStatus


@dataclass(frozen=True)
class TimingSummary:
    """Distribution summary of one duration series (seconds)."""

    count: int
    mean: float
    median: float
    p95: float
    max: float

    @classmethod
    def from_values(cls, values) -> "TimingSummary":
        import numpy as np  # only this reduction needs it

        # Accept any sequence, not just ndarrays — callers pass plain
        # lists, and an empty list has no .size.
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            return cls(count=0, mean=0.0, median=0.0, p95=0.0, max=0.0)
        return cls(
            count=int(values.size),
            mean=float(values.mean()),
            median=float(np.median(values)),
            p95=float(np.percentile(values, 95)),
            max=float(values.max()),
        )


@dataclass
class ExperimentTiming:
    """Queue-wait and runtime distributions for one experiment."""

    exp_id: str
    queue_wait: TimingSummary
    runtime: TimingSummary
    per_pool_completed: dict[str, int]
    n_incomplete: int


def task_timing_stats(eqsql: EQSQL, exp_id: str) -> ExperimentTiming:
    """Compute timing distributions for an experiment's completed tasks.

    Queue wait is ``time_start - time_created`` (how long the task sat
    on the output queue — the latency the batch/threshold policy and
    pool capacity jointly set); runtime is ``time_stop - time_start``.
    """
    waits: list[float] = []
    runtimes: list[float] = []
    per_pool: dict[str, int] = {}
    incomplete = 0
    for eq_task_id in eqsql.store.tasks_for_experiment(exp_id):
        row = eqsql.task_info(eq_task_id)
        if row.eq_status != TaskStatus.COMPLETE or row.time_start is None:
            incomplete += 1
            continue
        waits.append(row.time_start - row.time_created)
        if row.time_stop is not None:
            runtimes.append(row.time_stop - row.time_start)
        pool = row.worker_pool or "?"
        per_pool[pool] = per_pool.get(pool, 0) + 1
    return ExperimentTiming(
        exp_id=exp_id,
        queue_wait=TimingSummary.from_values(waits),
        runtime=TimingSummary.from_values(runtimes),
        per_pool_completed=dict(sorted(per_pool.items())),
        n_incomplete=incomplete,
    )
