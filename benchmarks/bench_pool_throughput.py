"""PERF-POOL — end-to-end worker pool throughput (real threads).

Submits a batch of trivial tasks and drives a threaded pool to drain it:
measures the full submit → fetch(batch/threshold) → execute → report →
collect loop, i.e. the platform overhead per task when the task itself
is free.
"""

from __future__ import annotations

from repro.core import EQSQL, as_completed
from repro.db import SqliteTaskStore
from repro.pools import PoolConfig, PythonTaskHandler, ThreadedWorkerPool

N_TASKS = 200


def test_pool_end_to_end(benchmark):
    eq = EQSQL(SqliteTaskStore())
    pool = ThreadedWorkerPool(
        eq,
        PythonTaskHandler(lambda d: d),
        PoolConfig(work_type=0, n_workers=4, batch_size=8, poll_delay=0.001),
    ).start()

    def drain():
        futures = eq.submit_tasks("bench", 0, ["{}"] * N_TASKS)
        done = list(as_completed(futures, delay=0.001, timeout=60))
        assert len(done) == N_TASKS

    benchmark.pedantic(drain, rounds=3, iterations=1)
    pool.stop()
    eq.close()


def test_mpi_pool_end_to_end(benchmark):
    """The Swift/T-style MPI pool on the same workload."""
    from repro.core import EQ_STOP
    from repro.pools import run_mpi_pool

    def drain():
        eq = EQSQL(SqliteTaskStore())
        eq.submit_tasks("bench", 0, ["{}"] * N_TASKS)
        eq.submit_task("bench", 0, EQ_STOP, priority=-10)
        stats = run_mpi_pool(
            eq,
            PythonTaskHandler(lambda d: d),
            PoolConfig(work_type=0, n_workers=4, poll_delay=0.001),
            timeout=120,
        )
        assert stats.tasks_completed == N_TASKS
        eq.close()

    benchmark.pedantic(drain, rounds=3, iterations=1)
