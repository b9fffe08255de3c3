"""PERF-RECOVER — fault-recovery cost.

How fast the platform puts a dead pool's work back on the queue: finding
orphaned RUNNING tasks and requeueing them, as a function of experiment
size — the time-to-repair component of the §IV-B fault-tolerance story.
"""

from __future__ import annotations

from repro.core import EQSQL
from repro.core.recovery import find_orphaned_tasks, requeue_tasks
from repro.db import SqliteTaskStore

N_TASKS = 1000
N_ORPHANED = 200


def test_find_and_requeue_orphans(benchmark):
    eq = EQSQL(SqliteTaskStore())
    eq.submit_tasks("exp", 0, ["{}"] * N_TASKS)

    def cycle():
        # A pool claims a slab of work, then "dies".
        eq.query_task(0, n=N_ORPHANED, worker_pool="doomed", timeout=0)
        orphans = find_orphaned_tasks(eq, "exp", worker_pool="doomed")
        assert len(orphans) == N_ORPHANED
        assert requeue_tasks(eq, orphans) == N_ORPHANED

    benchmark(cycle)
    eq.close()
