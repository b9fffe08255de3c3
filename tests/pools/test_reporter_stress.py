"""Real-thread exactly-once stress of the pool's result path.

The conformance fuzzer interleaves actors on one thread; it cannot see
a lost update between real workers racing for the flusher role, a
result stranded in the pending buffer, or an owned count that drifts.
Here eight OS threads push 2 000 no-op tasks through the combining
reporter with the switch interval shortened, over each access path —
and on the remote path a flaky store fails a share of ``report_batch``
calls before or *after* they were applied, so the per-item fallback
re-sends results the store may already hold.  Every task must be
reported exactly once, and the recorded journal must pass the fuzzer's
own lifecycle automaton.

Marked ``stress`` so CI re-runs it under ``--timeout``: a wedged flusher
must fail, not hang (every wait below is bounded as well).
"""

from __future__ import annotations

import random
import sys
from collections import Counter

import pytest

from repro.core import EQSQL, RemoteTaskStore, TaskService, as_completed
from repro.db import MemoryTaskStore, SqliteTaskStore
from repro.pools import PoolConfig, PythonTaskHandler, ThreadedWorkerPool
from repro.telemetry.journal import EV_REPORT, ROLE_DB, ROLE_POOL, Journal, set_journal
from repro.testing import FlakyTaskStore
from repro.testing.conformance.invariants import check_journal_invariants
from repro.util.clock import SystemClock

pytestmark = pytest.mark.stress

N_TASKS = 2000
N_WORKERS = 8


@pytest.fixture
def journal():
    """A recording global journal big enough for the whole run."""
    journal = Journal(capacity=1 << 18)
    previous = set_journal(journal)
    try:
        yield journal
    finally:
        set_journal(previous)


@pytest.fixture(params=["memory", "sqlite", "remote-flaky"])
def plane(request, tmp_path):
    """``(me_store, pool_store)`` for one access path."""
    if request.param == "memory":
        store = MemoryTaskStore()
        yield store, store
        store.close()
    elif request.param == "sqlite":
        store = SqliteTaskStore(str(tmp_path / "emews.db"))
        yield store, store
        store.close()
    else:
        backing = SqliteTaskStore(str(tmp_path / "emews.db"))
        service = TaskService(backing).start()
        me_store = RemoteTaskStore(*service.address)
        pool_store = FlakyTaskStore(
            RemoteTaskStore(*service.address),
            failure_rate=0.3,
            methods={"report_batch"},
            rng=random.Random(19),
        )
        yield me_store, pool_store
        me_store.close()
        pool_store.close()
        service.stop()
        backing.close()


def test_every_task_is_reported_exactly_once(plane, journal):
    me_store, pool_store = plane
    clock = SystemClock()  # one timebase, so the automaton can check time order
    me = EQSQL(me_store, clock=clock)
    pool = ThreadedWorkerPool(
        EQSQL(pool_store, clock=clock),
        PythonTaskHandler(lambda payload: payload, json_io=False),
        PoolConfig(work_type=0, n_workers=N_WORKERS, batch_size=64),
    )
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # more workers than cores, switching often
    try:
        # Submitted before the pool starts: a long-polling pop is stamped
        # with the time the poll *began*, which would sort it before the
        # enqueue that woke it.
        futures = me.submit_tasks("stress", 0, [str(i) for i in range(N_TASKS)])
        payload = {f.eq_task_id: str(i) for i, f in enumerate(futures)}
        pool.start()
        collected = [
            (f.eq_task_id, f.result(timeout=0)[1])
            for f in as_completed(futures, delay=0.001, timeout=60)
        ]
    finally:
        sys.setswitchinterval(switch_interval)
        pool.stop(timeout=30)
    assert not pool.is_alive()
    assert sorted(collected) == sorted(payload.items())  # each once, each right
    assert pool.tasks_completed == N_TASKS
    assert (pool.reports_lost, pool.tasks_failed, pool.owned()) == (0, 0, 0)

    records = journal.records()
    assert journal.dropped == 0
    assert check_journal_invariants(records) == []
    once = dict.fromkeys(payload, 1)
    for role in (ROLE_DB, ROLE_POOL):
        assert Counter(
            r.task_id for r in records if r.event == EV_REPORT and r.role == role
        ) == once, role
    if isinstance(pool_store, FlakyTaskStore):
        # A chaos run that injected nothing proves nothing.
        assert pool_store.faults_injected.get("report_batch", 0) > 0
