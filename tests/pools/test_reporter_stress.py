"""Real-thread exactly-once stress of the pool's result path.

The conformance fuzzer interleaves actors on one thread; it cannot see
a lost update between real workers racing for the flusher role, a
result stranded in the pending buffer, or an owned count that drifts.
Here eight OS threads push 2 000 no-op tasks through the combining
reporter with the switch interval shortened, over each access path —
and on the remote path a flaky store fails a share of ``report_batch``
and fused ``report_pop`` calls before or *after* they were applied, so
the per-item fallback (one-element batches, never faulted) re-sends
results the store may already hold and a
refill the store claimed is lost to the pool until the lease reaper
requeues it.  Every task must be reported exactly once, and the
recorded journal must pass the fuzzer's own lifecycle automaton.  A
second test audits the fetch role itself: at most one claim in flight,
and never more owned-plus-asked than the batch size.  A third runs the
shared-store deployment, where the pool's threads write into the store
a service serves, and checks that every such write reaches a remote
collect parked on that service.

Marked ``stress`` so CI re-runs it under ``--timeout``: a wedged flusher
must fail, not hang (every wait below is bounded as well).
"""

from __future__ import annotations

import random
import sys
import threading
import time
from collections import Counter

import pytest

from repro.core import EQSQL, RemoteTaskStore, TaskService, as_completed
from repro.db import SqliteTaskStore
from repro.pools import PoolConfig, PythonTaskHandler, ThreadedWorkerPool
from repro.telemetry.journal import EV_REPORT, ROLE_DB, ROLE_POOL, Journal, set_journal
from repro.testing import FlakyTaskStore
from repro.testing.conformance.invariants import check_journal_invariants
from repro.util.clock import SystemClock

pytestmark = pytest.mark.stress

N_TASKS = 2000
N_WORKERS = 8
#: Lease on the remote-flaky path: a refill lost to an injected fault
#: is requeued by the service's reaper within this (plus its interval).
LEASE = 2.0


@pytest.fixture
def journal():
    """A recording global journal big enough for the whole run."""
    journal = Journal(capacity=1 << 18)
    previous = set_journal(journal)
    try:
        yield journal
    finally:
        set_journal(previous)


@pytest.fixture
def clock():
    """One timebase for ME, pool and reaper, so the automaton can check
    time order."""
    return SystemClock()


class FlakyFlushes(FlakyTaskStore):
    """Faults the flush RPCs — a coalesced ``report_batch`` and every
    ``report_pop`` — but not a one-element ``report_batch``: a lone
    result's flush and the per-item fallback's re-sends stay reliable,
    so every result reaches the store through the pool's own path."""

    def report_batch(self, reports, *, now=0.0, profiles=None):
        if len(reports) > 1:
            return super().report_batch(reports, now=now, profiles=profiles)
        return self.inner.report_batch(reports, now=now, profiles=profiles)


@pytest.fixture(params=["memory", "sqlite", "remote-flaky"])
def plane(request, db_path, clock):
    """``(me_store, pool_store, lease)`` for one access path."""
    if request.param != "remote-flaky":
        store = SqliteTaskStore(db_path(request.param))
        yield store, store, None
        store.close()
    else:
        backing = SqliteTaskStore(db_path("sqlite"))
        service = TaskService(backing, lease_reaper_interval=0.1, clock=clock).start()
        me_store = RemoteTaskStore(*service.address)
        pool_store = FlakyFlushes(
            RemoteTaskStore(*service.address),
            failure_rate=0.3,
            methods={"report_batch", "report_pop"},
            rng=random.Random(19),
        )
        yield me_store, pool_store, LEASE
        me_store.close()
        pool_store.close()
        service.stop()
        backing.close()


def test_every_task_is_reported_exactly_once(plane, journal, clock):
    me_store, pool_store, lease = plane
    me = EQSQL(me_store, clock=clock)
    pool = ThreadedWorkerPool(
        EQSQL(pool_store, clock=clock),
        PythonTaskHandler(lambda payload: payload, json_io=False),
        PoolConfig(
            work_type=0, n_workers=N_WORKERS, batch_size=64, lease_duration=lease
        ),
    )
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # more workers than cores, switching often
    try:
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
        assert pool_store.faults_injected.get("report_pop", 0) > 0


class RoleAudit(SqliteTaskStore):
    """Checks every claim against the pool's fetch-role invariant.

    A claim is a ``pop_out`` — the fetcher's, or the second half of a
    ``report_pop`` (which settles ``len(reports)`` owned tasks first).
    """

    def __init__(self, batch_size: int) -> None:
        super().__init__()
        self.batch_size = batch_size
        self.pool: ThreadedWorkerPool | None = None
        self.lock = threading.Lock()
        self.in_flight = 0
        self.claims = Counter()
        self.violations: list[str] = []
        self.settling = threading.local()

    def report_pop(self, reports, eq_type, n, **kwargs):
        self.settling.n = len(reports)
        try:
            return super().report_pop(reports, eq_type, n, **kwargs)
        finally:
            self.settling.n = 0

    def pop_out(self, eq_type, n=1, **kwargs):
        settling = getattr(self.settling, "n", 0)
        with self.lock:
            self.in_flight += 1
            self.claims["report_pop" if settling else "pop_out"] += 1
            if self.in_flight > 1:
                self.violations.append(f"{self.in_flight} claims in flight")
        try:
            # Nothing but this claim's holder can raise the owned count.
            owned = self.pool.owned() - settling
            if owned + n > self.batch_size:
                self.violations.append(f"owned {owned} + asked {n}")
            return super().pop_out(eq_type, n, **kwargs)
        finally:
            with self.lock:
                self.in_flight -= 1


def test_one_claim_in_flight_and_never_past_the_batch_size():
    batch_size = 2 * N_WORKERS
    store = RoleAudit(batch_size)
    eq = EQSQL(store)
    pool = ThreadedWorkerPool(
        eq,
        PythonTaskHandler(lambda payload: payload, json_io=False),
        PoolConfig(work_type=0, n_workers=N_WORKERS, batch_size=batch_size),
    )
    store.pool = pool
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        futures = eq.submit_tasks("role", 0, [str(i) for i in range(N_TASKS)])
        pool.start()
        done = list(as_completed(futures, delay=0.001, timeout=60))
    finally:
        sys.setswitchinterval(switch_interval)
        pool.stop(timeout=30)
    assert len(done) == N_TASKS and pool.tasks_completed == N_TASKS
    assert store.violations == []
    # Both claimants took the role: the fetcher, and flushes that found it free.
    assert store.claims["pop_out"] > 0 and store.claims["report_pop"] > 0
    assert pool.owned() == 0


def test_off_loop_reports_wake_every_parked_collect():
    """The shared-store deployment (``pools.lifecycle``): the pool's
    threads claim and report straight on the served store object while
    a remote ME's collects park on the service.  Each report must reach
    a parked collect through the wait registry's callback; a lost wake
    would leave the collect parked for its whole long-poll."""
    backing = SqliteTaskStore()
    service = TaskService(backing).start()
    me_store = RemoteTaskStore(*service.address)
    pool = ThreadedWorkerPool(
        EQSQL(backing),
        PythonTaskHandler(lambda payload: payload, json_io=False),
        PoolConfig(work_type=0, n_workers=N_WORKERS, batch_size=2 * N_WORKERS),
    )
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        ids = me_store.create_tasks("served", 0, [str(i) for i in range(N_TASKS)])
        pool.start()
        remaining, collected = set(ids), {}
        while remaining:
            t0 = time.monotonic()
            got = me_store.pop_in_any(sorted(remaining), wait=30.0)
            assert time.monotonic() - t0 < 10.0, "a parked collect missed its wake"
            collected.update(got)
            remaining -= {tid for tid, _ in got}
    finally:
        sys.setswitchinterval(switch_interval)
        pool.stop(timeout=30)
        me_store.close()
        service.stop()
        backing.close()
    assert not pool.is_alive()
    assert collected == {tid: str(i) for i, tid in enumerate(ids)}
    assert pool.tasks_completed == N_TASKS
