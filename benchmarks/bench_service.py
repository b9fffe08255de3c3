"""PERF-SVC — EMEWS service TCP round-trip costs.

The remote hop every federated deployment pays: EQSQL operations through
the JSON-over-TCP service versus direct in-process store calls.  The gap
is the per-operation WAN-protocol overhead (serialization + framing +
dispatch), which bounds how chatty an ME algorithm can afford to be and
motivates the batch operations of §V-B.  The wake-path benches time
the long-poll hop a pool's idle fetch pays on every task (a parked
remote ``pop_out`` ended by another client's create) and the one a
remote ME's collect pays when the pool shares the served store object
(a parked ``pop_in_any`` ended by a report written on another thread).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import EQSQL, RemoteTaskStore, TaskService
from repro.db import SqliteTaskStore

N = 100


@pytest.fixture
def remote_eq():
    backing = SqliteTaskStore()
    service = TaskService(backing).start()
    host, port = service.address
    store = RemoteTaskStore(host, port)
    eq = EQSQL(store)
    yield eq
    store.close()
    service.stop()
    backing.close()


@pytest.fixture
def local_eq():
    eq = EQSQL(SqliteTaskStore())
    yield eq
    eq.close()


def submit_pop_report(eq):
    futures = eq.submit_tasks("bench", 0, ["{}"] * N)
    while True:
        messages = eq.query_task(0, n=10, timeout=0)
        if isinstance(messages, dict):
            break
        for message in messages:
            eq.report_task(message["eq_task_id"], 0, "r")
    popped = eq.pop_completed_ids([f.eq_task_id for f in futures])
    assert len(popped) == N


def test_remote_service_cycle(benchmark, remote_eq):
    benchmark.pedantic(submit_pop_report, args=(remote_eq,), rounds=3, iterations=1)


def test_local_store_cycle(benchmark, local_eq):
    benchmark.pedantic(submit_pop_report, args=(local_eq,), rounds=3, iterations=1)


def test_remote_single_op_latency(benchmark, remote_eq):
    """One submit per call: the per-request protocol cost."""
    benchmark(lambda: remote_eq.submit_task("bench", 1, "{}"))


def test_remote_batch_submit_amortizes(benchmark, remote_eq):
    """One request carrying 100 tasks: the batch API's advantage."""
    benchmark(lambda: remote_eq.submit_tasks("bench", 2, ["{}"] * 100))


def test_remote_rpc_lockstep(benchmark, remote_eq):
    """N requests, N round trips: one request per exchange."""
    store = remote_eq.store
    benchmark(lambda: [store.queue_in_length() for _ in range(N)])


def _claimed_ids(eq, eq_type):
    eq.submit_tasks("bench", eq_type, ["{}"] * N)
    messages = eq.query_task(eq_type, n=N, timeout=5)
    return ([m["eq_task_id"] for m in messages],), {}


def test_remote_report_single(benchmark, remote_eq):
    """N results, one report RPC each: the pre-batching hot path."""

    def run(ids):
        for tid in ids:
            remote_eq.report_task(tid, 3, "r")

    benchmark.pedantic(
        run, setup=lambda: _claimed_ids(remote_eq, 3), rounds=3, iterations=1
    )


def test_remote_report_batched(benchmark, remote_eq):
    """The same N results in a single report_batch RPC — vs
    test_remote_report_single."""

    def run(ids):
        remote_eq.report_tasks([(tid, 4, "r") for tid in ids])

    benchmark.pedantic(
        run, setup=lambda: _claimed_ids(remote_eq, 4), rounds=3, iterations=1
    )


@pytest.fixture
def sqlite_service(tmp_path):
    backing = SqliteTaskStore(str(tmp_path / "bench.db"))
    service = TaskService(backing).start()
    creator = RemoteTaskStore(*service.address)
    fetcher = RemoteTaskStore(*service.address)
    yield service, creator, fetcher
    fetcher.close()
    creator.close()
    service.stop()
    backing.close()


def _park(service, call):
    """Start ``call`` (a wait RPC) in a thread and return once the
    service has parked it: ``(thread, results)``."""
    got: list = []
    thread = threading.Thread(target=lambda: got.append(call()))
    thread.start()
    deadline = time.monotonic() + 10.0
    while service.g_waiters.value < 1:
        assert time.monotonic() < deadline, "wait never parked"
        time.sleep(0.001)
    return thread, got


def test_remote_wake_path(benchmark, sqlite_service):
    """A ``pop_out(wait=...)`` parked on a sqlite-file service, ended by
    another client's one-task ``create_tasks``: create, wake, claim and
    the fetcher's answer.  Parking the fetch is set-up, not timed."""
    service, creator, fetcher = sqlite_service

    def park():
        return _park(
            service, lambda: fetcher.pop_out(0, 1, worker_pool="bench", wait=10.0)
        ), {}

    def wake(thread, got):
        [tid] = creator.create_tasks("bench", 0, ["{}"])
        thread.join(timeout=10.0)
        assert got == [[(tid, "{}")]]

    benchmark.pedantic(wake, setup=park, rounds=20, iterations=1)


def test_remote_callback_wake_path(benchmark, sqlite_service):
    """A ``pop_in_any(wait=...)`` parked on a sqlite-file service, ended
    by a ``report_batch`` written straight into the served store object
    from this thread, not the service loop's (as a pool sharing the
    store does): the wait registry's callback wakes the loop, which
    re-tries the collect.  Parking the collect is set-up, not timed."""
    service, _, fetcher = sqlite_service
    backing = service.store

    def park():
        [tid] = backing.create_tasks("bench", 0, ["{}"])
        assert backing.pop_out(0, 1, worker_pool="bench")
        thread, got = _park(service, lambda: fetcher.pop_in_any([tid], wait=10.0))
        return (thread, got, tid), {}

    def wake(thread, got, tid):
        backing.report_batch([(tid, 0, "r")])
        thread.join(timeout=10.0)
        assert got == [[(tid, "r")]]

    benchmark.pedantic(wake, setup=park, rounds=20, iterations=1)
