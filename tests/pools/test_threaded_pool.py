"""End-to-end tests for the threaded worker pool."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.core import EQSQL, EQ_STOP, RemoteTaskStore, ResultStatus, TaskService, as_completed
from repro.core.constants import EQ_ABORT
from repro.db import SqliteTaskStore
from repro.pools import PoolConfig, PythonTaskHandler, ThreadedWorkerPool
from repro.telemetry import COUNT_BUCKETS, Journal, MetricsRegistry


@pytest.fixture
def eq():
    eqsql = EQSQL(SqliteTaskStore())
    yield eqsql
    eqsql.close()


def square_handler():
    return PythonTaskHandler(lambda d: {"y": d["x"] ** 2})


def submit_squares(eq, n, eq_type=0):
    payloads = [json.dumps({"x": i}) for i in range(n)]
    return eq.submit_tasks("exp", eq_type, payloads)


class TestExecution:
    def test_executes_all_tasks(self, eq):
        futures = submit_squares(eq, 25)
        config = PoolConfig(work_type=0, n_workers=4)
        pool = ThreadedWorkerPool(eq, square_handler(), config).start()
        done = list(as_completed(futures, timeout=20, delay=0.01))
        assert len(done) == 25
        for f in done:
            status, result = f.result(timeout=0)
            assert status == ResultStatus.SUCCESS
            x = json.loads(eq.task_info(f.eq_task_id).json_out)["x"]
            assert json.loads(result) == {"y": x**2}
        pool.stop()
        assert pool.tasks_completed == 25
        assert pool.tasks_failed == 0

    def test_only_consumes_own_work_type(self, eq):
        mine = submit_squares(eq, 3, eq_type=1)
        theirs = submit_squares(eq, 3, eq_type=2)
        config = PoolConfig(work_type=1, n_workers=2)
        with ThreadedWorkerPool(eq, square_handler(), config):
            done = list(as_completed(mine, timeout=10, delay=0.01))
            assert len(done) == 3
        # Other work type untouched.
        assert eq.queue_lengths(2)[0] == 3
        assert all(not f.done() for f in theirs)

    def test_failed_task_reports_error_payload(self, eq):
        def sometimes_fail(d):
            if d["x"] % 2 == 0:
                raise ValueError("even input")
            return {"ok": d["x"]}

        futures = submit_squares(eq, 6)
        config = PoolConfig(work_type=0, n_workers=2)
        pool = ThreadedWorkerPool(eq, PythonTaskHandler(sometimes_fail), config).start()
        done = list(as_completed(futures, timeout=10, delay=0.01))
        pool.stop()
        errors = 0
        for f in done:
            _, result = f.result(timeout=0)
            if "error" in json.loads(result):
                errors += 1
        assert errors == 3
        assert pool.tasks_failed == 3
        assert pool.tasks_completed == 3

    def test_worker_pool_name_recorded(self, eq):
        futures = submit_squares(eq, 2)
        config = PoolConfig(work_type=0, n_workers=1, name="bebop-pool")
        with ThreadedWorkerPool(eq, square_handler(), config):
            list(as_completed(futures, timeout=10, delay=0.01))
        assert eq.task_info(futures[0].eq_task_id).worker_pool == "bebop-pool"


class TestShutdown:
    def test_eq_stop_drains_and_stops(self, eq):
        futures = submit_squares(eq, 10)
        stop_future = eq.submit_task("exp", 0, EQ_STOP, priority=-100)
        config = PoolConfig(work_type=0, n_workers=3)
        pool = ThreadedWorkerPool(eq, square_handler(), config).start()
        # EQ_STOP has the lowest priority: all real tasks complete first.
        done = list(as_completed(futures, timeout=20, delay=0.01))
        assert len(done) == 10
        assert stop_future.result(timeout=10, delay=0.01) == (
            ResultStatus.SUCCESS,
            EQ_STOP,
        )
        pool.join(timeout=10)
        assert not pool.is_alive()

    def test_eq_abort_stops_quickly(self, eq):
        eq.submit_task("exp", 0, EQ_ABORT, priority=100)
        submit_squares(eq, 5)
        config = PoolConfig(work_type=0, n_workers=2)
        pool = ThreadedWorkerPool(eq, square_handler(), config).start()
        pool.join(timeout=10)
        assert not pool.is_alive()

    def test_explicit_stop(self, eq):
        config = PoolConfig(work_type=0, n_workers=2)
        pool = ThreadedWorkerPool(eq, square_handler(), config).start()
        pool.stop(timeout=10)
        assert not pool.is_alive()

    def test_idle_stop_does_not_wait_out_the_fetch(self):
        # stop() wakes the fetcher's long-poll; the stop flag must then
        # end the fetch, not re-issue the wait until FETCH_WAIT (0.5 s).
        store = SqliteTaskStore()
        eq = EQSQL(store)
        config = PoolConfig(work_type=0, n_workers=2)
        try:
            for _ in range(20):
                pool = ThreadedWorkerPool(eq, square_handler(), config).start()
                # The fetcher registers its wait, under the store lock,
                # in the same step that reads the wake epoch, so no wake
                # can slip in between.
                deadline = time.monotonic() + 5
                while store.waits.waiters < 1:
                    assert time.monotonic() < deadline, "fetch never waited"
                    time.sleep(0.001)
                t0 = time.perf_counter()
                pool.stop(timeout=10)
                elapsed = time.perf_counter() - t0
                assert not pool.is_alive()
                assert elapsed < 0.1, f"idle stop took {elapsed:.3f} s"
        finally:
            eq.close()

    def test_remote_idle_stop_does_not_wait_out_the_fetch(self):
        # Over a live service the fetch is parked server-side; stop()'s
        # wake_waiters half-closes its connection, the service drops
        # the request, and the fetch returns empty at once.
        backing = SqliteTaskStore()
        service = TaskService(backing).start()
        client = RemoteTaskStore(*service.address)
        eq = EQSQL(client)
        config = PoolConfig(work_type=0, n_workers=2)
        try:
            for _ in range(20):
                pool = ThreadedWorkerPool(eq, square_handler(), config).start()
                deadline = time.monotonic() + 5
                while service.g_waiters.value < 1:
                    assert time.monotonic() < deadline, "fetch never parked"
                    time.sleep(0.001)
                t0 = time.perf_counter()
                pool.stop(timeout=10)
                elapsed = time.perf_counter() - t0
                assert not pool.is_alive()
                assert elapsed < 0.1, f"remote idle stop took {elapsed:.3f} s"
        finally:
            client.close()
            service.stop()
            backing.close()

    def test_double_start_rejected(self, eq):
        config = PoolConfig(work_type=0, n_workers=1)
        pool = ThreadedWorkerPool(eq, square_handler(), config).start()
        with pytest.raises(RuntimeError):
            pool.start()
        pool.stop()


class TestEventDrivenRefill:
    """The fetcher and the drain wait on the owned count, not on
    ``poll_delay``: with ``poll_delay=5.0`` each test takes tens of
    seconds if anything on those paths still sleeps on it."""

    def test_sequential_tasks_never_wait_out_poll_delay(self, eq):
        config = PoolConfig(work_type=0, n_workers=1, batch_size=1, poll_delay=5.0)
        pool = ThreadedWorkerPool(eq, square_handler(), config).start()
        try:
            t0 = time.monotonic()
            for i in range(20):
                future = eq.submit_task("exp", 0, json.dumps({"x": i}))
                status, _ = future.result(timeout=30, delay=0.001)
                assert status == ResultStatus.SUCCESS
            assert time.monotonic() - t0 < 2.0
        finally:
            pool.stop(timeout=10)

    def test_eq_stop_drain_ends_when_the_last_result_lands(self, eq):
        gate = threading.Event()

        def held(d):
            assert gate.wait(10)
            return d

        config = PoolConfig(work_type=0, n_workers=1, batch_size=2, poll_delay=5.0)
        pool = ThreadedWorkerPool(eq, PythonTaskHandler(held), config).start()
        try:
            task = eq.submit_task("exp", 0, "{}", priority=1)
            stop = eq.submit_task("exp", 0, EQ_STOP)
            # The sentinel is reported as the fetcher stops fetching, so
            # from here it is draining on the one held task.
            assert stop.result(timeout=10, delay=0.001)[1] == EQ_STOP
            t0 = time.monotonic()
            gate.set()
            pool.join(timeout=10)
            assert not pool.is_alive()
            assert time.monotonic() - t0 < 2.0
            assert task.done()
        finally:
            gate.set()


class TestPolicyBehaviour:
    def test_owned_never_exceeds_batch(self, eq):
        observed_max = 0
        lock = threading.Lock()

        def slow(d):
            nonlocal observed_max
            with lock:
                observed_max = max(observed_max, pool.owned())
            return d

        submit_squares(eq, 30)
        config = PoolConfig(work_type=0, n_workers=2, batch_size=5)
        pool = ThreadedWorkerPool(eq, PythonTaskHandler(slow), config).start()
        while eq.queue_lengths(0)[0] > 0 or pool.owned() > 0:
            eq.clock.sleep(0.01)
        pool.stop()
        assert observed_max <= 5

    def test_trace_events_recorded(self, eq):
        journal = Journal(clock=eq.clock)
        metrics = MetricsRegistry()
        futures = submit_squares(eq, 8)
        config = PoolConfig(work_type=0, n_workers=2, name="traced")
        pool = ThreadedWorkerPool(
            eq, square_handler(), config, metrics=metrics, journal=journal
        ).start()
        list(as_completed(futures, timeout=10, delay=0.01))
        pool.stop()
        for future in futures:
            rows = journal.records(future.eq_task_id)
            assert [r.event for r in rows] == [
                "fetch", "run_start", "run_end", "report",
            ]
            assert {(r.role, r.source) for r in rows} == {("pool", "traced")}
        # Per-fetch sizes live in the histogram, not in the journal.
        fetch_sizes = metrics.histogram(
            "pool.fetch_batch_size", COUNT_BUCKETS
        ).snapshot()
        assert fetch_sizes["sum"] == 8

    def test_start_after_stop_rejected(self, eq):
        """A pool object is single-use, with or without a journal."""
        config = PoolConfig(work_type=0, n_workers=1)
        for journal in (None, Journal(clock=eq.clock)):
            pool = ThreadedWorkerPool(
                eq, square_handler(), config, journal=journal
            ).start()
            pool.stop()
            with pytest.raises(RuntimeError, match="already started"):
                pool.start()


class TestMultiplePools:
    def test_two_pools_share_queue_equitably(self, eq):
        # Tasks wait until a worker of each pool holds one: on no-op
        # tasks the first pool can drain the whole queue before the
        # second one's threads are even scheduled.
        seen: set[str] = set()
        both = threading.Event()

        def square(d):
            seen.add(threading.current_thread().name.split("-")[0])
            if len(seen) == 2:
                both.set()
            assert both.wait(10)
            return {"y": d["x"] ** 2}

        futures = submit_squares(eq, 40)
        pool_a = ThreadedWorkerPool(
            eq, PythonTaskHandler(square), PoolConfig(work_type=0, n_workers=2, name="a")
        ).start()
        pool_b = ThreadedWorkerPool(
            eq, PythonTaskHandler(square), PoolConfig(work_type=0, n_workers=2, name="b")
        ).start()
        done = list(as_completed(futures, timeout=20, delay=0.01))
        pool_a.stop()
        pool_b.stop()
        assert len(done) == 40
        pools = {eq.task_info(f.eq_task_id).worker_pool for f in done}
        assert pools == {"a", "b"}  # both pools did work
        assert pool_a.tasks_completed + pool_b.tasks_completed == 40
