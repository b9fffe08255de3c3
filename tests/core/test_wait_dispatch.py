"""Event-driven dispatch through the service, client, and ME layers.

The store-level wait contract is covered by ``tests/db/test_wait.py``;
these tests prove the layers above plumb it end-to-end: the service
grants (and caps) ``wait_ms``, the client rides a dedicated wait channel
that never blocks lockstep RPCs, EQSQL/futures/pools long-poll, every
layer still drains when a store returns early and empty, and
``timeout=0`` stays one wait-less store call.  Timing bounds are
deliberately generous — each "prompt" assertion allows seconds where a
sleep-polling path would need tens of seconds.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.core import EQ_STOP, EQSQL, RemoteTaskStore, TaskService
from repro.core.constants import EQ_TIMEOUT, ResultStatus
from repro.core.futures import as_completed
from repro.db import SqliteTaskStore, waits
from repro.pools import (
    PoolConfig,
    PythonTaskHandler,
    ThreadedWorkerPool,
    run_mpi_pool,
)
from repro.util.clock import VirtualClock
from repro.util.errors import TimeoutError_

# Wall-clock assertions throughout; carry the ``timing`` marker so
# loaded CI machines can deselect with ``-m 'not timing'``.
pytestmark = pytest.mark.timing

PROMPT = 3.0
#: How long a helper may take to park / both-park under load.
PARK_DEADLINE = 10.0


class _WaitDroppingStore:
    """A real store behind a wrapper that cuts ``wait`` to ``cap``
    seconds, as a server cap does.  The default cap of 0 drops it:
    every pop returns at once, as after a shutdown wake.  Counts the
    pops, and the kwargs of each, so tests see the retries."""

    def __init__(self, inner, cap=0.0):
        self._inner = inner
        self._cap = cap
        self.pops: list[tuple[str, dict]] = []

    def _cut(self, name, kwargs):
        self.pops.append((name, dict(kwargs)))
        wait = kwargs.pop("wait", None)
        if wait is not None and self._cap > 0:
            kwargs["wait"] = min(wait, self._cap)
        return kwargs

    def pop_out(self, *args, **kwargs):
        return self._inner.pop_out(*args, **self._cut("pop_out", kwargs))

    def pop_in_any(self, *args, **kwargs):
        return self._inner.pop_in_any(
            *args, **self._cut("pop_in_any", kwargs)
        )

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _report_later(backing, n, delay=0.05):
    """Claim and report ``n`` tasks on a helper thread after ``delay``."""
    def worker():
        time.sleep(delay)
        for tid, _ in backing.pop_out(0, n, worker_pool="w", now=1.0):
            backing.report_batch([(tid, 0, f"r{tid}")], now=2.0)

    threading.Thread(target=worker).start()


@pytest.fixture
def service_stack():
    backing = SqliteTaskStore()
    service = TaskService(backing).start()
    client = RemoteTaskStore(*service.address)
    yield backing, service, client
    client.close()
    service.stop()
    backing.close()


def _park_one_waiter(service, call):
    """Start ``call`` in a thread and wait until the service parks it."""
    results = []
    thread = threading.Thread(target=lambda: results.append(call()))
    thread.start()
    deadline = time.monotonic() + PARK_DEADLINE
    while service.status_snapshot()["service"]["waiters"] < 1:
        assert time.monotonic() < deadline, "wait RPC never parked"
        time.sleep(0.005)
    return thread, results


class TestServiceWaitGrant:
    def test_remote_wait_wakes_on_create(self, service_stack):
        _, service, client = service_stack
        thread, results = _park_one_waiter(
            service,
            lambda: client.pop_out(0, 1, worker_pool="w", now=1.0, wait=10.0),
        )
        t0 = time.monotonic()
        [tid] = client.create_tasks("e", 0, ["p"], time_created=0.0)
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert time.monotonic() - t0 < PROMPT
        assert results == [[(tid, "p")]]

    def test_wait_grant_is_capped_by_max_wait_ms(self):
        backing = SqliteTaskStore()
        service = TaskService(backing, max_wait_ms=50).start()
        client = RemoteTaskStore(*service.address)
        try:
            t0 = time.monotonic()
            got = client.pop_out(0, 1, worker_pool="w", now=1.0, wait=10.0)
            elapsed = time.monotonic() - t0
            assert got == []
            assert elapsed < PROMPT  # 10s ask, 50ms grant
        finally:
            client.close()
            service.stop()
            backing.close()

    def test_wait_over_wait_dropping_store_is_parked(self):
        # The service parks the request itself, so it long-polls over
        # any store, even one that never blocks.
        backing = SqliteTaskStore()
        store = _WaitDroppingStore(backing)
        service = TaskService(store).start()
        client = RemoteTaskStore(*service.address)
        try:
            thread, results = _park_one_waiter(
                service,
                lambda: client.pop_out(0, 1, worker_pool="w", now=1.0, wait=10.0),
            )
            t0 = time.monotonic()
            [tid] = client.create_tasks("e", 0, ["p"], time_created=0.0)
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            assert time.monotonic() - t0 < PROMPT
            assert results == [[(tid, "p")]]
            assert all("wait" not in kwargs for _, kwargs in store.pops)
        finally:
            client.close()
            service.stop()
            backing.close()

    def test_write_from_another_handle_ends_a_parked_wait(self, tmp_path):
        """A writer the service never sees (a second handle on the same
        database file, as another process would be) still ends a parked
        remote wait, within the service's re-try tick."""
        path = str(tmp_path / "emews.db")
        served, other = SqliteTaskStore(path), SqliteTaskStore(path)
        service = TaskService(served).start()
        client = RemoteTaskStore(*service.address)
        try:
            thread, results = _park_one_waiter(
                service,
                lambda: client.pop_out(0, 1, worker_pool="w", now=1.0, wait=10.0),
            )
            t0 = time.monotonic()
            [tid] = other.create_tasks("e", 0, ["p"], time_created=0.0)
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            assert time.monotonic() - t0 < 0.5
            assert results == [[(tid, "p")]]
        finally:
            client.close()
            service.stop()
            other.close()
            served.close()

    def test_report_into_the_served_store_ends_a_parked_collect(
        self, service_stack, monkeypatch
    ):
        """A report written straight into the served store object, on a
        thread that is not the service loop's (as a pool sharing the
        store does), ends a parked remote collect through the wait
        registry's callback: the poll interval is far beyond PROMPT."""
        monkeypatch.setattr(waits, "WAIT_POLL", 10.0)
        backing, service, client = service_stack
        [tid] = backing.create_tasks("e", 0, ["p"], time_created=0.0)
        assert backing.pop_out(0, 1, worker_pool="w", now=1.0)
        thread, results = _park_one_waiter(
            service, lambda: client.pop_in_any([tid], wait=30.0)
        )
        t0 = time.monotonic()
        backing.report_batch([(tid, 0, "r")], now=2.0)
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert time.monotonic() - t0 < PROMPT
        assert results == [[(tid, "r")]]

    def test_idle_parked_fetches_make_no_claims(self, service_stack, monkeypatch):
        """Between writes, parked fetches cost no store claim: the loop's
        timer only reads ``PRAGMA data_version``, and nothing moved it."""
        backing, service, client = service_stack
        claims = []
        for name in ("_claim_out", "_claim_in"):
            claim = getattr(backing, name)
            monkeypatch.setattr(
                backing, name,
                lambda *a, _claim=claim, _name=name: claims.append(_name) or _claim(*a),
            )
        threads = [
            threading.Thread(target=client.pop_out, args=(0, 1),
                             kwargs={"worker_pool": "w", "now": 1.0, "wait": 30.0})
            for _ in range(16)
        ]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + PARK_DEADLINE
        while service.status_snapshot()["service"]["waiters"] < 16:
            assert time.monotonic() < deadline, "fetches never all parked"
            time.sleep(0.005)
        del claims[:]
        time.sleep(1.0)
        assert claims == []
        # One create wakes every fetch of its type; one of them claims it.
        backing.create_tasks("e", 0, ["p"], time_created=0.0)
        deadline = time.monotonic() + PARK_DEADLINE
        while service.status_snapshot()["service"]["waiters"] > 15:
            assert time.monotonic() < deadline, "the create woke no fetch"
            time.sleep(0.005)
        assert claims
        service.stop()
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()

    def test_waiters_gauge_tracks_parked_requests(self, service_stack):
        backing, service, client = service_stack
        [tid] = client.create_tasks("e", 0, ["p"], time_created=0.0)
        assert client.pop_out(0, 1, worker_pool="w", now=1.0) == [(tid, "p")]
        # The wait outlasts the gauge check below even on a stalled
        # machine; the report ends it, so nothing waits out a timeout.
        thread, results = _park_one_waiter(
            service,
            lambda: client.pop_in_any([tid], wait=30.0),
        )
        assert service.status_snapshot()["service"]["waiters"] == 1
        client.report_batch([(tid, 0, "r")], now=2.0)
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert results == [[(tid, "r")]]
        assert service.status_snapshot()["service"]["waiters"] == 0

    def test_stop_wakes_parked_waiters(self):
        backing = SqliteTaskStore()
        service = TaskService(backing).start()
        client = RemoteTaskStore(*service.address)
        try:
            thread, results = _park_one_waiter(
                service,
                lambda: client.pop_out(0, 1, worker_pool="w", now=1.0, wait=30.0),
            )
            t0 = time.monotonic()
            service.stop()
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            assert time.monotonic() - t0 < PROMPT
            assert results == [[]]
        finally:
            client.close()
            backing.close()


class TestClientWaitChannel:
    def test_lockstep_rpcs_run_while_a_wait_is_parked(self, service_stack):
        """A parked wait must not hold the shared connection: fetchers
        and reporters on the same client keep working."""
        _, service, client = service_stack
        thread, _ = _park_one_waiter(
            service,
            lambda: client.pop_out(0, 1, worker_pool="w", now=1.0, wait=1.0),
        )
        t0 = time.monotonic()
        assert client.queue_out_length() == 0
        assert client.queue_in_length() == 0
        assert time.monotonic() - t0 < PROMPT
        thread.join(timeout=10.0)
        assert not thread.is_alive()

    def test_concurrent_waiters_each_get_a_channel(self, service_stack):
        _, service, client = service_stack
        results = []

        def wait_for(tid):
            results.append(client.pop_in_any([tid], wait=10.0))

        ids = client.create_tasks("e", 0, ["a", "b"], time_created=0.0)
        client.pop_out(0, 2, worker_pool="w", now=1.0)
        threads = [
            threading.Thread(target=wait_for, args=(tid,)) for tid in ids
        ]
        for t in threads:
            t.start()
        deadline = time.monotonic() + PARK_DEADLINE
        while service.status_snapshot()["service"]["waiters"] < 2:
            assert time.monotonic() < deadline, "waiters never both parked"
            time.sleep(0.005)
        # One report wakes exactly the waiter watching that id.
        client.report_batch([(ids[0], 0, "ra"), (ids[1], 0, "rb")], now=2.0)
        for t in threads:
            t.join(timeout=10.0)
            assert not t.is_alive()
        assert sorted(r for [(_, r)] in results) == ["ra", "rb"]


def _as_completed_now(eq, future):
    with pytest.raises(TimeoutError_):
        list(as_completed([future], timeout=0))
    return "raised"


#: Each non-blocking caller, and what it returns when nothing is ready.
_NONBLOCKING_CALLS = {
    "query_task": (
        lambda eq, f: eq.query_task(1, timeout=0),
        {"type": "status", "payload": EQ_TIMEOUT},
    ),
    "query_task_batch": (
        lambda eq, f: eq.query_task_batch(
            1, batch_size=4, threshold=1, owned=0, timeout=0
        ),
        [],
    ),
    "query_result": (
        lambda eq, f: eq.query_result(f.eq_task_id, timeout=0),
        (ResultStatus.FAILURE, EQ_TIMEOUT),
    ),
    "as_completed": (_as_completed_now, "raised"),
}


class TestNonBlockingContract:
    """``timeout=0`` is one store call without ``wait``: under a virtual
    clock a real block would deadlock the DES kernel, and a sleep raises."""

    @pytest.mark.parametrize("call", sorted(_NONBLOCKING_CALLS))
    def test_one_waitless_store_call(self, call):
        backing = SqliteTaskStore()
        store = _WaitDroppingStore(backing)
        try:
            clock = VirtualClock(start=10.0)
            eq = EQSQL(store, clock=clock)
            # Queued on type 0 and never run: every call finds nothing.
            future = eq.submit_task("e", 0, json.dumps({"x": 1}))
            run, expected = _NONBLOCKING_CALLS[call]
            assert run(eq, future) == expected
            assert len(store.pops) == 1
            [(_, kwargs)] = store.pops
            assert "wait" not in kwargs
            assert clock.now() == 10.0
        finally:
            backing.close()


class TestEqsqlFastPath:
    def test_query_result_returns_at_event_not_delay_tick(self):
        backing = SqliteTaskStore()
        try:
            eq = EQSQL(backing)
            future = eq.submit_task("e", 0, json.dumps({"x": 1}))

            def worker():
                time.sleep(0.05)
                [(tid, _)] = backing.pop_out(0, 1, worker_pool="w", now=1.0)
                backing.report_batch([(tid, 0, "done")], now=2.0)

            threading.Thread(target=worker).start()
            t0 = time.monotonic()
            status, payload = eq.query_result(
                future.eq_task_id, delay=5.0, timeout=30.0
            )
            elapsed = time.monotonic() - t0
            assert (status, payload) == (ResultStatus.SUCCESS, "done")
            # A sleep-polling loop could not return before its 5s tick.
            assert elapsed < PROMPT
        finally:
            backing.close()

    def test_as_completed_wakes_at_event_not_delay_tick(self):
        backing = SqliteTaskStore()
        try:
            eq = EQSQL(backing)
            futures = eq.submit_tasks(
                "e", 0, [json.dumps({"x": i}) for i in range(3)]
            )

            def worker():
                time.sleep(0.05)
                for tid, _ in backing.pop_out(0, 3, worker_pool="w", now=1.0):
                    backing.report_batch([(tid, 0, f"r{tid}")], now=2.0)

            threading.Thread(target=worker).start()
            t0 = time.monotonic()
            done = list(as_completed(futures, delay=5.0, timeout=30.0))
            assert time.monotonic() - t0 < PROMPT
            assert len(done) == 3
        finally:
            backing.close()

    def test_as_completed_polling_fallback_still_drains(self):
        backing = SqliteTaskStore()
        store = _WaitDroppingStore(backing)
        try:
            eq = EQSQL(store)
            futures = eq.submit_tasks(
                "e", 0, [json.dumps({"x": i}) for i in range(2)]
            )
            _report_later(backing, 2)
            done = list(as_completed(futures, delay=0.02, timeout=30.0))
            assert len(done) == 2
            # The early-empty pops were retried, not waited out.
            assert len(store.pops) > 1
        finally:
            backing.close()

    def test_query_result_drains_through_jittered_retry(self):
        backing = SqliteTaskStore()
        store = _WaitDroppingStore(backing)
        try:
            eq = EQSQL(store)
            future = eq.submit_task("e", 0, json.dumps({"x": 1}))
            _report_later(backing, 1)
            status, payload = eq.query_result(
                future.eq_task_id, delay=0.02, timeout=30.0
            )
            assert (status, payload) == (
                ResultStatus.SUCCESS, f"r{future.eq_task_id}"
            )
            assert len(store.pops) > 1
        finally:
            backing.close()

    def test_query_task_batch_drains_through_jittered_retry(self):
        backing = SqliteTaskStore()
        store = _WaitDroppingStore(backing)
        try:
            eq = EQSQL(store)

            def submit():
                time.sleep(0.05)
                eq.submit_task("e", 0, json.dumps({"x": 1}))

            threading.Thread(target=submit).start()
            messages = eq.query_task_batch(
                0, batch_size=2, threshold=1, owned=0, delay=0.02, timeout=30.0
            )
            assert [json.loads(m["payload"]) for m in messages] == [{"x": 1}]
            assert len(store.pops) > 1
        finally:
            backing.close()


class TestPoolFetchWait:
    # The sleep-poll switches are gone, not ignored: setting one is an error.
    @pytest.mark.parametrize("field", ["fetch_wait", "query_timeout"])
    def test_wait_field_is_gone(self, field):
        with pytest.raises(TypeError, match=field):
            PoolConfig(work_type=0, **{field: 0.5})

    # 0.5: the store grants the fetcher's whole long-poll; 0.0: it drops
    # ``wait`` and the fetcher drains through the jittered retry.
    @pytest.mark.parametrize("wait_cap", [0.5, 0.0])
    def test_pool_drains_with_and_without_long_poll(self, wait_cap):
        backing = SqliteTaskStore()
        store = _WaitDroppingStore(backing, cap=wait_cap)
        eq = EQSQL(store)
        pool = ThreadedWorkerPool(
            eq,
            PythonTaskHandler(lambda d: {"y": d["x"] + 1}),
            PoolConfig(work_type=0, n_workers=2, poll_delay=0.005),
        )
        try:
            with pool:
                time.sleep(0.05)  # the fetcher retries an empty queue
                future = eq.submit_task("e", 0, json.dumps({"x": 41}))
                status, payload = future.result(delay=0.02, timeout=15.0)
            assert status == ResultStatus.SUCCESS
            assert json.loads(payload) == {"y": 42}
            fetches = [kw for name, kw in store.pops if name == "pop_out"]
            # The fetcher always asks to long-poll; the store decides.
            assert any(kw.get("wait") for kw in fetches)
            if not wait_cap:
                assert len(fetches) > 1
        finally:
            backing.close()

    def test_idle_pool_dispatches_without_poll_delay_tick(self):
        """With long-poll fetch, dispatch latency is decoupled from
        ``poll_delay``: a deliberately huge poll_delay stays unused."""
        backing = SqliteTaskStore()
        eq = EQSQL(backing)
        pool = ThreadedWorkerPool(
            eq,
            PythonTaskHandler(lambda d: {"y": d["x"]}),
            PoolConfig(work_type=0, n_workers=1, poll_delay=30.0),
        )
        try:
            with pool:
                time.sleep(0.1)  # let the fetcher park in its long-poll
                t0 = time.monotonic()
                future = eq.submit_task("e", 0, json.dumps({"x": 7}))
                status, _ = future.result(delay=0.02, timeout=15.0)
                elapsed = time.monotonic() - t0
            assert status == ResultStatus.SUCCESS
            # A sleep-polling fetcher would not wake for 30 seconds.
            assert elapsed < PROMPT
        finally:
            backing.close()

    def test_idle_mpi_engine_dispatches_on_the_event(self):
        """Rank 0 long-polls an empty queue instead of sleeping
        ``poll_delay``: a deliberately huge poll_delay stays unused."""
        backing = SqliteTaskStore()
        eq = EQSQL(backing)
        config = PoolConfig(work_type=0, n_workers=1, poll_delay=5.0)
        runner = threading.Thread(
            target=run_mpi_pool,
            args=(eq, PythonTaskHandler(lambda d: {"y": d["x"]}), config),
            kwargs={"timeout": 60},
        )
        runner.start()
        try:
            time.sleep(0.2)  # let the engine park on the empty queue
            t0 = time.monotonic()
            future = eq.submit_task("e", 0, json.dumps({"x": 7}))
            status, _ = future.result(delay=0.02, timeout=15.0)
            elapsed = time.monotonic() - t0
            assert status == ResultStatus.SUCCESS
            # A sleeping engine would not look again for 5 seconds.
            assert elapsed < PROMPT
        finally:
            eq.submit_task("e", 0, EQ_STOP, priority=-100)
            runner.join(timeout=30.0)
            backing.close()
        assert not runner.is_alive()
