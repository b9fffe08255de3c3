"""The pool's combining reporter — its only report path.

A worker that finishes a task appends the result to a pending buffer
and flushes the buffer itself unless a flush is already in flight: a
lone result leaves at once as a one-element ``report_batch``, results
that finish during a round trip share the next one.  The choreographed
tests below hold the store's report calls and one handler on
``threading`` gates, so what coalesces with what is decided by the
test, never by timing.

A flush that finds the fetch role free fuses into one ``report_pop``.
The choreography keeps the role with the fetcher — its pool has a spare
slot, so the fetcher always sits in a long-poll, and a task's handler
only runs once that poll is open — which pins the plain shapes; the
fused shape has tests of its own (``TestFusedRefill``).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import EQ_STOP, EQSQL, RemoteTaskStore, TaskService, as_completed
from repro.db import SqliteTaskStore
from repro.db.schema import TaskStatus
from repro.pools import PoolConfig, PythonTaskHandler, ThreadedWorkerPool
from repro.pools import pool as pool_module
from repro.telemetry import Tracer
from repro.telemetry.metrics import MetricsRegistry

WAIT = 10.0  # every gate and join is bounded: a wedge fails, never hangs


class GatedStore(SqliteTaskStore):
    """Records every report call on entry and can hold it at a gate.

    A long-poll ``pop_out`` (the fetcher's, which holds the fetch role)
    is flagged on ``polling`` while it is open, and stretched to
    ``WAIT`` so the role cannot lapse mid-test; ``stop()`` wakes it.
    """

    def __init__(self) -> None:
        super().__init__()
        self.calls: list[tuple[str, list[int], str]] = []
        self.entered = threading.Semaphore(0)
        self.gate = threading.Event()
        self.gate.set()
        self.woken = threading.Event()
        self.polling = threading.Event()

    def pop_out(self, eq_type, n=1, *, wait=None, **kwargs):
        if not wait:
            return super().pop_out(eq_type, n, **kwargs)
        self.polling.set()
        try:
            stretched = wait if self.woken.is_set() else WAIT
            return super().pop_out(eq_type, n, wait=stretched, **kwargs)
        finally:
            self.polling.clear()

    def _arrive(self, method: str, ids: list[int]) -> None:
        self.calls.append((method, ids, threading.current_thread().name))
        self.entered.release()
        assert self.gate.wait(WAIT), "report gate never opened"

    def report_batch(self, reports, *, now=0.0, profiles=None):
        self._arrive("report_batch", [r[0] for r in reports])
        self.batch_hook(reports)
        super().report_batch(reports, now=now, profiles=profiles)

    def report_pop(self, reports, eq_type, n, *, now=0.0, profiles=None, **pop):
        # Recorded as itself: its halves bypass the recording overrides.
        self._arrive("report_pop", [r[0] for r in reports])
        self.batch_hook(reports)
        SqliteTaskStore.report_batch(self, reports, now=now, profiles=profiles)
        return SqliteTaskStore.pop_out(self, eq_type, n, now=now, **pop)

    def batch_hook(self, reports) -> None:
        """Fault point for subclasses: runs before a batch is applied."""

    def wake_waiters(self) -> None:
        self.woken.set()  # stop() calls this after setting its flags
        super().wake_waiters()

    def sent(self) -> list[tuple[str, list[int]]]:
        return [(method, ids) for method, ids, _thread in self.calls]


class Choreography:
    """Two workers, driven to a known point.

    ``hold()`` returns with: worker 1 inside the report of ``first``
    (held at the store gate), worker 2 inside the handler of ``last``
    (held at the handler gate), and everything worker 2 ran before
    ``last`` — the ``middle`` tasks — sitting in the pending buffer,
    because a worker only takes its next task after ``_report`` returned.
    Throughout, the fetcher holds the fetch role in a long-poll for the
    pool's spare slot, so every flush is a plain ``report_batch``.
    """

    HELD = "held"

    def __init__(
        self, store: GatedStore, middle: list[str], tracer=None, **config
    ) -> None:
        self.store = store
        self.eq = EQSQL(store)
        self.middle_payloads = middle
        self.handler_entered = threading.Event()
        self.handler_gate = threading.Event()
        spare = len(middle) + 3  # every task, plus one slot never filled
        self.pool = ThreadedWorkerPool(
            self.eq,
            PythonTaskHandler(self._handle, json_io=False),
            PoolConfig(work_type=0, n_workers=2, batch_size=spare, **config),
            tracer=tracer,
        )

    def _handle(self, payload: str) -> str:
        if payload == "first":
            # Its fetch just returned: report only once the fetcher is
            # back in its poll, holding the role.
            assert self.store.polling.wait(WAIT), "fetcher never polled again"
        if payload == self.HELD:
            self.handler_entered.set()
            assert self.handler_gate.wait(WAIT), "handler gate never opened"
        return payload

    def hold(self) -> None:
        store = self.store
        store.gate.clear()
        self.pool.start()
        self.first = self.eq.submit_task("exp", 0, "first")
        assert store.entered.acquire(timeout=WAIT)
        self.middle = self.eq.submit_tasks("exp", 0, self.middle_payloads)
        self.last = self.eq.submit_task("exp", 0, self.HELD)
        assert self.handler_entered.wait(WAIT)
        # The queue is empty, so this poll holds the role until stop().
        assert store.polling.wait(WAIT)

    def flush_pending(self, n_calls: int) -> None:
        """Let the held report return and wait for the ``n_calls`` store
        calls that flushing the pending buffer takes — with the last
        task still held in its handler, so it cannot join them."""
        self.store.gate.set()
        for _ in range(n_calls):
            assert self.store.entered.acquire(timeout=WAIT)

    def release(self) -> None:
        self.store.gate.set()
        self.handler_gate.set()

    def futures(self):
        return [self.first, *self.middle, self.last]

    def finish(self) -> None:
        """Open both gates, collect everything, stop the pool."""
        self.release()
        done = list(as_completed(self.futures(), delay=0.001, timeout=WAIT))
        assert len(done) == len(self.middle) + 2
        self.close()

    def close(self) -> None:
        self.release()
        self.pool.stop(timeout=WAIT)
        assert not self.pool.is_alive()
        self.eq.close()


def ids(futures) -> list[int]:
    return [f.eq_task_id for f in futures]


class TestCombiningReporter:
    def test_lone_result_is_one_plain_report_sent_at_once(self):
        # Nothing else is in flight, so nothing may hold the result back
        # (no linger): the wire sees a one-element ``report_batch``.
        c = Choreography(GatedStore(), ["a", "b"])
        c.hold()
        try:
            assert c.store.sent() == [("report_batch", [c.first.eq_task_id])]
        finally:
            c.close()

    def test_results_finished_during_a_flush_share_the_next_batch(self):
        c = Choreography(GatedStore(), ["a", "b", "c"])
        c.hold()
        store = c.store
        try:
            c.flush_pending(1)
            assert store.sent() == [
                ("report_batch", [c.first.eq_task_id]),
                ("report_batch", ids(c.middle)),
            ]
            # Both flushes ran on the worker that held the flusher role.
            assert store.calls[0][2] == store.calls[1][2]
        finally:
            c.finish()
        assert store.sent()[2:] == [("report_batch", [c.last.eq_task_id])]
        assert c.pool.tasks_completed == 5
        assert c.pool.reports_lost == 0

    def test_coalesced_flush_gives_every_task_its_pool_report_span(self):
        # One RPC, three tasks: each pool.task still gets a pool.report
        # child — the same interval, tagged with the flush size — even
        # though another worker's thread did the flushing.
        tracer = Tracer()
        c = Choreography(GatedStore(), ["a", "b", "c"], tracer=tracer)
        c.hold()
        c.flush_pending(1)
        c.finish()
        task_of = {
            s.attrs["eq_task_id"]: s for s in tracer.spans() if s.name == "pool.task"
        }
        report_of = {
            s.attrs["eq_task_id"]: s for s in tracer.spans() if s.name == "pool.report"
        }
        assert set(report_of) == set(task_of) == set(ids(c.futures()))
        for tid, report in report_of.items():
            assert report.parent_id == task_of[tid].span_id
        coalesced = [report_of[tid] for tid in ids(c.middle)]
        assert [s.attrs["n"] for s in coalesced] == [3, 3, 3]
        assert len({(s.start, s.end) for s in coalesced}) == 1
        assert report_of[c.first.eq_task_id].attrs["n"] == 1

    def test_pending_results_stay_owned_and_leased_while_a_flush_is_held(self):
        # The owned count drives the fetch policy and the owned ids the
        # heartbeat: neither may drop before the report is acknowledged.
        c = Choreography(GatedStore(), ["a", "b"], lease_duration=60.0)
        c.hold()
        try:
            assert c.pool.owned() == 4
            assert c.pool.renew_leases() == 4
            for future in c.futures():
                assert c.store.get_task(future.eq_task_id).lease_expiry is not None
        finally:
            c.finish()
        assert c.pool.owned() == 0
        assert c.pool.renew_leases() == 0

    def test_unexpected_batch_error_does_not_wedge_the_pool(self):
        # Not a ReproError/OSError, so no per-item fallback.  The batch
        # must settle (as lost) and the flusher carry on, or the next
        # result would queue forever behind a dead flusher and the drain
        # would never end.
        class BatchPathBroken(GatedStore):
            def batch_hook(self, reports):
                if len(reports) > 1:
                    raise RuntimeError("bug in the store")

        c = Choreography(BatchPathBroken(), ["a", "b"])
        c.hold()
        c.flush_pending(1)
        c.release()
        status, result = c.last.result(timeout=WAIT, delay=0.001)
        assert (status.value, result) == ("success", Choreography.HELD)
        c.close()  # the drain ends although two results were never sent
        assert c.store.sent()[-1] == ("report_batch", [c.last.eq_task_id])
        assert c.pool.reports_lost == 2
        assert c.pool.tasks_completed == 2
        assert c.pool.owned() == 0

    def test_flushes_split_at_the_byte_budget(self, monkeypatch):
        monkeypatch.setattr(pool_module, "FLUSH_BYTES", 100)
        # Pending result sizes: 40, 150, 40, 40, 40 against a budget of 100.
        middle = ["a" * 40, "b" * 150, "c" * 40, "d" * 40, "e" * 40]
        c = Choreography(GatedStore(), middle)
        c.hold()
        c.flush_pending(4)
        c.finish()
        a, b, cc, d, e = ids(c.middle)
        assert c.store.sent()[1:5] == [
            ("report_batch", [a]),  # the next result would overflow
            ("report_batch", [b]),  # over budget on its own: goes alone
            ("report_batch", [cc, d]),
            ("report_batch", [e]),
        ]
        size = {f.eq_task_id: len(p) for f, p in zip(c.middle, middle)}
        for method, batch in c.store.sent()[1:5]:
            if len(batch) > 1:
                assert sum(size[tid] for tid in batch) <= 100

    def test_eq_stop_drains_the_buffer(self):
        c = Choreography(GatedStore(), ["a", "b"])
        c.hold()
        stop = c.eq.submit_task("exp", 0, EQ_STOP)
        c.release()
        try:
            c.pool.join(timeout=WAIT)
            assert not c.pool.is_alive()
            assert stop.result(timeout=WAIT, delay=0.001)[1] == EQ_STOP
            assert all(f.done() for f in c.futures())
            assert c.pool.owned() == 0
        finally:
            c.eq.close()

    def test_abort_discards_the_buffer_for_the_lease_reaper(self):
        c = Choreography(GatedStore(), ["a", "b"])
        c.hold()
        store = c.store
        stopper = threading.Thread(
            target=c.pool.stop, kwargs={"drain": False, "timeout": WAIT}
        )
        stopper.start()
        try:
            assert store.woken.wait(WAIT)  # the abort flag is set
            c.release()
            stopper.join(WAIT)
            assert not stopper.is_alive() and not c.pool.is_alive()
            # Only the flush that was already on the wire landed.
            assert store.sent() == [("report_batch", [c.first.eq_task_id])]
            for future in (*c.middle, c.last):
                status = store.get_task(future.eq_task_id).eq_status
                assert status == TaskStatus.RUNNING
        finally:
            c.release()
            c.eq.close()


class TestBatchedReporting:
    def test_failed_batch_falls_back_to_single_reports(self):
        class BatchPathDown(GatedStore):
            def batch_hook(self, reports):
                if len(reports) > 1:
                    raise ConnectionError("batch path down")

        c = Choreography(BatchPathDown(), ["a", "b"])
        c.hold()
        c.flush_pending(3)
        c.finish()
        a, b = ids(c.middle)
        assert c.store.sent()[:4] == [
            ("report_batch", [c.first.eq_task_id]),
            ("report_batch", [a, b]),
            ("report_batch", [a]),
            ("report_batch", [b]),
        ]
        assert c.pool.tasks_completed == 4
        assert c.pool.reports_lost == 0

    def test_all_results_arrive(self):
        eq = EQSQL(SqliteTaskStore())
        config = PoolConfig(work_type=0, n_workers=4, batch_size=8)
        pool = ThreadedWorkerPool(eq, PythonTaskHandler(lambda d: d), config).start()
        try:
            futures = eq.submit_tasks("exp", 0, [f'{{"i": {i}}}' for i in range(40)])
            done = list(as_completed(futures, delay=0.001, timeout=30))
            assert len(done) == 40
        finally:
            pool.stop()
            eq.close()
        assert pool.tasks_completed == 40
        assert pool.reports_lost == 0
        assert pool.owned() == 0

    def test_batched_pool_over_remote_store(self):
        backing = SqliteTaskStore()
        service = TaskService(backing).start()
        store = RemoteTaskStore(*service.address)
        eq = EQSQL(store)
        config = PoolConfig(work_type=0, n_workers=4, batch_size=8)
        pool = ThreadedWorkerPool(eq, PythonTaskHandler(lambda d: d), config).start()
        try:
            futures = eq.submit_tasks("exp", 0, ["{}"] * 32)
            done = list(as_completed(futures, delay=0.001, timeout=30))
            assert len(done) == 32
        finally:
            pool.stop()
            eq.close()
            service.stop()
            backing.close()
        assert pool.tasks_completed == 32


class TestFusedRefill:
    """A flush that finds the fetch role free: one ``report_pop``."""

    @staticmethod
    def one_slot_pool(store: GatedStore) -> ThreadedWorkerPool:
        # One worker, one slot: the fetcher never has a deficit while a
        # task is owned, so every flush finds the role free.
        return ThreadedWorkerPool(
            EQSQL(store),
            PythonTaskHandler(lambda d: d, json_io=False),
            PoolConfig(work_type=0, n_workers=1, batch_size=1, name="solo"),
        )

    def test_flush_carries_the_refill_it_frees(self):
        store = GatedStore()
        eq = EQSQL(store)
        futures = eq.submit_tasks("exp", 0, ["a", "b", "c"])
        pool = self.one_slot_pool(store).start()
        try:
            done = list(as_completed(futures, delay=0.001, timeout=WAIT))
            assert len(done) == 3
        finally:
            pool.stop(timeout=WAIT)
        a, b, c = ids(futures)
        # Each flush reports its task and claims the next; the last one's
        # claim comes back empty.
        assert store.sent() == [
            ("report_pop", [a]), ("report_pop", [b]), ("report_pop", [c]),
        ]
        for tid in (a, b, c):
            assert store.get_task(tid).worker_pool == "solo"
        assert (pool.tasks_completed, pool.reports_lost, pool.owned()) == (3, 0, 0)

    def test_eq_stop_in_a_refill_stops_the_pool(self):
        store = GatedStore()
        eq = EQSQL(store)
        work = eq.submit_task("exp", 0, "work", priority=1)
        stop = eq.submit_task("exp", 0, EQ_STOP)  # popped after the work
        pool = self.one_slot_pool(store).start()
        try:
            pool.join(timeout=WAIT)  # stops by itself
            assert not pool.is_alive()
        finally:
            pool.stop(timeout=WAIT)
        assert stop.result(timeout=WAIT, delay=0.001)[1] == EQ_STOP
        assert work.result(timeout=WAIT, delay=0.001)[1] == "work"
        assert store.sent() == [
            ("report_pop", [work.eq_task_id]),  # the refill was EQ_STOP
            ("report_batch", [stop.eq_task_id]),  # the sentinel, reported back
        ]
        assert pool.tasks_completed == 1 and pool.owned() == 0

    def test_failed_report_pop_falls_back_and_loses_only_the_refill(self):
        class FusedPathDown(GatedStore):
            def batch_hook(self, reports):
                if self.calls[-1][0] == "report_pop":
                    raise ConnectionError("fused path down")

        store = FusedPathDown()
        eq = EQSQL(store)
        first, second = eq.submit_tasks("exp", 0, ["a", "b"])
        pool = self.one_slot_pool(store).start()
        try:
            assert first.result(timeout=WAIT, delay=0.001)[1] == "a"
            # The refill was never claimed here; the fetcher claims it.
            assert second.result(timeout=WAIT, delay=0.001)[1] == "b"
        finally:
            pool.stop(timeout=WAIT)
        assert store.sent()[:2] == [
            ("report_pop", [first.eq_task_id]),
            ("report_batch", [first.eq_task_id]),
        ]
        assert (pool.tasks_completed, pool.reports_lost, pool.owned()) == (2, 0, 0)

    def test_busy_stock_pool_sends_one_rpc_per_task(self):
        # Over a live service with a full queue, each flush is one
        # report_pop that also refills: about one RPC per task where a
        # report followed by a pop_out would cost two.
        n_tasks = 200
        backing = SqliteTaskStore()
        backing.create_tasks("exp", 0, ["{}"] * n_tasks)
        service = TaskService(backing).start()
        registry = MetricsRegistry()
        store = RemoteTaskStore(*service.address, metrics=registry)
        pool = ThreadedWorkerPool(
            EQSQL(store), PythonTaskHandler(lambda d: d),
            PoolConfig(work_type=0, n_workers=2),
        ).start()
        try:
            deadline = time.monotonic() + 30
            while backing.queue_in_length() < n_tasks:
                assert time.monotonic() < deadline, "pool never drained the queue"
                time.sleep(0.005)
            rpcs = registry.get("service.client.rpcs").value
        finally:
            pool.stop(timeout=WAIT)
            store.close()
            service.stop()
            backing.close()
        assert pool.tasks_completed == n_tasks
        assert rpcs <= 1.1 * n_tasks


class TestConfigValidation:
    # The report knobs are gone, not ignored: setting one is an error.
    def test_report_batch_size_knob_is_gone(self):
        with pytest.raises(TypeError, match="report_batch_size"):
            PoolConfig(work_type=0, report_batch_size=8)

    def test_report_linger_knob_is_gone(self):
        with pytest.raises(TypeError, match="report_linger"):
            PoolConfig(work_type=0, report_linger=0.05)

    def test_rejects_memory_profiling_without_profiling(self):
        with pytest.raises(ValueError, match="profile_memory"):
            PoolConfig(work_type=0, profile_memory=True)

    def test_rejects_nonpositive_telemetry_interval(self):
        with pytest.raises(ValueError, match="telemetry_interval"):
            PoolConfig(work_type=0, telemetry_interval=0.0)

    def test_default_stays_synchronous(self):
        # A stock pool reports a lone result from the worker thread that
        # ran it: no reporter thread, no hand-off.  The handler waits
        # for the fetcher's next long-poll, so the fetch role is taken
        # and the flush is a plain one-element ``report_batch``.
        store = GatedStore()
        eq = EQSQL(store)

        def handle(data):
            assert store.polling.wait(WAIT)
            return data

        pool = ThreadedWorkerPool(
            eq, PythonTaskHandler(handle), PoolConfig(work_type=0, name="p")
        ).start()
        try:
            future = eq.submit_task("exp", 0, "{}")
            assert future.result(timeout=WAIT, delay=0.001)[0].value == "success"
        finally:
            pool.stop()
            eq.close()
        ((method, task_ids, thread),) = store.calls
        assert (method, task_ids) == ("report_batch", [future.eq_task_id])
        assert thread.startswith("p-worker-")
