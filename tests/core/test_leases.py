"""Task leases: claim stamping, renewal, expiry, the reaper, heartbeats.

The lease system is the automatic half of fault tolerance: pop_out
stamps an expiry, pools heartbeat renewals, and the reaper requeues
anything whose lease lapsed.  These tests drive the store-level
semantics on both backends, the reaper under virtual and real time, and
the pool heartbeat keeping long-running tasks alive.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.core import EQSQL, LeaseReaper, TaskStatus, as_completed
from repro.core.recovery import reap_expired
from repro.core.service import TaskService
from repro.db import SqliteTaskStore
from repro.pools import PoolConfig, PythonTaskHandler, ThreadedWorkerPool
from repro.util.clock import VirtualClock


def claim(store, *, now=0.0, lease=None, pool="p"):
    tid = store.create_tasks("exp", 0, ["payload"])[0]
    popped = store.pop_out(0, worker_pool=pool, now=now, lease=lease)
    assert [t for t, _ in popped] == [tid]
    return tid


class TestLeaseStamping:
    def test_pop_out_stamps_expiry(self, store):
        tid = claim(store, now=100.0, lease=30.0)
        row = store.get_task(tid)
        assert row.eq_status == TaskStatus.RUNNING
        assert row.lease_expiry == 130.0

    def test_pop_out_without_lease_is_unleased(self, store):
        tid = claim(store, now=100.0, lease=None)
        assert store.get_task(tid).lease_expiry is None

    def test_report_clears_lease(self, store):
        tid = claim(store, now=0.0, lease=10.0)
        store.report_batch([(tid, 0, "r")], now=5.0)
        row = store.get_task(tid)
        assert row.eq_status == TaskStatus.COMPLETE
        assert row.lease_expiry is None

    def test_requeue_clears_lease(self, store):
        tid = claim(store, now=0.0, lease=10.0)
        assert store.requeue(tid)
        row = store.get_task(tid)
        assert row.eq_status == TaskStatus.QUEUED
        assert row.lease_expiry is None


class TestRenewLeases:
    def test_renewal_extends_expiry(self, store):
        tid = claim(store, now=0.0, lease=10.0)
        assert store.renew_leases([tid], now=8.0, lease=10.0) == 1
        assert store.get_task(tid).lease_expiry == 18.0
        # The renewed lease survives its original expiry...
        assert store.requeue_expired(now=15.0) == []
        # ...but not its renewed one.
        assert store.requeue_expired(now=18.0) == [tid]

    def test_renewal_skips_non_running(self, store):
        done = claim(store, now=0.0, lease=10.0)
        store.report_batch([(done, 0, "r")])
        queued = store.create_tasks("exp", 0, ["q"])[0]
        assert store.renew_leases([queued, done], now=1.0, lease=10.0) == 0
        assert store.get_task(queued).lease_expiry is None

    def test_renewal_ignores_unknown_ids(self, store):
        tid = claim(store, now=0.0, lease=10.0)
        assert store.renew_leases([tid, 9999], now=1.0, lease=10.0) == 1


class TestRequeueExpired:
    def test_requeues_only_expired(self, store):
        expired = claim(store, now=0.0, lease=5.0, pool="a")
        live = claim(store, now=0.0, lease=60.0, pool="b")
        unleased = claim(store, now=0.0, lease=None, pool="c")
        assert store.requeue_expired(now=10.0) == [expired]
        assert store.get_task(expired).eq_status == TaskStatus.QUEUED
        assert store.get_task(live).eq_status == TaskStatus.RUNNING
        # Unleased claims are never reaped — that's the manual-recovery
        # regime (recover_pool), preserved for pools that opt out.
        assert store.get_task(unleased).eq_status == TaskStatus.RUNNING

    def test_requeued_task_is_reclaimable(self, store):
        tid = claim(store, now=0.0, lease=5.0, pool="dead")
        store.requeue_expired(now=10.0)
        popped = store.pop_out(0, worker_pool="alive", now=11.0, lease=5.0)
        assert [t for t, _ in popped] == [tid]
        row = store.get_task(tid)
        assert row.worker_pool == "alive"
        assert row.lease_expiry == 16.0

    def test_requeue_priority(self, store):
        tid = claim(store, now=0.0, lease=5.0)
        store.requeue_expired(now=10.0, priority=7)
        assert dict(store.get_priorities([tid])) == {tid: 7}

    def test_report_after_requeue_withdraws_queued_copy(self, store):
        # The lease lapsed on a pool that was slow, not dead: its report
        # lands after the reaper requeued the task.  The report must win
        # — task COMPLETE, one result, and the queued copy withdrawn so
        # no other pool re-claims a completed task.
        tid = claim(store, now=0.0, lease=5.0, pool="slow")
        assert store.requeue_expired(now=10.0) == [tid]
        store.report_batch([(tid, 0, "late-result")], now=11.0)
        assert store.get_task(tid).eq_status == TaskStatus.COMPLETE
        assert store.queue_out_length(0) == 0
        assert store.pop_out(0, now=12.0) == []
        assert store.pop_in_any([tid]) == [(tid, "late-result")]
        assert store.queue_in_length() == 0

    def test_duplicate_report_after_requeue_and_reexecution(self, store):
        # Slower variant: the task was requeued, re-executed, and
        # reported by the second pool — then the first pool's stale
        # report finally arrives.  First write wins; one result.
        tid = claim(store, now=0.0, lease=5.0, pool="slow")
        store.requeue_expired(now=10.0)
        store.pop_out(0, worker_pool="second", now=11.0, lease=5.0)
        store.report_batch([(tid, 0, "second-result")], now=12.0)
        store.report_batch([(tid, 0, "stale-result")], now=13.0)
        assert store.pop_in_any([tid]) == [(tid, "second-result")]
        assert store.queue_in_length() == 0


class TestConcurrentReportVsRequeue:
    def test_report_racing_requeue_never_loses_the_result(self, store):
        # Satellite (b): whatever the interleaving, once report lands
        # the task is COMPLETE with exactly one result and nothing left
        # to re-claim.  requeue() atomically refuses non-RUNNING rows,
        # and report withdraws a requeued copy.
        for _ in range(100):
            tid = claim(store, now=0.0, lease=1.0)
            barrier = threading.Barrier(2)
            errors = []

            def reporter():
                barrier.wait()
                try:
                    store.report_batch([(tid, 0, "result")], now=2.0)
                except Exception as exc:  # noqa: BLE001 - collected for assert
                    errors.append(exc)

            def requeuer():
                barrier.wait()
                try:
                    store.requeue_expired(now=2.0)
                except Exception as exc:  # noqa: BLE001 - collected for assert
                    errors.append(exc)

            threads = [
                threading.Thread(target=reporter),
                threading.Thread(target=requeuer),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert errors == []
            assert store.get_task(tid).eq_status == TaskStatus.COMPLETE
            assert store.pop_in_any([tid]) == [(tid, "result")]
            assert store.pop_out(0, now=3.0) == []
            assert store.queue_in_length() == 0


class TestLeaseReaper:
    def test_run_once_under_virtual_clock(self):
        store = SqliteTaskStore()
        clock = VirtualClock()
        reaper = LeaseReaper(store, clock=clock, interval=1.0)
        tid = claim(store, now=0.0, lease=10.0)
        assert reaper.run_once() == []
        clock.advance(11.0)
        assert reaper.run_once() == [tid]
        assert store.get_task(tid).eq_status == TaskStatus.QUEUED
        store.close()

    def test_reap_expired_via_eqsql(self):
        clock = VirtualClock()
        eq = EQSQL(SqliteTaskStore(), clock=clock)
        future = eq.submit_task("exp", 0, "p")
        eq.query_task(0, timeout=0, lease=10.0)
        clock.advance(11.0)
        assert reap_expired(eq) == [future.eq_task_id]
        eq.close()

    def test_interval_must_be_positive(self):
        store = SqliteTaskStore()
        with pytest.raises(ValueError):
            LeaseReaper(store, interval=0.0)
        store.close()

    def test_threaded_reaper_requeues_in_background(self):
        store = SqliteTaskStore()
        tid = claim(store, now=0.0, lease=0.05)
        with LeaseReaper(store, interval=0.02):
            deadline = time.monotonic() + 5.0
            while store.get_task(tid).eq_status != TaskStatus.QUEUED:
                assert time.monotonic() < deadline, "reaper never requeued"
                time.sleep(0.01)
        store.close()

    def test_service_embedded_reaper(self):
        backing = SqliteTaskStore()
        service = TaskService(backing, lease_reaper_interval=0.02).start()
        try:
            assert service.lease_reaper is not None
            tid = claim(backing, now=0.0, lease=0.05)
            deadline = time.monotonic() + 5.0
            while backing.get_task(tid).eq_status != TaskStatus.QUEUED:
                assert time.monotonic() < deadline, "service reaper never swept"
                time.sleep(0.01)
        finally:
            service.stop()
            backing.close()

    def test_service_without_interval_has_no_reaper(self):
        backing = SqliteTaskStore()
        service = TaskService(backing).start()
        try:
            assert service.lease_reaper is None
        finally:
            service.stop()
            backing.close()


def _count_calls(fn, counter, lock):
    def wrapped(params):
        with lock:
            counter.append(1)
        return fn(params)

    return wrapped


class TestPoolHeartbeat:
    def test_heartbeat_keeps_long_tasks_alive(self):
        # Tasks run for several lease lifetimes; the heartbeat must keep
        # renewing so the reaper never requeues (each task executes once).
        eq = EQSQL(SqliteTaskStore())
        calls: list[int] = []
        lock = threading.Lock()

        def slow_square(d):
            time.sleep(0.4)
            return {"y": d["x"] ** 2}

        futures = eq.submit_tasks(
            "exp", 0, [json.dumps({"x": i}) for i in range(2)]
        )
        pool = ThreadedWorkerPool(
            eq,
            PythonTaskHandler(_count_calls(slow_square, calls, lock)),
            PoolConfig(
                work_type=0, n_workers=2, name="leased",
                lease_duration=0.15, heartbeat_interval=0.05,
            ),
        )
        with LeaseReaper(eq.store, interval=0.03), pool:
            done = list(as_completed(futures, timeout=20, delay=0.01))
        assert len(done) == 2
        assert len(calls) == 2, "a live task was requeued and re-executed"
        assert pool.tasks_completed == 2
        eq.close()

    def test_dead_pool_tasks_reaped_and_finished_elsewhere(self):
        # A leased pool claims more than it can run and dies without
        # draining; the reaper requeues the abandoned claims and a
        # replacement completes everything — no recover_pool call.
        eq = EQSQL(SqliteTaskStore())

        def slow(d):
            time.sleep(0.1)
            return {"y": d["x"]}

        futures = eq.submit_tasks(
            "exp", 0, [json.dumps({"x": i}) for i in range(8)]
        )
        doomed = ThreadedWorkerPool(
            eq,
            PythonTaskHandler(slow),
            PoolConfig(
                work_type=0, n_workers=2, batch_size=6, name="doomed",
                lease_duration=0.2,
            ),
        ).start()
        while doomed.owned() == 0:
            time.sleep(0.005)
        doomed.stop(drain=False, timeout=10)

        replacement = ThreadedWorkerPool(
            eq,
            PythonTaskHandler(lambda d: {"y": d["x"]}),
            PoolConfig(work_type=0, n_workers=4, name="replacement"),
        )
        with LeaseReaper(eq.store, interval=0.05), replacement:
            done = list(as_completed(futures, timeout=20, delay=0.01))
        assert len(done) == 8
        eq.close()

    def test_renew_leases_without_lease_config_is_noop(self):
        eq = EQSQL(SqliteTaskStore())
        pool = ThreadedWorkerPool(
            eq,
            PythonTaskHandler(lambda d: d),
            PoolConfig(work_type=0, n_workers=1, name="unleased"),
        )
        assert pool.renew_leases() == 0
        eq.close()

    def test_heartbeat_config_validation(self):
        with pytest.raises(ValueError):
            PoolConfig(work_type=0, heartbeat_interval=1.0)  # no lease
        with pytest.raises(ValueError):
            PoolConfig(work_type=0, lease_duration=1.0, heartbeat_interval=2.0)
        with pytest.raises(ValueError):
            PoolConfig(work_type=0, lease_duration=-1.0)
        config = PoolConfig(work_type=0, lease_duration=3.0)
        assert config.heartbeat_interval == 1.0


class TestLeaseDurability:
    def test_lease_survives_sqlite_reopen(self, tmp_path):
        # A durable store carries leases across a 'restart': the reaper
        # on the reopened store still recovers the in-flight claim.
        path = str(tmp_path / "emews.db")
        store = SqliteTaskStore(path)
        tid = claim(store, now=0.0, lease=5.0)
        store.close()
        reopened = SqliteTaskStore(path)
        assert reopened.get_task(tid).lease_expiry == 5.0
        assert reopened.requeue_expired(now=10.0) == [tid]
        reopened.close()
