"""Chaos integration: the full pipeline survives injected faults.

The headline guarantee (paper §IV-B): tasks and results are not lost
when resources fail.  These tests run the real ME → service → pool
pipeline with faults injected at two layers — a chaos TCP proxy
severing connections under the RPC clients, and a flaky store faulting
pool-side operations — plus a mid-batch pool kill, and assert the
workflow still drains with every result delivered exactly once and no
manual ``recover_pool`` call anywhere.

Marked ``chaos`` so CI can run them as a dedicated step:
``pytest -m chaos``.
"""

from __future__ import annotations

import json
import random
import threading
import time

import pytest

from repro.core import EQSQL, LeaseReaper, RemoteTaskStore, TaskService
from repro.core.constants import TaskStatus
from repro.core.futures import as_completed
from repro.core.service_client import RetryPolicy
from repro.db import SqliteTaskStore
from repro.pools import PoolConfig, PythonTaskHandler, ThreadedWorkerPool
from repro.testing import ChaosProxy, FlakyTaskStore

pytestmark = pytest.mark.chaos

RETRY = RetryPolicy(max_attempts=12, base_delay=0.02, max_delay=0.25)


def square(d):
    time.sleep(0.02)
    return {"y": d["x"] ** 2}


def leased_pool(eq, name, n_workers=4, lease=1.0):
    return ThreadedWorkerPool(
        eq,
        PythonTaskHandler(square),
        PoolConfig(
            work_type=0,
            n_workers=n_workers,
            batch_size=n_workers * 2,
            threshold=1,
            name=name,
            poll_delay=0.005,
            lease_duration=lease,
        ),
    )


class TestProxyChaos:
    def test_workflow_drains_under_severed_connections_and_pool_kill(self):
        """Kill the pool mid-batch, sever every connection repeatedly:
        all results arrive exactly once, recovery is fully automatic."""
        n_tasks = 24
        rng = random.Random(2023)
        backing = SqliteTaskStore()
        service = TaskService(backing, lease_reaper_interval=0.1).start()
        proxy = ChaosProxy(*service.address, rng=rng).start()
        me_store = RemoteTaskStore(*proxy.address, retry=RETRY, rng=rng)
        pool_store = RemoteTaskStore(*proxy.address, retry=RETRY, rng=rng)
        me = EQSQL(me_store)
        pools = [leased_pool(EQSQL(pool_store), "chaos-1")]
        try:
            # Submission runs clean — create_tasks is non-idempotent and
            # an ME would not blind-retry it; chaos covers everything
            # downstream (claim, execute, report, collect).
            futures = me.submit_tasks(
                "chaos", 0, [json.dumps({"x": x}) for x in range(n_tasks)]
            )
            task_ids = [f.eq_task_id for f in futures]
            pools[0].start()
            proxy.set_sever_rate(0.02)

            killed = False
            deadline = time.monotonic() + 60.0
            next_storm = time.monotonic() + 0.3
            while True:
                statuses = me.query_status(task_ids)
                n_complete = sum(
                    1 for _, s in statuses if s == TaskStatus.COMPLETE
                )
                if n_complete == n_tasks:
                    break
                assert time.monotonic() < deadline, (
                    f"workflow stalled at {n_complete}/{n_tasks}"
                )
                if not killed and n_complete >= n_tasks // 3:
                    # Abandon the first pool mid-batch; its claimed
                    # tasks must flow back via the lease reaper alone.
                    pools[0].stop(drain=False, timeout=10)
                    killed = True
                    replacement = leased_pool(EQSQL(me_store), "chaos-2")
                    pools.append(replacement)
                    replacement.start()
                if time.monotonic() >= next_storm:
                    proxy.sever_all()
                    next_storm = time.monotonic() + 0.3
                time.sleep(0.02)

            assert killed, "pool was never killed mid-batch"
            # Collect with chaos off: pop_in consumes results, the one
            # step retry deliberately does not cover.
            proxy.set_sever_rate(0.0)
            results = me.store.pop_in_any(task_ids)
            got = [tid for tid, _ in results]
            assert sorted(got) == sorted(task_ids), "results lost"
            assert len(got) == len(set(got)), "results duplicated"
            for tid, payload in results:
                x = json.loads(backing.get_task(tid).json_out)["x"]
                assert json.loads(payload) == {"y": x**2}
            # The chaos actually happened.
            assert proxy.connections_severed > 0
            # Nothing left behind: queues empty, no task stuck RUNNING.
            assert backing.queue_in_length() == 0
            assert backing.queue_out_length() == 0
        finally:
            for pool in pools:
                pool.stop(drain=False, timeout=5)
            me_store.close()
            pool_store.close()
            proxy.stop()
            service.stop()
            backing.close()


class TestSeverMidWait:
    def test_blocked_wait_survives_severed_connection(self):
        """Sever the proxy while a ``pop_out`` long-poll is parked
        server-side: the client's wait channel reconnects and re-issues
        the wait, and the eventual task is claimed exactly once.

        The fetcher idiom is re-issue-until-claimed: each empty wait
        (server cap, shutdown wake) just loops.  The sever leaves a
        *stale* parked request whose response could only go to a dead
        socket; the service sees that socket's EOF and drops it before
        the task is published (a stale request must claim nothing),
        proving the reconnected wait is the one that claims.
        """
        backing = SqliteTaskStore()
        service = TaskService(backing).start()
        proxy = ChaosProxy(*service.address, rng=random.Random(7)).start()
        store = RemoteTaskStore(*proxy.address, retry=RETRY)
        popped: list[list[tuple[int, str]]] = []

        def fetch_until_claimed() -> None:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                got = store.pop_out(0, n=1, worker_pool="w", now=1.0, wait=5.0)
                if got:
                    popped.append(got)
                    return

        def parked_waiters() -> int:
            return service.status_snapshot()["service"]["waiters"]

        try:
            waiter = threading.Thread(target=fetch_until_claimed)
            waiter.start()
            # Wait until the RPC is parked in the service's long-poll.
            deadline = time.monotonic() + 5.0
            while parked_waiters() < 1:
                assert time.monotonic() < deadline, "wait RPC never parked"
                time.sleep(0.005)

            assert proxy.sever_all() >= 1
            # Give the service time to drop the stale request and the
            # client time to reconnect and re-issue; an in-flight
            # re-issue just loops on empty.
            time.sleep(0.3)
            [tid] = backing.create_tasks(
                "sever", 0, [json.dumps({"x": 3})], time_created=1.0
            )
            waiter.join(timeout=15.0)
            assert not waiter.is_alive(), "waiter never returned"

            # Exactly once: one claim, by the reconnected wait.
            assert popped == [[(tid, json.dumps({"x": 3}))]]
            assert backing.get_task(tid).eq_status == TaskStatus.RUNNING
            assert backing.queue_out_length() == 0
            assert proxy.connections_severed >= 1
            assert parked_waiters() == 0
        finally:
            store.close()
            proxy.stop()
            service.stop()
            backing.close()


class TestFlakyStoreChaos:
    def test_workflow_drains_with_faulty_pool_operations(self):
        """Every pool-side store call can fault before or after applying;
        leases plus idempotent reports still deliver everything once."""
        n_tasks = 20
        inner = SqliteTaskStore()
        flaky = FlakyTaskStore(
            inner,
            failure_rate=0.25,
            lost_response_rate=0.5,
            methods={"pop_out", "report_batch", "renew_leases"},
            rng=random.Random(99),
        )
        me = EQSQL(inner)  # the ME talks to the healthy store
        pool_eq = EQSQL(flaky)  # the pool's connection is the flaky one
        futures = me.submit_tasks(
            "flaky", 0, [json.dumps({"x": x}) for x in range(n_tasks)]
        )
        pool = leased_pool(pool_eq, "flaky-pool", lease=0.3)
        with LeaseReaper(inner, interval=0.05), pool:
            done = list(as_completed(futures, timeout=60, delay=0.02))
        assert len(done) == n_tasks
        for f in done:
            _, payload = f.result(timeout=0)
            x = json.loads(inner.get_task(f.eq_task_id).json_out)["x"]
            assert json.loads(payload) == {"y": x**2}
        # The chaos actually happened, and nothing was left behind.
        assert sum(flaky.faults_injected.values()) > 0
        assert inner.queue_in_length() == 0
        assert inner.queue_out_length() == 0
        inner.close()
