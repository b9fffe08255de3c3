"""Tests for the EMEWS service and remote task store.

These exercise the real TCP path on localhost: the same EQSQL API the
paper's ME algorithm uses through its SSH tunnel to the remote service.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import EQSQL, ResultStatus, TaskService, RemoteTaskStore, as_completed
from repro.core.protocol import task_row_from_dict, task_row_to_dict
from repro.db import MemoryTaskStore
from repro.db.schema import TaskRow, TaskStatus
from repro.telemetry.metrics import MetricsRegistry
from repro.util.errors import AuthenticationError, NotFoundError


@pytest.fixture
def service():
    backing = MemoryTaskStore()
    svc = TaskService(backing, auth_token="tok").start()
    yield svc
    svc.stop()
    backing.close()


@pytest.fixture
def remote(service):
    host, port = service.address
    store = RemoteTaskStore(host, port, auth_token="tok")
    yield store
    store.close()


class TestAuth:
    def test_bad_token_rejected(self, service):
        host, port = service.address
        with pytest.raises(AuthenticationError):
            RemoteTaskStore(host, port, auth_token="wrong")

    def test_missing_token_rejected(self, service):
        host, port = service.address
        with pytest.raises(AuthenticationError):
            RemoteTaskStore(host, port)

    def test_no_token_service_accepts_anyone(self):
        backing = MemoryTaskStore()
        with TaskService(backing) as svc:
            host, port = svc.address
            store = RemoteTaskStore(host, port)
            assert store.create_task("e", 0, "p") == 1
            store.close()
        backing.close()


class TestRemoteStore:
    def test_full_task_round_trip(self, remote):
        eq = EQSQL(remote)
        future = eq.submit_task("exp", 3, '{"x": 1}', priority=2, tag="t")
        message = eq.query_task(3, worker_pool="wp", timeout=0)
        assert message["eq_task_id"] == future.eq_task_id
        eq.report_task(future.eq_task_id, 3, '{"y": 2}')
        assert future.result(timeout=0) == (ResultStatus.SUCCESS, '{"y": 2}')

    def test_get_task_row(self, remote):
        tid = remote.create_task("exp", 1, "payload", tag="tag-a", time_created=5.0)
        row = remote.get_task(tid)
        assert row.eq_task_id == tid
        assert row.eq_task_type == 1
        assert row.eq_status == TaskStatus.QUEUED
        assert row.json_out == "payload"
        assert row.time_created == 5.0
        assert row.tags == ["tag-a"]

    def test_get_task_not_found(self, remote):
        with pytest.raises(NotFoundError):
            remote.get_task(999)

    def test_batch_operations(self, remote):
        ids = remote.create_tasks("e", 0, ["a", "b", "c"], priority=[1, 2, 3])
        assert remote.update_priorities(ids, [9, 8, 7]) == 3
        assert dict(remote.get_priorities(ids)) == {ids[0]: 9, ids[1]: 8, ids[2]: 7}
        assert remote.cancel_tasks([ids[2]]) == 1
        popped = remote.pop_out(0, 5)
        assert [t for t, _ in popped] == [ids[0], ids[1]]
        for tid in (ids[0], ids[1]):
            remote.report(tid, 0, f"r{tid}")
        assert dict(remote.pop_in_any(ids)) == {ids[0]: f"r{ids[0]}", ids[1]: f"r{ids[1]}"}

    def test_experiment_and_tag_queries(self, remote):
        a = remote.create_task("exp-x", 0, "p", tag="t1")
        b = remote.create_task("exp-x", 0, "p")
        assert remote.tasks_for_experiment("exp-x") == [a, b]
        assert remote.tasks_for_tag("t1") == [a]

    def test_queue_lengths_and_maintenance(self, remote):
        remote.create_tasks("e", 0, ["a", "b"])
        assert remote.queue_out_length() == 2
        assert remote.queue_out_length(0) == 2
        assert remote.queue_in_length() == 0
        assert remote.max_task_id() == 2
        remote.clear()
        assert remote.queue_out_length() == 0

    def test_statuses_round_trip(self, remote):
        ids = remote.create_tasks("e", 0, ["a", "b"])
        remote.pop_out(0, 1)
        statuses = dict(remote.get_statuses(ids))
        assert statuses[ids[0]] == TaskStatus.RUNNING
        assert statuses[ids[1]] == TaskStatus.QUEUED


class TestStop:
    def test_stop_does_not_wait_out_the_serve_poll(self):
        backing = MemoryTaskStore()
        service = TaskService(backing).start()
        serve_thread = service._thread
        try:
            # A served connection puts serve_forever() back into a fresh
            # 0.5 s select() poll, the wait stop() used to sit out.
            RemoteTaskStore(*service.address).close()
            t0 = time.monotonic()
            service.stop()
            elapsed = time.monotonic() - t0
        finally:
            service.stop()  # idempotent
            backing.close()
        assert not serve_thread.is_alive()
        assert elapsed < 0.25


class TestMeRpcCost:
    def test_submit_and_collect_are_one_rpc_per_batch(self):
        # The ME-side twin of the busy pool's one RPC per task: a batch
        # submit is one create_tasks, and draining results that have
        # all landed is one pop_in_any, not one round trip per task.
        n_tasks = 200
        backing = MemoryTaskStore()
        service = TaskService(backing).start()
        registry = MetricsRegistry()
        store = RemoteTaskStore(*service.address, metrics=registry)
        rpcs = registry.get("service.client.rpcs")
        try:
            eq = EQSQL(store)
            before = rpcs.value
            futures = eq.submit_tasks("exp", 0, ["{}"] * n_tasks)
            submit_rpcs = rpcs.value - before
            for task_id, _ in backing.pop_out(0, n=n_tasks):
                backing.report(task_id, 0, "r")
            before = rpcs.value
            collected = list(as_completed(futures, timeout=10.0))
            collect_rpcs = rpcs.value - before
        finally:
            store.close()
            service.stop()
            backing.close()
        assert submit_rpcs == 1
        assert len(collected) == n_tasks
        assert collect_rpcs == 1


class TestConcurrentClients:
    def test_two_clients_share_one_queue(self, service):
        host, port = service.address
        a = RemoteTaskStore(host, port, auth_token="tok")
        b = RemoteTaskStore(host, port, auth_token="tok")
        a.create_tasks("e", 0, [f"p{i}" for i in range(50)])
        popped: list[int] = []
        lock = threading.Lock()

        def drain(store):
            while True:
                got = store.pop_out(0, 3)
                if not got:
                    break
                with lock:
                    popped.extend(t for t, _ in got)

        threads = [threading.Thread(target=drain, args=(s,)) for s in (a, b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(popped) == list(range(1, 51))
        a.close()
        b.close()


class TestProtocol:
    def test_task_row_round_trip(self):
        row = TaskRow(
            eq_task_id=7,
            eq_task_type=2,
            eq_status=TaskStatus.COMPLETE,
            worker_pool="wp",
            json_out="out",
            json_in="in",
            time_created=1.0,
            time_start=2.0,
            time_stop=3.0,
            tags=["a", "b"],
        )
        assert task_row_from_dict(task_row_to_dict(row)) == row

    def test_unknown_method_is_error(self, remote):
        with pytest.raises(Exception):
            remote._call("no_such_method", {})

    def test_ping(self, remote):
        assert remote._call("ping", {})["version"] == 2
