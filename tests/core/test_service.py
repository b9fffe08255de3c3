"""Tests for the EMEWS service and remote task store.

These exercise the real TCP path on localhost: the same EQSQL API the
paper's ME algorithm uses through its SSH tunnel to the remote service.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.core import EQSQL, ResultStatus, TaskService, RemoteTaskStore, as_completed
from repro.core import protocol
from repro.core.protocol import task_row_from_dict, task_row_to_dict
from repro.db import SqliteTaskStore
from repro.db.schema import TaskRow, TaskStatus
from repro.telemetry.metrics import MetricsRegistry
from repro.util.errors import AuthenticationError, NotFoundError


@pytest.fixture
def service():
    backing = SqliteTaskStore()
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
        backing = SqliteTaskStore()
        with TaskService(backing) as svc:
            host, port = svc.address
            store = RemoteTaskStore(host, port)
            assert store.create_tasks("e", 0, ["p"])[0] == 1
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
        tid = remote.create_tasks("exp", 1, ["payload"], tag="tag-a", time_created=5.0)[0]
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
            remote.report_batch([(tid, 0, f"r{tid}")])
        assert dict(remote.pop_in_any(ids)) == {ids[0]: f"r{ids[0]}", ids[1]: f"r{ids[1]}"}

    def test_experiment_and_tag_queries(self, remote):
        a = remote.create_tasks("exp-x", 0, ["p"], tag="t1")[0]
        b = remote.create_tasks("exp-x", 0, ["p"])[0]
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
        backing = SqliteTaskStore()
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


class TestOneServiceThread:
    def test_threads_do_not_grow_with_clients_or_parked_waits(self):
        backing = SqliteTaskStore()
        service = TaskService(backing).start()
        socks = []
        try:
            before = threading.active_count()
            for i in range(8):
                sock = socket.create_connection(service.address, timeout=5)
                socks.append(sock)
                if i % 2:
                    continue  # a connected, idle client
                protocol.write_frame(sock.sendall, {
                    "id": 1, "method": "pop_out",
                    "params": {"eq_type": 0, "n": 1, "wait_ms": 30_000},
                })
            deadline = time.monotonic() + 10.0
            while True:
                status = service.status_snapshot()["service"]
                if (status["waiters"], status["connections_active"]) == (4, 8):
                    break
                assert time.monotonic() < deadline, "not all served and parked"
                time.sleep(0.005)
            assert threading.active_count() == before
        finally:
            service.stop()
            for sock in socks:
                sock.close()
            backing.close()


class TestMeRpcCost:
    def test_submit_and_collect_are_one_rpc_per_batch(self):
        # The ME-side twin of the busy pool's one RPC per task: a batch
        # submit is one create_tasks, and draining results that have
        # all landed is one pop_in_any, not one round trip per task.
        n_tasks = 200
        backing = SqliteTaskStore()
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
                backing.report_batch([(task_id, 0, "r")])
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

    def test_singular_api_is_one_batch_of_one_rpc_per_call(self):
        # The paper's Listing 1/2 names on the pingpong path: each call
        # is one round trip, and on the wire it is the batch op.
        backing = SqliteTaskStore()
        service_metrics = MetricsRegistry()
        service = TaskService(backing, metrics=service_metrics).start()
        me_metrics, pool_metrics = MetricsRegistry(), MetricsRegistry()
        me = EQSQL(RemoteTaskStore(*service.address, metrics=me_metrics))
        pool = EQSQL(RemoteTaskStore(*service.address, metrics=pool_metrics))

        def served() -> dict[str, float]:
            return {
                name.removeprefix("service.requests."): service_metrics.get(name).value
                for name in service_metrics.names()
                if name.startswith("service.requests.")
            }

        def cost(client_metrics: MetricsRegistry, call):
            """``call()``'s value, its client RPCs, and the requests the
            service served for it by method (handshakes aside)."""
            rpcs = client_metrics.counter("service.client.rpcs")
            rpcs_before, served_before = rpcs.value, served()
            value = call()
            moved = {
                method: count - served_before[method]
                for method, count in served().items()
                if count != served_before[method] and method != "ping"
            }
            return value, rpcs.value - rpcs_before, moved

        try:
            future, n, methods = cost(me_metrics, lambda: me.submit_task("exp", 0, "{}"))
            assert (n, methods) == (1, {"create_tasks": 1})
            ((tid, _payload),) = backing.pop_out(0)
            _, n, methods = cost(pool_metrics, lambda: pool.report_task(tid, 0, "r"))
            assert (n, methods) == (1, {"report_batch": 1})
            result, n, methods = cost(me_metrics, lambda: future.result(timeout=10.0))
            assert result == (ResultStatus.SUCCESS, "r")
            assert (n, methods) == (1, {"pop_in_any": 1})
            assert {m for m, count in served().items() if count} <= {
                "ping", "create_tasks", "report_batch", "pop_in_any",
            }
            assert not {
                f"service.requests.{m}" for m in ("create_task", "report", "pop_in")
            } & set(service_metrics.names())
        finally:
            me.close()
            pool.close()
            service.stop()
            backing.close()


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

    def test_traffic_counters_count_whole_frames(self):
        # Frames stream in and out in pieces; the byte counters still
        # add up whole frames, attachments included.
        big = "é" * 70_000  # an attachment of several send chunks' worth
        requests = [
            protocol.encode_message({
                "id": 1, "method": "create_tasks",
                "params": {"exp_id": "e", "eq_type": 0, "payloads": [big, big]},
            }),
            protocol.encode_message(
                {"id": 2, "method": "pop_out", "params": {"eq_type": 0, "n": 2}}
            ),
        ]
        backing = SqliteTaskStore()
        service = TaskService(backing, metrics=MetricsRegistry()).start()
        try:
            with socket.create_connection(service.address, timeout=5) as sock:
                sock.sendall(b"".join(requests))
                rfile = sock.makefile("rb")
                answers = [protocol.read_frame(rfile) for _ in requests]
                rfile.close()
            # A response is counted once sent: wait for the handler to end.
            deadline = time.monotonic() + 5
            while service.g_connections.value and time.monotonic() < deadline:
                time.sleep(0.005)
            assert answers[1][0]["result"] == [[1, big], [2, big]]
            assert service.m_bytes_received.value == sum(map(len, requests))
            assert service.m_bytes_sent.value == sum(size for _, size in answers)
        finally:
            service.stop()
            backing.close()
