"""Adversarial tests: the EMEWS service under hostile/buggy clients.

A resource-local service shared by many pools must shrug off malformed
frames, unknown methods, bad parameters, and abrupt disconnects without
corrupting state or denying service to well-behaved clients.
"""

from __future__ import annotations

import socket
import time

import pytest

from repro.core import EQSQL, RemoteTaskStore, TaskService
from repro.core.protocol import encode_message, read_message, write_frame
from repro.db import SqliteTaskStore
from repro.db.schema import TaskStatus

#: How long a well-behaved client may wait for an answer while another
#: peer misbehaves (the ``PROMPT`` bound of ``test_wait_dispatch.py``).
PROMPT = 3.0


@pytest.fixture
def service():
    backing = SqliteTaskStore()
    svc = TaskService(backing).start()
    yield svc
    svc.stop()
    backing.close()


def raw_connection(service):
    host, port = service.address
    sock = socket.create_connection((host, port), timeout=5)
    return sock, sock.makefile("rb")


class TestMalformedTraffic:
    def test_garbage_line_drops_connection_not_server(self, service):
        sock, _rfile = raw_connection(service)
        sock.sendall(b"this is not json\n")
        sock.close()
        # The server still serves a proper client.
        host, port = service.address
        store = RemoteTaskStore(host, port)
        assert store.create_tasks("e", 0, ["p"])[0] == 1
        store.close()

    def test_non_object_frame(self, service):
        sock, rfile = raw_connection(service)
        sock.sendall(b"[1, 2, 3]\n")
        # Connection is dropped (read returns EOF); server survives.
        assert rfile.readline() == b""
        sock.close()

    def test_unknown_method_clean_error(self, service):
        sock, rfile = raw_connection(service)
        write_frame(sock.sendall, {"id": 1, "method": "drop_all_tables", "params": {}})
        response = read_message(rfile)
        assert response is not None
        assert response["ok"] is False
        assert "unknown method" in response["error"]["message"]
        sock.close()

    def test_missing_method_clean_error(self, service):
        sock, rfile = raw_connection(service)
        write_frame(sock.sendall, {"id": 2, "params": {}})
        response = read_message(rfile)
        assert response["ok"] is False
        sock.close()

    def test_bad_params_type(self, service):
        sock, rfile = raw_connection(service)
        write_frame(sock.sendall, {"id": 3, "method": "pop_in_any", "params": [[1]]})
        response = read_message(rfile)
        assert response["ok"] is False
        sock.close()

    def test_wrong_param_names_reported(self, service):
        sock, rfile = raw_connection(service)
        write_frame(
            sock.sendall, {"id": 4, "method": "pop_in_any", "params": {"wrong": 1}}
        )
        response = read_message(rfile)
        assert response["ok"] is False
        sock.close()

    def test_abrupt_disconnect_mid_session(self, service):
        host, port = service.address
        store = RemoteTaskStore(host, port)
        store.create_tasks("e", 0, ["a", "b"])
        # Kill the socket without goodbye.
        store._conn.sock.close()
        # State intact; fresh client sees both tasks.
        fresh = RemoteTaskStore(host, port)
        assert fresh.queue_out_length(0) == 2
        fresh.close()


class TestConcurrentHostileAndFriendly:
    def test_friendly_clients_unharmed_by_fuzzer(self, service):
        import threading

        host, port = service.address
        stop = threading.Event()

        def fuzzer():
            junk = [b"\n", b"{}\n", b'{"id": null}\n', b"\x00\xff\n", b'"str"\n']
            while not stop.is_set():
                try:
                    sock = socket.create_connection((host, port), timeout=2)
                    for frame in junk:
                        sock.sendall(frame)
                    sock.close()
                except OSError:
                    pass

        thread = threading.Thread(target=fuzzer, daemon=True)
        thread.start()
        try:
            eq = EQSQL(RemoteTaskStore(host, port))
            futures = eq.submit_tasks("e", 0, [f"p{i}" for i in range(30)])
            messages = eq.query_task(0, n=30, timeout=5)
            assert len(messages) == 30
            for message in messages:
                eq.report_task(message["eq_task_id"], 0, "r")
            done = sum(
                1 for f in futures if f.result(timeout=1)[0].value == "success"
            )
            assert done == 30
        finally:
            stop.set()
            thread.join(timeout=5)


def _waiters(service) -> int:
    return service.status_snapshot()["service"]["waiters"]


def _until(predicate, seconds: float = 10.0) -> bool:
    """Poll ``predicate`` for up to ``seconds``; its last value."""
    deadline = time.monotonic() + seconds
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


def _park_raw(service, method: str, params: dict) -> socket.socket:
    """A raw connection whose long-poll the service has parked."""
    sock, _rfile = raw_connection(service)
    write_frame(
        sock.sendall,
        {"id": 1, "method": method, "params": {**params, "wait_ms": 30_000}},
    )
    assert _until(lambda: _waiters(service) == 1), "wait never parked"
    return sock


class TestGoneWaiterClaimsNothing:
    """A long-poll whose client disconnected must not claim work that
    nobody can receive: a fetch would leave its task RUNNING with no
    owner and no lease, a collect would consume results for nobody."""

    def test_fetch_of_a_closed_connection_claims_nothing(self, service):
        sock = _park_raw(service, "pop_out", {"eq_type": 0, "n": 1})
        sock.close()
        # The loop sees the EOF and drops the parked request.
        _until(lambda: _waiters(service) == 0, seconds=2.0)
        store = RemoteTaskStore(*service.address)
        try:
            [tid] = store.create_tasks("e", 0, ["p"])
            time.sleep(0.2)  # a stale waiter would have claimed by now
            assert store.queue_out_length() == 1
            assert store.get_task(tid).eq_status == TaskStatus.QUEUED
        finally:
            store.close()

    def test_collect_of_a_closed_connection_consumes_nothing(self, service):
        store = RemoteTaskStore(*service.address)
        try:
            [tid] = store.create_tasks("e", 0, ["p"])
            assert store.pop_out(0, 1) == [(tid, "p")]
            sock = _park_raw(service, "pop_in_any", {"eq_task_ids": [tid]})
            sock.close()
            _until(lambda: _waiters(service) == 0, seconds=2.0)
            store.report_batch([(tid, 0, "r")])
            time.sleep(0.2)  # a stale waiter would have consumed it by now
            assert store.queue_in_length() == 1
            assert store.pop_in_any([tid]) == [(tid, "r")]
        finally:
            store.close()


class TestStalledPeers:
    """A peer that stops halfway through a frame, or never reads its
    answer, delays nobody else: another client is answered promptly."""

    @staticmethod
    def _prompt(service) -> None:
        store = RemoteTaskStore(*service.address)
        try:
            t0 = time.monotonic()
            assert store.queue_in_length() == 0
            assert time.monotonic() - t0 < PROMPT
        finally:
            store.close()

    def test_half_a_header_line(self, service):
        sock, _rfile = raw_connection(service)
        try:
            sock.sendall(b'{"id": 1, "method": "queue_in_len')
            self._prompt(service)
        finally:
            sock.close()

    def test_header_and_half_an_attachment(self, service):
        frame = encode_message({
            "id": 1, "method": "create_tasks",
            "params": {"exp_id": "e", "eq_type": 0, "payloads": ["x" * 65536]},
        })
        head = frame.index(b"\n") + 1
        sock, _rfile = raw_connection(service)
        try:
            sock.sendall(frame[: head + 32768])
            self._prompt(service)
        finally:
            sock.close()
        assert service.store.queue_out_length() == 0  # nothing applied

    def test_a_peer_that_never_reads_a_large_response(self, service):
        big = "y" * (2 << 20)
        service.store.create_tasks("e", 0, [big] * 4)  # an 8 MiB answer
        sock = socket.socket()
        # A small receive window: the answer cannot all be buffered.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.connect(service.address)
        try:
            write_frame(
                sock.sendall,
                {"id": 1, "method": "pop_out", "params": {"eq_type": 0, "n": 4}},
            )
            assert _until(lambda: service.store.queue_out_length() == 0)
            self._prompt(service)
        finally:
            sock.close()
