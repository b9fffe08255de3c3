"""Adversarial tests: the EMEWS service under hostile/buggy clients.

A resource-local service shared by many pools must shrug off malformed
frames, unknown methods, bad parameters, and abrupt disconnects without
corrupting state or denying service to well-behaved clients.
"""

from __future__ import annotations

import socket

import pytest

from repro.core import EQSQL, RemoteTaskStore, TaskService
from repro.core.protocol import read_message, write_frame
from repro.db import MemoryTaskStore


@pytest.fixture
def service():
    backing = MemoryTaskStore()
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
