"""Unit tests for the fault-injection harness itself.

A chaos harness that silently injects nothing (or breaks traffic it
should forward) proves nothing about the system under test, so the
injectors get their own tests: the proxy forwards bytes faithfully when
quiet, severs/pauses on command, and counts what it did; the flaky
store wrapper faults where configured — before or after the real
operation — and nowhere else.
"""

from __future__ import annotations

import random
import socket
import threading
import time

import pytest

from repro.db import SqliteTaskStore
from repro.testing import ChaosProxy, FlakyTaskStore


class _EchoServer:
    """Minimal upstream: echoes every byte back."""

    def __init__(self):
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self.address = self._listener.getsockname()
        threading.Thread(target=self._serve, daemon=True).start()

    def _serve(self):
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(
                target=self._echo, args=(conn,), daemon=True
            ).start()

    def _echo(self, conn):
        try:
            while True:
                chunk = conn.recv(4096)
                if not chunk:
                    return
                conn.sendall(chunk)
        except OSError:
            pass
        finally:
            conn.close()

    def close(self):
        self._listener.close()


@pytest.fixture
def echo():
    server = _EchoServer()
    yield server
    server.close()


class TestChaosProxy:
    def test_forwards_traffic_when_quiet(self, echo):
        with ChaosProxy(*echo.address) as proxy:
            sock = socket.create_connection(proxy.address, timeout=5)
            sock.sendall(b"hello through the proxy")
            assert sock.recv(4096) == b"hello through the proxy"
            sock.close()
            assert proxy.connections_total == 1
            assert proxy.connections_severed == 0

    def test_sever_all_kills_live_connections(self, echo):
        with ChaosProxy(*echo.address) as proxy:
            sock = socket.create_connection(proxy.address, timeout=5)
            sock.sendall(b"ping")
            assert sock.recv(4096) == b"ping"
            assert proxy.sever_all() == 1
            # The severed connection yields EOF (or reset) on next read.
            sock.settimeout(5)
            try:
                data = sock.recv(4096)
            except OSError:
                data = b""
            assert data == b""
            sock.close()
            assert proxy.connections_severed == 1

    def test_sever_rate_one_drops_first_chunk(self, echo):
        rng = random.Random(1)
        with ChaosProxy(*echo.address, sever_rate=1.0, rng=rng) as proxy:
            sock = socket.create_connection(proxy.address, timeout=5)
            sock.settimeout(5)
            sock.sendall(b"doomed")
            try:
                data = sock.recv(4096)
            except OSError:
                data = b""
            assert data == b""
            sock.close()
            assert proxy.connections_severed >= 1

    def test_pause_refuses_new_connections_resume_restores(self, echo):
        with ChaosProxy(*echo.address) as proxy:
            proxy.pause()
            sock = socket.create_connection(proxy.address, timeout=5)
            sock.settimeout(5)
            # Accepted then immediately closed: reads yield EOF/reset.
            try:
                data = sock.recv(4096)
            except OSError:
                data = b""
            assert data == b""
            sock.close()
            proxy.resume()
            sock = socket.create_connection(proxy.address, timeout=5)
            sock.sendall(b"back")
            assert sock.recv(4096) == b"back"
            sock.close()

    def test_delay_slows_forwarding(self, echo):
        with ChaosProxy(*echo.address, delay=0.1) as proxy:
            sock = socket.create_connection(proxy.address, timeout=5)
            t0 = time.monotonic()
            sock.sendall(b"slow")
            assert sock.recv(4096) == b"slow"
            # One delay each way.
            assert time.monotonic() - t0 >= 0.2
            sock.close()

    def test_double_start_rejected(self, echo):
        proxy = ChaosProxy(*echo.address).start()
        with pytest.raises(RuntimeError):
            proxy.start()
        proxy.stop()

    def test_stop_ends_the_accept_thread(self, echo):
        proxy = ChaosProxy(*echo.address).start()
        accept_thread = proxy._accept_thread
        assert accept_thread is not None and accept_thread.is_alive()
        proxy.stop()
        # stop() joins with a 5 s cap; a thread still blocked in
        # accept() outlives that join.
        assert not accept_thread.is_alive()


@pytest.fixture
def flaky_pair():
    inner = SqliteTaskStore()
    yield inner
    inner.close()


class TestFlakyTaskStore:
    def test_passthrough_at_rate_zero(self, flaky_pair):
        flaky = FlakyTaskStore(flaky_pair, failure_rate=0.0)
        tid = flaky.create_tasks("exp", 0, ["p"])[0]
        assert flaky.pop_out(0) == [(tid, "p")]
        flaky.report_batch([(tid, 0, "r")])
        assert flaky.pop_in_any([tid]) == [(tid, "r")]
        assert flaky.faults_injected == {}

    def test_fault_before_operation_leaves_inner_untouched(self, flaky_pair):
        flaky = FlakyTaskStore(
            flaky_pair, failure_rate=1.0, lost_response_rate=0.0,
            rng=random.Random(3),
        )
        with pytest.raises(ConnectionError, match="before"):
            flaky.create_tasks("exp", 0, ["p"])
        assert flaky_pair.max_task_id() == 0
        assert flaky.faults_injected["create_tasks"] == 1

    def test_fault_after_operation_applies_then_raises(self, flaky_pair):
        # The applied-but-unacknowledged case: the store state advanced
        # even though the caller saw a connection error.
        flaky = FlakyTaskStore(
            flaky_pair, failure_rate=1.0, lost_response_rate=1.0,
            rng=random.Random(3),
        )
        with pytest.raises(ConnectionError, match="response lost"):
            flaky.create_tasks("exp", 0, ["p"])
        assert flaky_pair.max_task_id() == 1

    def test_method_restriction(self, flaky_pair):
        flaky = FlakyTaskStore(
            flaky_pair, failure_rate=1.0, lost_response_rate=0.0,
            methods={"report_batch"}, rng=random.Random(3),
        )
        tid = flaky.create_tasks("exp", 0, ["p"])[0]  # not in methods: clean
        flaky.pop_out(0)
        with pytest.raises(ConnectionError):
            flaky.report_batch([(tid, 0, "r")])
        assert set(flaky.faults_injected) == {"report_batch"}

    def test_close_never_faults(self, flaky_pair):
        flaky = FlakyTaskStore(flaky_pair, failure_rate=1.0)
        flaky.wake_waiters()  # shutdown paths: must not raise
        flaky.close()
        assert flaky.faults_injected == {}

    def test_cache_ops_reach_the_inner_store(self, flaky_pair):
        # Parity regression: the wrapper used to inherit the ABC's
        # cacheless defaults, hiding the inner store's cache entirely.
        flaky = FlakyTaskStore(flaky_pair, failure_rate=0.0)
        assert flaky.cache_get("k") is None
        flaky.cache_put("k", 0, "v", now=1.0)
        assert flaky.cache_get("k", now=2.0) == "v"
        stats = flaky.cache_stats()
        assert (stats["entries"], stats["hits"], stats["misses"]) == (1, 1, 1)
        assert stats == flaky_pair.cache_stats()

    def test_report_batch_is_one_inner_call_under_its_own_name(self, flaky_pair):
        # Parity regression: report_batch used to fall back to the ABC's
        # per-item report loop, so it never reached the inner batch path
        # and could not be fault-injected by name.
        calls = []
        inner_batch = flaky_pair.report_batch
        flaky_pair.report_batch = lambda *a, **kw: (
            calls.append((a, kw)), inner_batch(*a, **kw)
        )[1]
        flaky = FlakyTaskStore(
            flaky_pair, failure_rate=1.0, lost_response_rate=1.0,
            methods={"report_batch"}, rng=random.Random(3),
        )
        ids = flaky.create_tasks("exp", 0, ["a", "b"])
        flaky.pop_out(0, 2)
        with pytest.raises(ConnectionError, match="after report_batch"):
            flaky.report_batch([(tid, 0, "r") for tid in ids], now=1.0)
        assert len(calls) == 1
        assert flaky.faults_injected == {"report_batch": 1}
        assert flaky_pair.queue_in_length() == 2  # applied, ack lost

    def test_inner_accessor(self, flaky_pair):
        flaky = FlakyTaskStore(flaky_pair)
        assert flaky.inner is flaky_pair

    def test_seeded_runs_are_reproducible(self, flaky_pair):
        def run(seed):
            flaky = FlakyTaskStore(
                SqliteTaskStore(), failure_rate=0.5, rng=random.Random(seed)
            )
            outcomes = []
            for i in range(20):
                try:
                    flaky.create_tasks("exp", 0, [f"p{i}"])
                    outcomes.append("ok")
                except ConnectionError as exc:
                    outcomes.append("before" if "before" in str(exc) else "after")
            return outcomes

        assert run(11) == run(11)
        assert run(11) != run(12)
