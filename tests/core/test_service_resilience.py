"""RemoteTaskStore resilience: reconnect, retry classification, desync.

The client promises: idempotent RPCs survive any connection fault
transparently (teardown, backoff, re-handshake, re-send); non-idempotent
RPCs are retried only when the request provably never left (connect
failure), and otherwise raise ConnectionBrokenError; a desynced socket
is never reused.  The chaos proxy provides the faults.
"""

from __future__ import annotations

import random
import socket
import threading

import pytest

from repro.core import RemoteTaskStore, TaskService
from repro.core import protocol
from repro.core.ops import OPS, retryable
from repro.core.service_client import RetryPolicy
from repro.db import SqliteTaskStore
from repro.db.backend import TaskStore
from repro.telemetry.metrics import MetricsRegistry
from repro.testing import ChaosProxy
from repro.util.errors import (
    ConnectionBrokenError,
    NotFoundError,
    ServiceUnavailableError,
)

FAST_RETRY = RetryPolicy(max_attempts=6, base_delay=0.01, max_delay=0.05)


@pytest.fixture
def service():
    backing = SqliteTaskStore()
    svc = TaskService(backing).start()
    yield svc
    svc.stop()
    backing.close()


@pytest.fixture
def proxy(service):
    with ChaosProxy(*service.address, rng=random.Random(7)) as p:
        yield p


@pytest.fixture
def client(proxy):
    metrics = MetricsRegistry()
    store = RemoteTaskStore(
        *proxy.address, retry=FAST_RETRY, metrics=metrics, rng=random.Random(7)
    )
    store.test_metrics = metrics
    yield store
    store.close()


class TestRetryClassification:
    def test_every_store_method_is_classified(self):
        # The op table and the TaskStore contract are the same set: a
        # new store method without a row would have no RPC (and no
        # retry class); a row without a method would have no backend.
        # Walks every public method, not just the abstract ones, so the
        # default-implemented report_pop is covered.
        not_rpcs = {"close", "wake_waiters"}  # local lifecycle, never on the wire
        contract = {
            name
            for name, member in vars(TaskStore).items()
            if callable(member) and not name.startswith("_")
        } - not_rpcs
        on_store = {name for name, op in OPS.items() if op.on_store}
        assert on_store == contract
        assert {name for name, op in OPS.items() if not op.on_store} == {
            "ping", "telemetry",
        }
        for name, op in OPS.items():
            assert op.name == name and isinstance(op.idempotent, bool)
        # One op per verb: the batch ops are the only create/report/collect.
        assert not {"create_task", "report", "pop_in"} & set(OPS)

    def test_derived_stubs_cover_the_contract(self):
        # Nothing abstract is left, and no op silently falls back to the
        # base class (the FlakyTaskStore drift this table removed).
        from repro.testing import FlakyTaskStore

        for cls in (RemoteTaskStore, FlakyTaskStore):
            assert not cls.__abstractmethods__
            for name, op in OPS.items():
                if op.on_store:
                    assert name in vars(cls), (cls.__name__, name)
                    assert getattr(cls, name).__doc__ == getattr(TaskStore, name).__doc__

    def test_mutating_but_convergent_methods_are_idempotent(self):
        for method in ("report_batch", "requeue", "renew_leases", "requeue_expired"):
            assert OPS[method].idempotent

    def test_pops_and_creates_are_not(self):
        for method in ("create_tasks", "pop_out", "pop_in_any", "report_pop"):
            assert not OPS[method].idempotent
            assert not retryable(method, {})
        # ... except a long-poll pop, which is always re-sent.
        assert retryable("pop_out", {"wait_ms": 250})
        assert not retryable("no_such_method", {})

    def test_stubs_bind_exactly_like_the_abc_signature(self, client):
        import inspect

        for name, op in OPS.items():
            if op.on_store:
                declared = inspect.signature(getattr(TaskStore, name)).parameters
                derived = inspect.signature(getattr(RemoteTaskStore, name)).parameters
                assert [
                    (p.name, p.kind, p.default) for p in derived.values()
                ] == [(p.name, p.kind, p.default) for p in declared.values()]
        rpcs = client.test_metrics.get("service.client.rpcs").value
        for args, kwargs in [
            ((), {}),                       # missing eq_type
            ((0, 1, "pool"), {}),           # worker_pool is keyword-only
            ((0,), {"eq_type": 1}),         # repeated
            ((0,), {"bogus": 1}),           # unexpected
        ]:
            with pytest.raises(TypeError):
                client.pop_out(*args, **kwargs)
        # Rejected before anything was sent.
        assert client.test_metrics.get("service.client.rpcs").value == rpcs


class TestReconnectAndRetry:
    def test_idempotent_call_survives_sever(self, proxy, client):
        client.create_tasks("exp", 0, ["p"])
        assert proxy.sever_all() >= 1
        # The read fails on the dead socket; the client reconnects
        # (through the proxy) and re-sends transparently.
        assert client.queue_out_length(0) == 1
        assert client.connected
        assert client.test_metrics.get("service.client.reconnects").value >= 1

    def test_report_survives_sever(self, proxy, client):
        tid = client.create_tasks("exp", 0, ["p"])[0]
        client.pop_out(0, worker_pool="w")
        proxy.sever_all()
        client.report_batch([(tid, 0, "result")])  # idempotent: retried
        assert client.pop_in_any([tid]) == [(tid, "result")]

    def test_lease_calls_survive_sever(self, proxy, client):
        tid = client.create_tasks("exp", 0, ["p"])[0]
        client.pop_out(0, worker_pool="w", now=0.0, lease=10.0)
        proxy.sever_all()
        assert client.renew_leases([tid], now=5.0, lease=10.0) == 1
        proxy.sever_all()
        assert client.requeue_expired(now=30.0) == [tid]

    def test_non_idempotent_mid_request_raises_connection_broken(
        self, proxy, client
    ):
        proxy.sever_all()  # client holds a socket the proxy just killed
        with pytest.raises(ConnectionBrokenError):
            client.create_tasks("exp", 0, ["p"])
        # The desynced socket was torn down, not kept.
        assert not client.connected
        # The caller decides to retry; a fresh connection serves it.
        assert client.create_tasks("exp", 0, ["p2"])[0] >= 1

    def test_typed_error_keeps_the_connection(self, client):
        client.queue_in_length()  # establish
        rpcs = client.test_metrics.get("service.client.rpcs").value
        with pytest.raises(NotFoundError):
            client.get_task(9999)
        # An ok: false frame is a successful exchange: no teardown, no
        # reconnect, no count as a completed RPC.
        assert client.connected
        assert client.test_metrics.get("service.client.reconnects").value == 0
        assert client.test_metrics.get("service.client.rpcs").value == rpcs
        assert client.queue_in_length() == 0

    def test_connect_failure_retries_a_non_idempotent_call(
        self, proxy, client, monkeypatch
    ):
        # No socket held and new connections refused: the create_task
        # below first fails in its own connect, before the request is
        # written, so even this non-idempotent call may be retried.
        proxy.sever_all()
        with client._lock:
            client._teardown_locked()
        proxy.pause()
        refused, resumed = threading.Event(), threading.Event()
        open_connection = client._open_connection

        def open_or_signal():
            try:
                return open_connection()
            except (OSError, ConnectionError):
                refused.set()
                assert resumed.wait(5)  # the outage ends before the retry
                raise

        def lift_outage():
            if refused.wait(5):
                proxy.resume()
                resumed.set()

        monkeypatch.setattr(client, "_open_connection", open_or_signal)
        lifter = threading.Thread(target=lift_outage, daemon=True)
        lifter.start()
        tid = client.create_tasks("exp", 0, ["p"])[0]
        lifter.join(5)
        assert refused.is_set()
        assert client.test_metrics.get("service.client.retries").value >= 1
        # Applied exactly once.
        assert client.max_task_id() == tid == 1
        assert client.queue_out_length(None) == 1

    def test_retries_exhausted_raises_service_unavailable(self, proxy, client):
        client.queue_in_length()  # establish
        proxy.pause()  # outage: new connections are refused
        proxy.sever_all()
        with pytest.raises(ServiceUnavailableError):
            client.queue_in_length()
        # Outage ends; the same client recovers on the next call.
        proxy.resume()
        assert client.queue_in_length() == 0

    def test_constructor_fails_fast_when_unreachable(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises((OSError, ConnectionError)):
            RemoteTaskStore("127.0.0.1", port)

    def test_closed_client_refuses_calls(self, client):
        client.close()
        with pytest.raises(RuntimeError):
            client.queue_in_length()


class _MisbehavingServer:
    """A fake service that handshakes correctly, then answers every
    subsequent request with a mismatched response id (a stale frame).
    ``handshake_id`` replaces the id of the handshake's answer."""

    def __init__(self, handshake_id=None):
        self._handshake_id = handshake_id
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self.address = self._listener.getsockname()
        self._stop = False
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._stop:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(
                target=self._handle, args=(conn,), daemon=True
            ).start()

    def _handle(self, conn):
        rfile = conn.makefile("rb")
        try:
            first = True
            while True:
                request = protocol.read_message(rfile)
                if request is None:
                    return
                if first:
                    answer_id = request["id"]
                    if self._handshake_id is not None:
                        answer_id = self._handshake_id
                    protocol.write_frame(conn.sendall, {
                        "id": answer_id, "ok": True,
                        "result": {"version": protocol.PROTOCOL_VERSION},
                    })
                    first = False
                else:
                    protocol.write_frame(conn.sendall, {
                        "id": request["id"] + 1000, "ok": True, "result": None,
                    })
        except (OSError, ValueError):
            pass
        finally:
            conn.close()

    def close(self):
        self._stop = True
        self._listener.close()


class TestDesyncDetection:
    # Regression for the stale-frame hazard: a response whose id does
    # not match the request must never be returned as the result, and
    # the connection must be replaced, not reused.

    def test_mismatched_id_on_non_idempotent_breaks_connection(self):
        server = _MisbehavingServer()
        try:
            client = RemoteTaskStore(*server.address, retry=FAST_RETRY)
            with pytest.raises(ConnectionBrokenError):
                client.create_tasks("exp", 0, ["p"])
            assert not client.connected
            client.close()
        finally:
            server.close()

    def test_boolean_id_does_not_answer_request_one(self):
        # JSON true decodes to True, which equals and hashes like 1: the
        # handshake (request id 1) must still refuse it as desynced.
        server = _MisbehavingServer(handshake_id=True)
        try:
            with pytest.raises(ConnectionError, match="desynced"):
                RemoteTaskStore(*server.address, retry=FAST_RETRY)
        finally:
            server.close()

    def test_mismatched_id_on_idempotent_retries_then_gives_up(self):
        server = _MisbehavingServer()
        try:
            client = RemoteTaskStore(
                *server.address,
                retry=RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.02),
            )
            # Every attempt gets a fresh connection and a fresh stale
            # frame; the client must keep discarding, never pair the
            # wrong response with the request.
            with pytest.raises(ServiceUnavailableError, match="desynced"):
                client.queue_in_length()
            client.close()
        finally:
            server.close()


class TestRetryPolicy:
    def test_delay_grows_and_caps(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=1.0, multiplier=2.0,
                             jitter=0.0)
        rng = random.Random(0)
        assert policy.delay(0, rng) == pytest.approx(0.1)
        assert policy.delay(1, rng) == pytest.approx(0.2)
        assert policy.delay(10, rng) == pytest.approx(1.0)  # capped

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=1.0, multiplier=2.0,
                             jitter=0.5)
        rng = random.Random(42)
        for attempt in range(6):
            raw = min(1.0, 0.1 * 2.0**attempt)
            for _ in range(50):
                d = policy.delay(attempt, rng)
                assert raw * 0.5 <= d <= raw
