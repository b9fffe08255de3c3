"""Client-side remote task store with automatic reconnection.

:class:`RemoteTaskStore` implements the full :class:`repro.db.TaskStore`
contract over a TCP connection to a :class:`repro.core.service.TaskService`.
Because it *is* a store, the unchanged :class:`repro.core.eqsql.EQSQL`
class runs against it — an ME algorithm on a laptop drives a database on
a cluster exactly as it drives a local one, which is the paper's
deployment (local Python script, EMEWS DB on Bebop, SSH tunnel between).

One socket is shared behind a lock, and every exchange on it is one
request and its response (lockstep).  Round trips are saved by the
batch ops — ``create_tasks``, ``pop_out(n)``, ``report_batch``,
``report_pop``, ``pop_in_any`` — not by keeping several requests in
flight.  Worker pools that want concurrency open one client each.

Long-poll RPCs (``pop_out``/``pop_in_any`` with a ``wait``) are the one
exception to the shared socket: each rides a dedicated wait-channel
connection from a small pool (see :class:`_Conn`), because a request
that blocks server-side for seconds must not hold the lockstep lock and
starve the fetches and reports sharing the store.

Resilience (paper §IV-B: tasks "are not lost when a resource fails"):
a dropped connection no longer kills the store.  Every RPC is
idempotent or not — the flag, and the reason for it, is on the op's row
in :mod:`repro.core.ops`, from which this class's ``TaskStore`` methods
are also derived:

- **Idempotent** methods (reads, ``report_batch``, ``requeue``, lease
  renewal, ...) are retried transparently — the client tears down the
  broken socket, reconnects with exponential backoff + jitter,
  re-handshakes (ping + auth), and re-sends.
- **Non-idempotent** methods (``create_tasks``, ``pop_out``,
  ``report_pop``, ``pop_in_any``) are retried only while the failure is
  provably pre-send (the connect itself failed).  Once the request may have
  reached the server, retrying could double-apply it, so the client
  raises :class:`~repro.util.errors.ConnectionBrokenError` and leaves
  recovery to the caller — for popped-but-lost tasks, the server-side
  lease reaper requeues them automatically.

After any mid-request failure the socket is torn down rather than
reused: a connection that died between write and read is desynced (the
next read could pair a stale response with a new request id), and the
only safe move is a fresh connection.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any

from repro.core import protocol
from repro.core.ops import (
    PING,
    TELEMETRY,
    Op,
    retryable,
    signature_method,
    store_methods,
    wait_seconds,
)
from repro.db.backend import TaskStore
from repro.telemetry.metrics import MetricsRegistry, get_metrics
from repro.telemetry.tracing import Span, Tracer, get_tracer
from repro.util.errors import (
    ConnectionBrokenError,
    ReproError,
    ServiceUnavailableError,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Reconnect/retry schedule: exponential backoff with full jitter.

    ``max_attempts`` bounds the total tries per RPC (first attempt
    included).  The delay before retry ``k`` is
    ``min(max_delay, base_delay * multiplier**k)`` scaled by a uniform
    random factor in ``[1 - jitter, 1]`` so a fleet of pools severed by
    the same network event does not reconnect in lockstep.
    """

    max_attempts: int = 5
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        raw = min(self.max_delay, self.base_delay * self.multiplier**attempt)
        if self.jitter <= 0:
            return raw
        return raw * (1.0 - self.jitter * rng.random())


#: Extra socket-read headroom on top of a long-poll's wait, so a server
#: that blocks the full ``wait_ms`` (plus scheduling noise) is not
#: misread as dead by a client with a bounded ``io_timeout``.
WAIT_SLACK: float = 5.0

#: Idle wait-channel connections kept warm per store.  Wait RPCs run on
#: dedicated sockets (see :class:`RemoteTaskStore`); finished ones are
#: parked for reuse up to this many, the rest closed.
WAIT_POOL_SIZE: int = 2


class _Conn:
    """One handshaken connection: the shared lockstep channel, or a wait
    channel checked out of the pool for one long-poll's exclusive use."""

    __slots__ = ("sock", "rfile")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.rfile = sock.makefile("rb")

    def close(self) -> None:
        for f in (self.rfile, self.sock):
            try:
                f.close()
            except OSError:
                pass


def _store_stub(op: Op) -> Any:
    """The :class:`RemoteTaskStore` method for one store op: arguments
    bound as the ABC declares them, encoded, round-tripped, decoded."""
    to_wire, decode, name = op.to_wire, op.decode_result, op.name

    def finish(self: "RemoteTaskStore", params: dict[str, Any]) -> Any:
        if to_wire is not None:
            params = to_wire(params)
            if params is None:  # nothing to send (an empty batch)
                return None
        result = self._call(name, params)
        return decode(result) if decode is not None else result

    return signature_method(name, finish)


@store_methods(_store_stub)
class RemoteTaskStore(TaskStore):
    """A TaskStore proxied over the EMEWS service protocol.

    Long-poll waits are forwarded as ``wait_ms`` and the service parks
    them server-side (clamped to its ``max_wait_ms``);
    :meth:`wake_waiters` ends the ones in flight.
    """

    def __init__(
        self,
        host: str,
        port: int,
        auth_token: str | None = None,
        connect_timeout: float = 10.0,
        io_timeout: float | None = None,
        retry: RetryPolicy | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        rng: random.Random | None = None,
    ) -> None:
        self._host = host
        self._port = port
        self._token = auth_token
        self._connect_timeout = connect_timeout
        self._io_timeout = io_timeout
        self._retry = retry if retry is not None else RetryPolicy()
        self._rng = rng if rng is not None else random.Random()
        self._lock = threading.Lock()
        self._tracer = tracer
        registry = metrics if metrics is not None else get_metrics()
        self._m_rpcs = registry.counter(
            "service.client.rpcs", "requests sent to the EMEWS service"
        )
        self._m_rtt = registry.histogram(
            "service.client.rtt_seconds", help="request/response round-trip time"
        )
        self._m_retries = registry.counter(
            "service.client.retries", "RPC attempts repeated after a connection failure"
        )
        self._m_reconnects = registry.counter(
            "service.client.reconnects", "successful reconnections after a drop"
        )
        self._conn: _Conn | None = None
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._closed = False
        self._ever_connected = False
        # Dedicated long-poll connections (see _Conn): a small pool,
        # lazily opened on the first wait RPC.
        self._wpool_lock = threading.Lock()
        self._wait_idle: list[_Conn] = []
        self._wait_busy: set[_Conn] = set()
        with self._lock:
            # Fail fast on unreachable service / version / auth problems.
            self._connect_locked()

    @property
    def tracer(self) -> Tracer:
        return self._tracer if self._tracer is not None else get_tracer()

    @property
    def connected(self) -> bool:
        """Whether a live socket is currently held (no probe is sent)."""
        with self._lock:
            return self._conn is not None

    # -- the one exchange ----------------------------------------------------

    def _exchange(
        self,
        conn: _Conn,
        method: str,
        params: dict[str, Any],
        span: Span | None,
    ) -> dict[str, Any]:
        """Send one request on ``conn`` and return its response frame.

        The single send / receive / id-check path under the handshake,
        lockstep and wait-channel callers.  The response must answer
        this request's id: any other frame is a stale reply from an
        interrupted exchange, i.e. the stream is desynced.

        On any fault the connection is closed before the error
        propagates — a connection that died between write and read may
        hold a stale frame that would answer the *next* request, so it
        is never reused; the owner only has to forget it.
        """
        with self._id_lock:  # ids are unique across all channels
            self._next_id += 1
            request_id = self._next_id
        request: dict[str, Any] = {"id": request_id, "method": method, "params": params}
        if self._token is not None:
            request["token"] = self._token
        if span is not None:
            protocol.inject_trace(request, span.context)
        # The server legitimately goes quiet for a whole long-poll before
        # answering; a bounded per-RPC read timeout must cover the wait
        # plus slack, or every empty wait reads as a dead connection.
        io_timeout = self._io_timeout
        wait = wait_seconds(params) if io_timeout is not None else 0.0
        try:
            if wait > 0.0:
                conn.sock.settimeout(wait + max(io_timeout, WAIT_SLACK))  # type: ignore[type-var]
            if span is not None:
                tracer = self.tracer
                with tracer.span("rpc.send", component="service_client"):
                    protocol.write_frame(conn.sock.sendall, request)
                with tracer.span("rpc.recv", component="service_client"):
                    response = protocol.read_message(conn.rfile)
            else:
                protocol.write_frame(conn.sock.sendall, request)
                response = protocol.read_message(conn.rfile)
            if response is None:
                raise ConnectionError("service closed the connection")
            rid = response.get("id")
            # Type-exact: JSON ``true`` decodes to True, which equals 1
            # and would otherwise answer request 1.
            if not (type(rid) is int and rid == request_id):
                raise ConnectionError("service response id mismatch (desynced)")
            if wait > 0.0:
                conn.sock.settimeout(io_timeout)
        except (OSError, ConnectionError, ReproError):
            # ReproError: framing/serialization trouble from the
            # protocol layer — the same desync.
            conn.close()
            raise
        return response

    # -- connection management ---------------------------------------------

    def _open_connection(self) -> _Conn:
        """Dial, configure, and handshake one fresh connection.

        Shared by the lockstep channel and the wait pool; raises with
        the socket closed.
        """
        sock = socket.create_connection(
            (self._host, self._port), timeout=self._connect_timeout
        )
        conn = _Conn(sock)
        try:
            # Blocking I/O after connect (polling timeouts live in EQSQL)
            # unless the caller bounded per-RPC I/O with io_timeout.
            sock.settimeout(self._io_timeout)
            try:
                # Small frames must not wait out Nagle coalescing: every
                # lockstep RPC's request is the last bytes the connection
                # will send until the response arrives.
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
            # Handshake: ping carries the auth token and returns the
            # protocol version, so a bad token or an incompatible server
            # surfaces here as a typed remote error, not mid-workload.
            tracer = self.tracer
            if tracer.enabled:
                # Trace the handshake like any other RPC so the server's
                # service.ping span parents under it across the wire.
                with tracer.span("rpc.ping", component="service_client") as sp:
                    response = self._exchange(conn, PING.name, {}, sp)
            else:
                response = self._exchange(conn, PING.name, {}, None)
            version = (_result(response) or {}).get("version")
            if version != protocol.PROTOCOL_VERSION:
                raise ReproError(
                    f"protocol version mismatch: client {protocol.PROTOCOL_VERSION},"
                    f" server {version}"
                )
        except BaseException:
            conn.close()
            raise
        return conn

    def _connect_locked(self) -> None:
        """Open a fresh lockstep connection; caller holds the lock."""
        self._conn = self._open_connection()
        if self._ever_connected:
            self._m_reconnects.inc()
        self._ever_connected = True

    def _ensure_connected_locked(self) -> _Conn:
        """The live lockstep connection, dialing if needed; caller holds
        the lock.  A failed dial sent nothing: always safe to retry."""
        if self._closed:
            raise RuntimeError("remote store is closed")
        if self._conn is None:
            try:
                self._connect_locked()
            except (OSError, ConnectionError) as exc:
                raise _RetryableFailure(exc) from exc
        return self._conn  # type: ignore[return-value]

    def _teardown_locked(self) -> None:
        """Drop the (possibly desynced) lockstep connection; caller
        holds the lock.  It is replaced on the next call, never reused."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    # -- RPC core ----------------------------------------------------------

    def _call(self, method: str, params: dict[str, Any]) -> Any:
        tracer = self.tracer
        if not tracer.enabled:
            return self._call_raw(method, params, None)
        # The RPC span is the client-side half of the wire hop; the
        # service opens its child span from the propagated context, so
        # RTT decomposes into client wait vs server handling vs DB time.
        with tracer.span(f"rpc.{method}", component="service_client") as sp:
            return self._call_raw(method, params, sp)

    def _call_raw(
        self, method: str, params: dict[str, Any], span: Span | None
    ) -> Any:
        t0 = time.monotonic()
        # Long-polls ride a dedicated wait channel so the lockstep
        # socket (and its lock) stays free while they block server-side.
        attempt_once = (
            self._attempt_wait if wait_seconds(params) > 0.0 else self._attempt_lockstep
        )
        attempt = 0
        while True:
            try:
                response = attempt_once(method, params, span)
            except _RetryableFailure as failure:
                attempt += 1
                if span is not None:
                    span.set_attr("retries", attempt)
                if attempt >= self._retry.max_attempts:
                    raise ServiceUnavailableError(
                        f"rpc {method!r} failed after {attempt} attempts:"
                        f" {failure.cause}"
                    ) from failure.cause
                self._m_retries.inc()
                time.sleep(self._retry.delay(attempt - 1, self._rng))
                continue
            # A typed error response is a *successful* exchange: the
            # server handled the request; no connection fault occurred.
            result = _result(response)
            self._m_rpcs.inc()
            self._m_rtt.observe(time.monotonic() - t0)
            return result

    def _attempt_lockstep(
        self, method: str, params: dict[str, Any], span: Span | None
    ) -> dict[str, Any]:
        """One connect-if-needed + exchange cycle on the shared socket.

        Raises :class:`_RetryableFailure` when the RPC may be retried
        (connect failure, or mid-request failure of a retryable call)
        and :class:`ConnectionBrokenError` when a non-idempotent
        request's fate is unknown.
        """
        with self._lock:
            conn = self._conn or self._ensure_connected_locked()
            try:
                return self._exchange(conn, method, params, span)
            except (OSError, ConnectionError, ReproError) as exc:
                self._teardown_locked()
                if retryable(method, params):
                    raise _RetryableFailure(exc) from exc
                raise ConnectionBrokenError(
                    f"connection lost during non-idempotent rpc {method!r};"
                    " not retried (the request may have been applied)"
                ) from exc

    # -- wait channel --------------------------------------------------------

    def _checkout_wait(self) -> _Conn:
        """A pooled (or fresh) dedicated connection for one wait RPC."""
        with self._wpool_lock:
            if self._closed:
                raise RuntimeError("remote store is closed")
            if self._wait_idle:
                conn = self._wait_idle.pop()
                self._wait_busy.add(conn)
                return conn
        try:
            conn = self._open_connection()
        except (OSError, ConnectionError) as exc:
            # Nothing was sent: always safe to retry.
            raise _RetryableFailure(exc) from exc
        with self._wpool_lock:
            if self._closed:
                conn.close()
                raise RuntimeError("remote store is closed")
            self._wait_busy.add(conn)
        return conn

    def _attempt_wait(
        self, method: str, params: dict[str, Any], span: Span | None
    ) -> dict[str, Any]:
        """One exchange for a long-poll RPC on its own connection.

        Failures always raise :class:`_RetryableFailure` — wait RPCs are
        classified retryable (see :func:`repro.core.ops.retryable`).
        """
        conn = self._checkout_wait()
        try:
            response = self._exchange(conn, method, params, span)
        except (OSError, ConnectionError, ReproError) as exc:
            with self._wpool_lock:
                woken = conn not in self._wait_busy and not self._closed
                self._wait_busy.discard(conn)
            if woken:  # wake_waiters ended it: empty, as if it ran out
                return {"ok": True, "result": []}
            raise _RetryableFailure(exc) from exc
        # Healthy: park it for reuse (up to WAIT_POOL_SIZE), else close
        # (a woken connection too: its sending side is shut).
        with self._wpool_lock:
            reusable = conn in self._wait_busy and not self._closed
            self._wait_busy.discard(conn)
            if reusable and len(self._wait_idle) < WAIT_POOL_SIZE:
                self._wait_idle.append(conn)
                return response
        conn.close()
        return response

    # -- beyond the TaskStore contract ---------------------------------------
    # (the contract's own methods are derived from repro.core.ops.OPS by
    # the @store_methods decorator on this class)

    def telemetry(self, envelope: dict) -> dict:
        """Push one fleet telemetry envelope; returns the service ack.

        See :mod:`repro.telemetry.fleet` for the envelope schema.
        Classified idempotent (re-delivering a heartbeat is harmless),
        so the client retries it across reconnects like any read.
        """
        return self._call(TELEMETRY.name, {"envelope": envelope})

    def wake_waiters(self) -> None:
        """End every long-poll in flight by half-closing its connection:
        the service drops the parked request and closes, and the wait
        returns ``[]``; an answer sent first is still read (no claim is
        lost to the wake)."""
        with self._wpool_lock:
            woken = list(self._wait_busy)
            self._wait_busy.clear()
        for conn in woken:
            try:
                conn.sock.shutdown(socket.SHUT_WR)
            except OSError:
                pass  # already gone

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._teardown_locked()
        # Close every wait-channel connection, busy ones included: a
        # thread blocked in a long-poll gets a socket error, retries,
        # and surfaces "remote store is closed" from the closed check.
        with self._wpool_lock:
            conns = self._wait_idle + list(self._wait_busy)
            self._wait_idle.clear()
            self._wait_busy.clear()
        for conn in conns:
            conn.close()


def _result(response: dict[str, Any]) -> Any:
    """A response frame's result; an ``ok: false`` frame raises its
    typed remote error."""
    if not response.get("ok"):
        raise protocol.remote_error(response.get("error", {}))
    return response.get("result")


class _RetryableFailure(Exception):
    """Internal: an attempt failed in a way the retry loop may repeat."""

    def __init__(self, cause: BaseException) -> None:
        super().__init__(str(cause))
        self.cause = cause
