"""Client-side remote task store with automatic reconnection.

:class:`RemoteTaskStore` implements the full :class:`repro.db.TaskStore`
contract over a TCP connection to a :class:`repro.core.service.TaskService`.
Because it *is* a store, the unchanged :class:`repro.core.eqsql.EQSQL`
class runs against it — an ME algorithm on a laptop drives a database on
a cluster exactly as it drives a local one, which is the paper's
deployment (local Python script, EMEWS DB on Bebop, SSH tunnel between).

One socket is shared behind a lock.  Requests are request/response by
default; throughput-bound callers open an :meth:`RemoteTaskStore.pipeline`
to keep N requests in flight on the same connection — frames are
coalesced into one buffered send (a single flush per batch, with
``TCP_NODELAY`` set so nothing waits on Nagle) and responses are matched
back to their calls by request id.  Worker pools that want concurrency
still open one client each.

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

- **Idempotent** methods (reads, ``report``, ``requeue``, lease
  renewal, ...) are retried transparently — the client tears down the
  broken socket, reconnects with exponential backoff + jitter,
  re-handshakes (ping + auth), and re-sends.
- **Non-idempotent** methods (``create_task[s]``, ``pop_out``,
  ``report_pop``, ``pop_in[_any]``) are retried only while the failure is provably
  pre-send (the connect itself failed).  Once the request may have
  reached the server, retrying could double-apply it, so the client
  raises :class:`~repro.util.errors.ConnectionBrokenError` and leaves
  recovery to the caller — for popped-but-lost tasks, the server-side
  lease reaper requeues them automatically.

The same classification governs a pipeline broken mid-batch: calls
whose responses never arrived are transparently replayed when
idempotent, and surface ``ConnectionBrokenError`` (exactly once, on
:meth:`PipelinedCall.result`) when not.

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
from repro.telemetry.metrics import COUNT_BUCKETS, MetricsRegistry, get_metrics
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


class PipelinedCall:
    """Handle for one RPC issued through an :class:`RpcPipeline`.

    The call is unresolved until the pipeline flushes the batch it rode
    in; :meth:`result` then returns the RPC's result or raises exactly
    what the lockstep call would have raised (typed remote errors,
    :class:`~repro.util.errors.ConnectionBrokenError` for a
    non-idempotent call lost mid-pipeline, ...).
    """

    __slots__ = ("method", "params", "request_id", "_result", "_error", "_done")

    def __init__(self, method: str, params: dict[str, Any]) -> None:
        self.method = method
        self.params = params
        self.request_id: int | None = None
        self._result: Any = None
        self._error: Exception | None = None
        self._done = False

    @property
    def done(self) -> bool:
        """Whether the call has been resolved (result or error)."""
        return self._done

    def result(self) -> Any:
        """The RPC result; raises the call's error if it failed."""
        if not self._done:
            raise RuntimeError(
                f"pipelined call {self.method!r} has not been flushed"
            )
        if self._error is not None:
            raise self._error
        return self._result

    def _set_result(self, result: Any) -> None:
        self._result = result
        self._done = True

    def _set_error(self, error: Exception) -> None:
        self._error = error
        self._done = True

    def _resolve(self, response: dict[str, Any]) -> None:
        """Resolve from a matched response frame (a typed error frame is
        a *successful* exchange — the server handled the request)."""
        if response.get("ok"):
            self._result = response.get("result")
        else:
            self._error = protocol.remote_error(response.get("error", {}))
        self._done = True


class RpcPipeline:
    """Pipelined client mode: keep up to N requests in flight.

    Obtained from :meth:`RemoteTaskStore.pipeline`.  Calls are buffered
    and flushed as one coalesced send (a single ``write``/``flush`` for
    the whole batch) followed by a response-matching read, whenever
    ``max_in_flight`` calls are pending — and at context exit::

        with store.pipeline(max_in_flight=64) as pipe:
            calls = [pipe.call("report", {...}) for ... in work]
        results = [c.result() for c in calls]

    This turns K round trips into ~K/N, which is the funcX move: the
    wire format already carries request ids, so the stream needs no
    per-request synchronization.  ``max_in_flight`` also bounds the
    bytes parked in socket buffers in each direction (the server
    answers frame-by-frame, so an unbounded burst of large requests
    could deadlock both windows); the default suits small control
    frames.

    Failure semantics match the lockstep client: when the connection
    breaks mid-batch, already-answered calls keep their results,
    unanswered *idempotent* calls are replayed through the normal
    reconnect/backoff path, and unanswered non-idempotent calls resolve
    to :class:`~repro.util.errors.ConnectionBrokenError`.

    A pipeline instance is not thread-safe; other threads may keep
    using the owning store's lockstep methods concurrently (flushes and
    lockstep RPCs serialize on the store's connection lock).
    """

    def __init__(self, store: "RemoteTaskStore", max_in_flight: int = 64) -> None:
        if max_in_flight < 1:
            raise ValueError(f"max_in_flight must be >= 1, got {max_in_flight}")
        self._store = store
        self._max_in_flight = max_in_flight
        self._pending: list[PipelinedCall] = []

    def call(self, method: str, params: dict[str, Any]) -> PipelinedCall:
        """Queue one RPC; flushes automatically at ``max_in_flight``."""
        call = PipelinedCall(method, params)
        self._pending.append(call)
        if len(self._pending) >= self._max_in_flight:
            self.flush()
        return call

    def flush(self) -> None:
        """Send every pending request in one batch and resolve them."""
        batch, self._pending = self._pending, []
        if batch:
            self._store._flush_pipeline(batch)

    def __enter__(self) -> "RpcPipeline":
        return self

    def __exit__(self, exc_type: object, *exc: object) -> None:
        # Flush on clean exit only: after an exception in the body the
        # caller is abandoning the batch, not awaiting its results.
        if exc_type is None:
            self.flush()


class _Conn:
    """One handshaken connection: the shared lockstep channel, or a wait
    channel checked out of the pool for one long-poll's exclusive use."""

    __slots__ = ("sock", "rfile", "wfile")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.rfile = sock.makefile("rb")
        self.wfile = sock.makefile("wb")

    def close(self) -> None:
        for f in (self.rfile, self.wfile, self.sock):
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

    Long-poll waits are forwarded as ``wait_ms`` and the service blocks
    server-side (clamped to its ``max_wait_ms``).
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
        self._m_pipeline_flushes = registry.counter(
            "service.client.pipeline_flushes", "coalesced pipeline batches sent"
        )
        self._m_pipeline_batch = registry.histogram(
            "service.client.pipeline_batch_size",
            COUNT_BUCKETS,
            "requests per pipeline flush",
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
        self, conn: _Conn, calls: list[PipelinedCall], span: Span | None
    ) -> None:
        """Send ``calls`` as one write; resolve each from its response.

        The single send / receive / id-check path under the handshake,
        lockstep, wait-channel and pipeline callers (a lockstep RPC is a
        batch of one).  Each response must answer a distinct in-flight
        request id: a frame answering none of them is a stale reply from
        an interrupted exchange, i.e. the stream is desynced.

        On any fault the connection is closed before the error
        propagates — a connection that died between write and read may
        hold a stale frame that would answer the *next* request, so it
        is never reused; the owner only has to forget it.  Calls
        resolved before the fault keep their results.
        """
        pending: dict[int, PipelinedCall] = {}
        requests: list[dict[str, Any]] = []
        for call in calls:
            with self._id_lock:  # ids are unique across all channels
                self._next_id += 1
                call.request_id = self._next_id
            request: dict[str, Any] = {
                "id": call.request_id,
                "method": call.method,
                "params": call.params,
            }
            if self._token is not None:
                request["token"] = self._token
            if span is not None:
                protocol.inject_trace(request, span.context)
            requests.append(request)
            pending[call.request_id] = call
        # The server answers frame-by-frame and legitimately goes quiet
        # for a whole long-poll before answering; a bounded per-RPC read
        # timeout must cover the largest wait aboard plus slack, or every
        # empty wait reads as a dead connection.
        io_timeout = self._io_timeout
        stretch = io_timeout is not None and any(
            wait_seconds(call.params) > 0.0 for call in calls
        )
        try:
            if stretch:
                longest = max(wait_seconds(call.params) for call in calls)
                conn.sock.settimeout(longest + max(io_timeout, WAIT_SLACK))  # type: ignore[type-var]
            if span is not None:
                tracer = self.tracer
                with tracer.span("rpc.send", component="service_client"):
                    protocol.write_messages(conn.wfile, requests)
                with tracer.span("rpc.recv", component="service_client"):
                    self._receive(conn, pending)
            else:
                protocol.write_messages(conn.wfile, requests)
                self._receive(conn, pending)
            if stretch:
                conn.sock.settimeout(io_timeout)
        except (OSError, ConnectionError, ReproError):
            # ReproError: framing/serialization trouble from the
            # protocol layer — the same desync.
            conn.close()
            raise

    @staticmethod
    def _receive(conn: _Conn, pending: dict[int, PipelinedCall]) -> None:
        while pending:
            response = protocol.read_message(conn.rfile)
            if response is None:
                raise ConnectionError("service closed the connection")
            request_id = response.get("id")
            # Type-exact: JSON ``true`` decodes to True, which equals and
            # hashes like 1 and would otherwise answer request 1.
            call = pending.pop(request_id, None) if type(request_id) is int else None
            if call is None:
                raise ConnectionError("service response id mismatch (desynced)")
            call._resolve(response)

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
            ping = PipelinedCall(PING.name, {})
            tracer = self.tracer
            if tracer.enabled:
                # Trace the handshake like any other RPC so the server's
                # service.ping span parents under it across the wire.
                with tracer.span("rpc.ping", component="service_client") as sp:
                    self._exchange(conn, [ping], sp)
            else:
                self._exchange(conn, [ping], None)
            version = (ping.result() or {}).get("version")
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
            call = PipelinedCall(method, params)
            try:
                attempt_once(call, span)
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
            result = call.result()
            self._m_rpcs.inc()
            self._m_rtt.observe(time.monotonic() - t0)
            return result

    def _attempt_lockstep(self, call: PipelinedCall, span: Span | None) -> None:
        """One connect-if-needed + exchange cycle on the shared socket.

        Raises :class:`_RetryableFailure` when the RPC may be retried
        (connect failure, or mid-request failure of a retryable call)
        and :class:`ConnectionBrokenError` when a non-idempotent
        request's fate is unknown.
        """
        with self._lock:
            conn = self._conn or self._ensure_connected_locked()
            try:
                self._exchange(conn, [call], span)
            except (OSError, ConnectionError, ReproError) as exc:
                self._teardown_locked()
                if retryable(call.method, call.params):
                    raise _RetryableFailure(exc) from exc
                raise ConnectionBrokenError(
                    f"connection lost during non-idempotent rpc {call.method!r};"
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

    def _attempt_wait(self, call: PipelinedCall, span: Span | None) -> None:
        """One exchange for a long-poll RPC on its own connection.

        Failures always raise :class:`_RetryableFailure` — wait RPCs are
        classified retryable (see :func:`repro.core.ops.retryable`).
        """
        conn = self._checkout_wait()
        try:
            self._exchange(conn, [call], span)
        except (OSError, ConnectionError, ReproError) as exc:
            with self._wpool_lock:
                self._wait_busy.discard(conn)
            raise _RetryableFailure(exc) from exc
        # Healthy: park it for reuse (up to WAIT_POOL_SIZE), else close.
        with self._wpool_lock:
            self._wait_busy.discard(conn)
            if not self._closed and len(self._wait_idle) < WAIT_POOL_SIZE:
                self._wait_idle.append(conn)
                return
        conn.close()

    # -- pipelining ---------------------------------------------------------

    def pipeline(self, max_in_flight: int = 64) -> RpcPipeline:
        """Open a pipelined view of this connection.

        See :class:`RpcPipeline`; the returned pipeline shares this
        store's socket, auth token, and reconnect semantics.
        """
        return RpcPipeline(self, max_in_flight)

    def _flush_pipeline(self, batch: list[PipelinedCall]) -> None:
        """Send a batch as one coalesced write, then match responses.

        Every call in ``batch`` is resolved by the time this returns:
        with its result, with a typed remote error, or — after a
        mid-batch connection break — by transparent lockstep replay
        (idempotent calls) or :class:`ConnectionBrokenError`
        (non-idempotent calls whose fate is unknown).
        """
        tracer = self.tracer
        if not tracer.enabled:
            self._flush_pipeline_raw(batch, None)
            return
        with tracer.span(
            "rpc.pipeline", component="service_client", batch=len(batch)
        ) as sp:
            self._flush_pipeline_raw(batch, sp)

    def _flush_pipeline_raw(
        self, batch: list[PipelinedCall], span: Span | None
    ) -> None:
        t0 = time.monotonic()
        to_replay: list[PipelinedCall] = []
        with self._lock:
            try:
                conn = self._ensure_connected_locked()
            except _RetryableFailure:
                # Nothing was sent: every call — non-idempotent ones
                # included — is provably unapplied, so all of them go
                # through the lockstep path, which retries connecting
                # with backoff.
                to_replay = list(batch)
            else:
                try:
                    self._exchange(conn, batch, span)
                except (OSError, ConnectionError, ReproError) as exc:
                    # Calls already resolved keep their results; the
                    # rest split by idempotency.
                    self._teardown_locked()
                    for call in batch:
                        if call.done:
                            continue
                        if retryable(call.method, call.params):
                            to_replay.append(call)
                        else:
                            error = ConnectionBrokenError(
                                f"connection lost during non-idempotent rpc"
                                f" {call.method!r} in a pipeline; not retried"
                                " (the request may have been applied)"
                            )
                            error.__cause__ = exc
                            call._set_error(error)
                else:
                    self._m_rpcs.inc(len(batch))
                    self._m_rtt.observe(time.monotonic() - t0)
                    self._m_pipeline_flushes.inc()
                    self._m_pipeline_batch.observe(len(batch))
        # Replay outside the connection lock: _call takes it per attempt
        # (and it is not reentrant).
        for call in to_replay:
            try:
                call._set_result(self._call(call.method, call.params))
            except Exception as exc:  # noqa: BLE001 - stored, raised on result()
                call._set_error(exc)
        if span is not None and to_replay:
            span.set_attr("replayed", len(to_replay))

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


class _RetryableFailure(Exception):
    """Internal: an attempt failed in a way the retry loop may repeat."""

    def __init__(self, cause: BaseException) -> None:
        super().__init__(str(cause))
        self.cause = cause
