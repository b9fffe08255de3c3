"""The EMEWS service: a TCP server fronting a resource-local task store.

Paper §IV-C: "Tasks arrive at HPC sites at the EMEWS Service, which
abstracts task caching and queuing operations ... The Service mediates
between model exploration algorithms and worker pools and exposes data
about tasks for queries."

One thread serves every connection: a :mod:`selectors` loop that owns
the listener and all client sockets.  It reads request frames without
blocking (one :class:`~repro.core.protocol.FrameDecoder` per
connection), dispatches each to the store inline, and streams the
response back as the socket drains.  A long-poll (``pop_out`` /
``pop_in_any`` carrying ``wait_ms``) that finds nothing is *parked*: it
is kept as a request, not as a thread blocked in the store, registered
with the store's wait registry (:mod:`repro.db.waits`), re-tried when a
write can satisfy it, and answered empty at its deadline.  The method
set equals the :class:`repro.db.TaskStore` contract; any number of ME
algorithms and worker pools may connect concurrently.  An optional
bearer token gates access, standing in for the authenticated channel
(SSH tunnel / OAuth) of the production deployment.
"""

from __future__ import annotations

import contextlib
import selectors
import socket
import threading
import time
from collections import deque
from collections.abc import Iterator
from typing import Any

from repro.core import protocol
from repro.core.leases import LeaseReaper
from repro.core.ops import OPS, Hop, Op
from repro.db import waits
from repro.db.backend import TaskStore
from repro.db.waits import Waiter, WaitRegistry
from repro.telemetry.journal import ROLE_SERVICE, Journal, get_journal
from repro.telemetry.fleet import FleetRegistry
from repro.telemetry.metrics import MetricsRegistry, get_metrics
from repro.telemetry.tracing import Tracer, get_tracer
from repro.util.clock import Clock, SystemClock
from repro.util.errors import AuthenticationError, SerializationError
from repro.util.logging import get_logger, log_event

_log = get_logger(__name__)

#: Most bytes one ``recv`` takes off a connection.
RECV_BYTES = 1 << 16

#: Seconds :meth:`TaskService.stop` lets the loop send the responses it
#: has begun (every parked wait's empty answer among them).
DRAIN_SECONDS = 1.0

_READ, _WRITE = selectors.EVENT_READ, selectors.EVENT_WRITE
_NO_LOCK = contextlib.nullcontext()


class _Conn:
    """One client connection's state on the loop.

    ``inbox`` holds requests read but not yet served; ``chunks`` is the
    response being sent (:func:`~repro.core.protocol.frame_chunks`),
    ``pending`` the unsent rest of its current chunk; ``events`` is what
    the selector watches the socket for (0: not registered).
    """

    __slots__ = ("sock", "decoder", "inbox", "chunks", "pending", "events")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.decoder = protocol.FrameDecoder()
        self.inbox: deque[dict[str, Any]] = deque()
        self.chunks: Iterator[bytes] | None = None
        self.pending = memoryview(b"")
        self.events = 0


class _Parked(Waiter):
    """A long-poll that found nothing: the request, registered with the
    store's wait registry until a re-try finds work, its deadline passes
    or its client goes."""

    __slots__ = ("conn", "op", "params", "message", "deadline")

    def __init__(
        self, conn: _Conn, op: Op, params: dict[str, Any],
        message: dict[str, Any], deadline: float, on_due: Any,
    ) -> None:
        if op.name == "pop_out":
            super().__init__(on_due, eq_type=params.get("eq_type"))
        else:
            super().__init__(on_due, ids=params.get("eq_task_ids") or ())
        self.conn = conn
        self.op = op
        self.params = params
        self.message = message
        self.deadline = deadline


class TaskService:
    """TCP front-end for a :class:`TaskStore`.

    Parameters
    ----------
    store:
        The task store this service mediates access to.
    host, port:
        Bind address; port 0 picks a free port (read it back from
        :attr:`address` after :meth:`start`).
    auth_token:
        When set, every request must carry this bearer token.
    tracer:
        Span recorder for server-side request handling; defaults to the
        process-wide tracer.  Request frames carrying a ``trace`` field
        get their handling spans parented under the client's RPC span.
    metrics:
        Metrics registry; defaults to the process-wide registry.
    lease_reaper_interval:
        When set, the service runs a :class:`repro.core.leases.LeaseReaper`
        sweep on its loop's timer for its store's lifetime: every
        ``lease_reaper_interval`` seconds any RUNNING task whose lease
        expired is requeued automatically — continuous recovery instead
        of manual ``recover_pool`` calls — and a parked fetch is handed
        the requeued work at once.
    clock:
        Time source for the lease reaper's ``now``; defaults to a
        :class:`~repro.util.clock.SystemClock`.  Must agree with the
        clock clients stamp ``pop_out(now=...)`` with.
    lease_requeue_priority:
        Output-queue priority the reaper requeues expired tasks at.
        ``None`` (the default) restores each task's own current
        priority; an explicit integer pins recovered tasks to it.
    status_port:
        When set, the service embeds a :class:`~repro.telemetry.monitor.
        StatusServer` (separate daemon thread, stdlib ``http.server``)
        exposing ``/healthz``, ``/readyz``, ``/metrics`` (Prometheus
        text), and ``/status`` (JSON snapshot).  Port 0 picks a free
        port (read it back from :attr:`status_address`).  ``None``
        (the default) disables the endpoint entirely — no thread, no
        socket, no per-request cost.
    status_host:
        Bind address for the status endpoint.
    sampler_interval:
        Seconds between background store snapshots when the status
        server is enabled; the sampler keeps queue-depth/lease gauges
        fresh between scrapes and feeds the ``/status`` depth history.
    journal:
        Flight recorder the service emits per-task lifecycle records
        into; defaults to the process-wide journal (disabled out of the
        box, so the dispatch hot path pays one attribute check).
    straggler_multiple, straggler_min_seconds:
        Straggler detector tuning when the status server is enabled: a
        task is flagged once it exceeds ``straggler_multiple`` × the
        rolling median queue/run time for its work type (but never
        before ``straggler_min_seconds``).
    fleet_stale_multiple, fleet_expiry_multiple, fleet_default_interval:
        Fleet registry liveness tuning: a pushing worker turns *stale*
        after ``fleet_stale_multiple`` × its heartbeat interval without
        an envelope and is dropped after ``fleet_expiry_multiple`` ×;
        workers that do not declare an interval are assumed to push
        every ``fleet_default_interval`` seconds.
    max_wait_ms:
        Server-side cap on the ``wait_ms`` long-poll bound a ``pop_out``
        / ``pop_in_any`` request may ask for.  A parked request costs no
        store call until a write can satisfy it, but it pins a connection
        whose peer may have silently gone (a dead peer that sends no
        FIN is noticed only when a write to it fails); clients re-issue
        wait RPCs until their own timeout, so capping costs only an
        extra round trip per ``max_wait_ms``.  Parked requests are
        counted in the ``service.waiters`` gauge and surfaced in
        ``/status``; :meth:`stop` answers them all empty.
    """

    def __init__(
        self,
        store: TaskStore,
        host: str = "127.0.0.1",
        port: int = 0,
        auth_token: str | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        lease_reaper_interval: float | None = None,
        clock: Clock | None = None,
        lease_requeue_priority: int | None = None,
        status_port: int | None = None,
        status_host: str = "127.0.0.1",
        sampler_interval: float = 1.0,
        journal: Journal | None = None,
        straggler_multiple: float = 4.0,
        straggler_min_seconds: float = 0.0,
        fleet_stale_multiple: float = 2.0,
        fleet_expiry_multiple: float = 3.0,
        fleet_default_interval: float = 10.0,
        max_wait_ms: int = 30_000,
    ) -> None:
        if store.waits is None:
            raise TypeError("TaskService needs a store with a wait registry")
        self._store = store
        self._waits: WaitRegistry = store.waits
        self._auth_token = auth_token
        self._max_wait_ms = max(int(max_wait_ms), 0)
        self._stopping = threading.Event()
        self._tracer = tracer
        self._journal = journal
        self._clock: Clock = clock if clock is not None else SystemClock()
        registry = metrics if metrics is not None else get_metrics()
        self._registry = registry
        self.m_requests = registry.counter(
            "service.requests", "requests handled by the EMEWS service"
        )
        self.m_errors = registry.counter(
            "service.errors", "requests that raised (returned an error frame)"
        )
        self.m_connections = registry.counter(
            "service.connections_total", "client connections accepted"
        )
        self.g_connections = registry.gauge(
            "service.connections_active", "currently connected clients"
        )
        self.m_bytes_received = registry.counter(
            "service.bytes_received", "request bytes read off the wire"
        )
        self.m_bytes_sent = registry.counter(
            "service.bytes_sent", "response bytes written to the wire"
        )
        self.g_waiters = registry.gauge(
            "service.waiters", "long-poll requests parked until work arrives"
        )
        #: Per-method request counters, pre-registered so the dispatch
        #: hot path is a dict lookup, not a registry get-or-create.
        self.m_method_requests = {
            method: registry.counter(
                f"service.requests.{method}", f"{method} requests handled"
            )
            for method in OPS
        }
        self._listener = socket.create_server((host, port))
        self._listener.setblocking(False)
        self._address = self._listener.getsockname()[:2]
        # stop() and a write on another thread (see _on_due) send a
        # byte here so a loop blocked in select() wakes at once.
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._conns: set[_Conn] = set()
        # One long-poll at most per connection (the client is lockstep);
        # insertion order is park order, so re-tries are first come,
        # first served.
        self._parked: dict[_Conn, _Parked] = {}
        # Parked requests a write may satisfy, in the order it said so.
        self._due: deque[_Parked] = deque()
        self._loop_ident: int | None = None
        self._thread: threading.Thread | None = None
        self._started_at: float | None = None
        self._reaper: LeaseReaper | None = None
        self._reap_every = lease_reaper_interval
        if lease_reaper_interval is not None:
            self._reaper = LeaseReaper(
                store,
                clock=clock,
                interval=lease_reaper_interval,
                priority=lease_requeue_priority,
                metrics=registry,
            )
        # Fleet registry: always on (idle cost is one dict), so pushed
        # telemetry is never dropped just because the status server is.
        self._fleet = FleetRegistry(
            clock=self._clock,
            metrics=registry,
            default_interval=fleet_default_interval,
            stale_multiple=fleet_stale_multiple,
            expiry_multiple=fleet_expiry_multiple,
        )
        self._status_server = None
        self._sampler = None
        self._detector = None
        if status_port is not None:
            # Lazy import: the monitor package pulls in http.server and
            # the exposition renderer, none of which the plain service
            # path needs.
            from repro.telemetry.anomaly import StragglerDetector
            from repro.telemetry.monitor import StatusServer, StoreSampler

            self._sampler = StoreSampler(
                store,
                metrics=registry,
                clock=self._clock,
                interval=sampler_interval,
            )
            # The detector streams from the journal lazily — it catches
            # up on each /events or /status request rather than running
            # its own thread.  The service keeps its own tail cursor so
            # the journal can be the late-configured global default.
            self._detector = StragglerDetector(
                multiple=straggler_multiple,
                min_seconds=straggler_min_seconds,
                metrics=registry,
            )
            self._detector_seq = 0
            self._status_server = StatusServer(
                host=status_host,
                port=status_port,
                metrics=registry,
                status_fn=self.status_snapshot,
                events_fn=self.events_snapshot,
                fleet_fn=self.fleet_snapshot,
                extra_metrics_fn=self._fleet.render_prometheus,
                readiness_checks={
                    "store": self._check_store_ready,
                    "reaper": self._check_reaper_ready,
                },
            )

    @property
    def tracer(self) -> Tracer:
        return self._tracer if self._tracer is not None else get_tracer()

    @property
    def journal(self) -> Journal:
        """The flight recorder this service emits into (injected or global)."""
        return self._journal if self._journal is not None else get_journal()

    @property
    def store(self) -> TaskStore:
        """The task store behind this service."""
        return self._store

    @property
    def clock(self) -> Clock:
        """The service's time source (hop stamps, reaper, fleet liveness)."""
        return self._clock

    def journal_hops(
        self,
        hops: tuple[Hop, ...],
        params: dict[str, Any],
        result: Any,
        message: dict[str, Any],
        began: float,
    ) -> None:
        """Emit service-role hop records for one handled RPC.

        The DB backend already journals the authoritative state change;
        these records add the *service observed it* hop (with the
        client's trace id off the frame), which the timeline merge
        interleaves to show wire latency per hop.  Hops are emitted in
        the op's order (``report_pop``: its reports, then its claims).
        Only called for ops that declare hops, when the journal is
        enabled.
        """
        journal = self.journal
        context = protocol.extract_trace(message)
        trace_id = context.trace_id if context is not None else ""
        # Only a request that claims work names the pool it serves (a
        # pop, or a report_pop for both its hops); the rest are unsourced.
        source = str(params.get("worker_pool", ""))
        for hop in hops:
            for task_id, work_type in hop.tasks(params, result):
                journal.emit(
                    hop.event, task_id, role=ROLE_SERVICE, work_type=work_type,
                    trace_id=trace_id, source=source, time=began,
                )

    @property
    def address(self) -> tuple[str, int]:
        """(host, port) the service is bound to."""
        host, port = self._address
        return (str(host), int(port))

    def check_token(self, token: str | None) -> None:
        """Validate a request's bearer token."""
        if self._auth_token is not None and token != self._auth_token:
            raise AuthenticationError("invalid or missing service token")

    def _resolve_wait(self, params: dict[str, Any]) -> float:
        """Pop ``wait_ms`` off ``params``; return the granted wait seconds.

        The grant is clamped to ``max_wait_ms`` and zeroed while stopping
        (late wait RPCs must not park on a draining service).
        """
        wait_ms = params.pop("wait_ms", None)
        if not wait_ms or wait_ms < 0:
            return 0.0
        if self._stopping.is_set():
            return 0.0
        return min(float(wait_ms), float(self._max_wait_ms)) / 1000.0

    def _rpc_ping(self, params: dict[str, Any]) -> dict[str, Any]:
        return {"version": protocol.PROTOCOL_VERSION}

    def _rpc_telemetry(self, params: dict[str, Any]) -> dict[str, Any]:
        # Fleet push: handled by the registry, never by the store.
        return self._fleet.observe(params.get("envelope") or {})

    def call(self, op: Op, params: dict[str, Any]) -> Any:
        """Dispatch one op (a row of :data:`repro.core.ops.OPS`) and
        return its JSON-ready result."""
        if not op.on_store:
            return getattr(self, f"_rpc_{op.name}")(params)
        # By keyword on whatever object we were given: the store may be
        # a duck-typed wrapper (fault injector, timing proxy).
        result = getattr(self._store, op.name)(**params)
        if op.encode_result is not None:
            result = op.encode_result(result)
        if op.profiles is not None:
            # Report-path profiles also feed the fleet aggregates, so
            # per-work-type tables fill even without push telemetry.
            profiles = op.profiles(params)
            if profiles:
                self._fleet.observe_profiles(profiles)
        return result

    @property
    def lease_reaper(self) -> LeaseReaper | None:
        """The embedded lease reaper, when continuous recovery is on."""
        return self._reaper

    @property
    def fleet(self) -> FleetRegistry:
        """The fleet telemetry registry (always constructed)."""
        return self._fleet

    def fleet_snapshot(self) -> dict[str, Any]:
        """The ``/fleet`` JSON document: workers, liveness, profiles."""
        return self._fleet.snapshot(self._clock.now())

    # -- monitoring -----------------------------------------------------------

    @property
    def status_address(self) -> tuple[str, int] | None:
        """(host, port) of the status endpoint, when enabled."""
        if self._status_server is None:
            return None
        return self._status_server.address

    @property
    def status_url(self) -> str | None:
        """Base URL of the status endpoint, when enabled."""
        if self._status_server is None:
            return None
        return self._status_server.url

    def _check_store_ready(self) -> tuple[bool, str]:
        """Readiness probe: one cheap store round trip."""
        try:
            depth = self._store.queue_in_length()
        except Exception as exc:  # noqa: BLE001 - probe must report, not raise
            return False, f"store unreachable: {exc}"
        return True, f"store ok (queue_in={depth})"

    def _serving(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    def _check_reaper_ready(self) -> tuple[bool, str]:
        """Readiness probe: the lease reaper (the loop's timer), if configured."""
        if self._reaper is None:
            return True, "no reaper configured"
        if self._started_at is not None and not self._serving():
            return False, "service loop (and its lease reaper) is not running"
        return True, "reaper alive"

    def status_snapshot(self) -> dict[str, Any]:
        """The ``/status`` JSON document: queues, leases, service counters.

        Also callable directly (tests, the chaos command) — the HTTP
        endpoint is a transport, not the source of truth.
        """
        now = self._clock.now()
        snapshot: dict[str, Any] = {
            "service": {
                "address": list(self.address),
                "uptime_seconds": (
                    now - self._started_at if self._started_at is not None else 0.0
                ),
                "requests": int(self.m_requests.value),
                "errors": int(self.m_errors.value),
                "connections_total": int(self.m_connections.value),
                "connections_active": int(self.g_connections.value),
                "bytes_received": int(self.m_bytes_received.value),
                "bytes_sent": int(self.m_bytes_sent.value),
                "waiters": int(self.g_waiters.value),
                "reaper": {
                    "configured": self._reaper is not None,
                    "running": self._reaper is not None and self._serving(),
                },
            },
            "store": self._store.stats(now=now),
        }
        if self._sampler is not None:
            snapshot["sampler"] = self._sampler.summary()
        if self._detector is not None:
            self._ingest_journal()
            stragglers = self._detector.summary(now)
            # Fleet cpu-vs-wall verdicts upgrade wall-clock flags into
            # "slow" (pegged CPU) vs "stuck" (idle) when a worker's last
            # envelope covered the task.
            for entry in stragglers.get("active", []):
                verdict = self._fleet.classify_task(int(entry.get("task_id", -1)))
                if verdict is not None:
                    entry.update(verdict)
            snapshot["stragglers"] = stragglers
        snapshot["fleet"] = self._fleet.summary(now)
        return snapshot

    def _ingest_journal(self) -> None:
        """Advance the straggler detector over new journal records."""
        if self._detector is None:
            return
        records = self.journal.tail(self._detector_seq)
        if records:
            self._detector_seq = records[-1].seq
            self._detector.ingest(records)

    def events_snapshot(self, limit: int = 500) -> dict[str, Any]:
        """The ``GET /events`` JSON document: recent records + stragglers."""
        self._ingest_journal()
        journal = self.journal
        records = journal.records()
        snapshot: dict[str, Any] = {
            "journal": {
                "enabled": journal.enabled,
                "records": [r.to_dict() for r in records[-limit:]],
                "total_in_ring": len(records),
                "dropped": journal.dropped,
            },
        }
        if self._detector is not None:
            snapshot["stragglers"] = self._detector.summary(self._clock.now())
        return snapshot

    # -- the loop ---------------------------------------------------------------

    def start(self) -> "TaskService":
        """Begin serving on a daemon thread; returns self for chaining."""
        if self._thread is not None or self._stopping.is_set():
            raise RuntimeError("service already started")
        self._selector.register(self._listener, _READ, self._accept)
        self._selector.register(self._wake_r, _READ, self._drain_wake)
        self._thread = threading.Thread(
            target=self._serve_forever, name="emews-service", daemon=True
        )
        self._started_at = self._clock.now()
        self._thread.start()
        if self._sampler is not None:
            self._sampler.start()
        if self._status_server is not None:
            self._status_server.start()
        return self

    def stop(self) -> None:
        """Stop serving and release every socket (idempotent).

        The loop answers every parked long-poll empty, sends what it has
        begun to send (up to :data:`DRAIN_SECONDS`), and closes each
        connection; a wait that arrives meanwhile is answered at once.
        """
        self._stopping.set()
        try:
            self._wake_w.send(b"\0")
        except OSError:
            pass  # already closed, or a wake byte is already pending
        if self._status_server is not None:
            self._status_server.stop()
        if self._sampler is not None:
            self._sampler.stop()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        else:
            self._close_all()

    def _serve_forever(self) -> None:
        self._loop_ident = threading.get_ident()
        reap_at = time.monotonic() + (self._reap_every or 0.0)
        try:
            while not self._stopping.is_set():
                due = self._next_tick()
                if self._reaper is not None:
                    due = reap_at if due is None else min(due, reap_at)
                self._poll(None if due is None else max(due - time.monotonic(), 0.0))
                now = time.monotonic()
                if self._parked:
                    self._tick(now)
                if self._reaper is not None and now >= reap_at:
                    reap_at = now + self._reap_every  # type: ignore[operator]
                    self._reap()
                self._retry_due()
            # Stopping: answer every parked wait empty, take no new
            # connection, and give what is being sent time to go out.
            for parked in list(self._parked.values()):
                self._answer(parked, [])
            self._selector.unregister(self._listener)
            self._listener.close()
            until = time.monotonic() + DRAIN_SECONDS
            while any(conn.chunks is not None for conn in self._conns):
                left = until - time.monotonic()
                if left <= 0:
                    break
                self._poll(left)
        finally:
            self._close_all()

    def _next_tick(self) -> float | None:
        """When :meth:`_tick` is next due (None: nothing is parked)."""
        if not self._parked:
            return None
        deadline = min(p.deadline for p in self._parked.values())
        return min(time.monotonic() + waits.WAIT_POLL, deadline)

    def _tick(self, now: float) -> None:
        """Poll the registry (it reads ``data_version`` at most once per
        :data:`~repro.db.waits.WAIT_POLL`), and answer empty each parked
        request past its deadline."""
        self._waits.poll()
        for parked in [p for p in self._parked.values() if now >= p.deadline]:
            self._answer(parked, [])

    def _poll(self, timeout: float | None) -> None:
        """Serve whatever the selector reports ready within ``timeout``."""
        for key, mask in self._selector.select(timeout):
            if type(key.data) is _Conn:
                self._pump(key.data, readable=bool(mask & _READ))
            else:
                key.data()

    def _close_all(self) -> None:
        for conn in list(self._conns):
            self._drop(conn)
        for sock in (self._listener, self._wake_r, self._wake_w):
            sock.close()
        self._selector.close()

    def _drain_wake(self) -> None:
        try:
            self._wake_r.recv(64)
        except OSError:
            pass

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return  # nothing left to accept (or a transient error)
            sock.setblocking(False)
            # Small JSON frames under Nagle wait an ACK-delay per
            # response; the request/response protocol always wants the
            # frame on the wire at once (the client sets the same).
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Conn(sock)
            self._conns.add(conn)
            self.m_connections.inc()
            self.g_connections.inc()
            self._watch(conn)

    def _pump(self, conn: _Conn, readable: bool = False) -> None:
        """Advance one connection as far as it goes without blocking:
        send, read, serve what it sent in order, re-arm the selector.
        Any error drops this connection only."""
        try:
            if conn.chunks is not None:
                self._send(conn)
            if readable and conn.chunks is None and not self._recv(conn):
                return
            while conn.chunks is None and conn.inbox and conn not in self._parked:
                response = self._handle(conn, conn.inbox.popleft())
                if response is not None:
                    conn.chunks = protocol.frame_chunks(response)
                    del response  # the chunk generator holds it while it sends
                    self._send(conn)
            self._watch(conn)
        except Exception as exc:  # noqa: BLE001 - one peer must not stop the loop
            self._drop(conn, exc)

    def _recv(self, conn: _Conn) -> bool:
        """Take what the socket holds; False once the connection is gone.

        A lockstep client sends nothing while its request is parked, so
        a parked connection turning readable is normally its EOF: the
        request is dropped before any re-try can claim work for a
        client that cannot receive it.
        """
        try:
            data = conn.sock.recv(RECV_BYTES)
        except (BlockingIOError, InterruptedError):
            return True
        if not data:
            if not conn.decoder.idle:
                log_event(_log, "service.bad_frame", level=10,
                          error="truncated protocol frame (EOF inside a frame)")
            self._drop(conn)
            return False
        for message, nbytes in conn.decoder.feed(data):
            conn.inbox.append(message)
            self.m_bytes_received.inc(nbytes)
        return True

    @staticmethod
    def _gone(conn: _Conn) -> bool:
        """Whether a parked connection's peer has closed (EOF waiting)."""
        try:
            return not conn.sock.recv(1, socket.MSG_PEEK)
        except (BlockingIOError, InterruptedError):
            return False
        except OSError:
            return True

    def _send(self, conn: _Conn) -> None:
        """Send the response in progress until the socket would block;
        at most one chunk of it is held at a time."""
        while True:
            if not conn.pending:
                chunk = next(conn.chunks, None)  # type: ignore[arg-type]
                if chunk is None:
                    conn.chunks = None
                    return
                conn.pending = memoryview(chunk)
            try:
                sent = conn.sock.send(conn.pending)
            except (BlockingIOError, InterruptedError):
                return
            self.m_bytes_sent.inc(sent)
            conn.pending = conn.pending[sent:]

    def _watch(self, conn: _Conn) -> None:
        """Watch for writability while a response is unsent, else for
        reads unless requests already wait behind a parked one."""
        if conn.chunks is not None:
            events = _WRITE
        elif conn.inbox:
            events = 0
        else:
            events = _READ
        if events == conn.events:
            return
        if not conn.events:
            self._selector.register(conn.sock, events, conn)
        elif not events:
            self._selector.unregister(conn.sock)
        else:
            self._selector.modify(conn.sock, events, conn)
        conn.events = events

    def _drop(self, conn: _Conn, exc: BaseException | None = None) -> None:
        """Close one connection and forget its parked request (idempotent)."""
        if conn not in self._conns:
            return
        self._conns.discard(conn)
        parked = self._parked.pop(conn, None)
        if parked is not None:
            self._waits.discard(parked)
            self.g_waiters.set(len(self._parked))
        if conn.events:
            self._selector.unregister(conn.sock)
        conn.sock.close()
        self.g_connections.dec()
        if isinstance(exc, SerializationError):
            log_event(_log, "service.bad_frame", level=10, error=str(exc))
        elif exc is not None and not isinstance(exc, OSError):
            log_event(_log, "service.connection_error", level=30,
                      error=f"{type(exc).__name__}: {exc}")

    # -- requests -----------------------------------------------------------------

    def _handle(self, conn: _Conn, message: dict[str, Any]) -> dict[str, Any] | None:
        """Serve one request: its response, or None once it is parked."""
        request_id = message.get("id")
        try:
            self.check_token(message.get("token"))
            method = message.get("method")
            if not isinstance(method, str):
                raise ValueError("request missing method name")
            params = message.get("params") or {}
            if not isinstance(params, dict):
                raise ValueError("request params must be an object")
            op = OPS.get(method)
            if op is None:
                raise ValueError(f"unknown method: {method}")
            wait = self._resolve_wait(params) if op.waitable else 0.0
            # A long-poll holds the store lock from its first try to its
            # registration, so no write can land unseen in between.
            with self._waits.lock if wait > 0 else _NO_LOCK:
                result = self._attempt(op, params, message, traced=True)
                if wait > 0 and not result:
                    deadline = time.monotonic() + wait
                    parked = _Parked(conn, op, params, message, deadline, self._on_due)
                    self._parked[conn] = parked
                    self._waits.add(parked)
                    self.g_waiters.set(len(self._parked))
                    return None
        except Exception as exc:
            self.m_errors.inc()
            return protocol.error_response(request_id, exc)
        self._retry_due()
        return self._answered(method, request_id, result)

    def _on_due(self, parked: Waiter) -> None:
        """The registry's callback (under the store lock, on the writing
        thread): queue the request for a re-try, and wake the loop when
        the write ran on another thread."""
        self._due.append(parked)  # type: ignore[arg-type]
        if threading.get_ident() != self._loop_ident:
            try:
                self._wake_w.send(b"\0")
            except OSError:
                pass  # closed, or a wake byte is already pending

    def _attempt(
        self, op: Op, params: dict[str, Any], message: dict[str, Any], traced: bool
    ) -> Any:
        """One store call for a request, journaled (and traced, unless
        it is a parked request's re-try)."""
        # A hop record carries the time the call *began*: the store
        # write inside it makes work visible to parked peers, so a stamp
        # taken after it could sort this hop behind the events it caused
        # (a report after the ME's collect).
        hops = op.hops
        began = self._clock.now() if hops and self.journal.enabled else None
        tracer = self.tracer
        if not (traced and tracer.enabled):
            result = self.call(op, params)
        else:
            # Parent under the client's RPC span (propagated in the
            # frame) so the wire hop decomposes: service handling and DB
            # time nest inside the client-observed RTT.
            with tracer.span(
                f"service.{op.name}",
                component="service",
                parent=protocol.extract_trace(message),
            ):
                with tracer.span(f"db.{op.name}", component="db"):
                    result = self.call(op, params)
        if began is not None:
            self.journal_hops(hops, params, result, message, began)
        return result

    def _answered(self, method: str, request_id: Any, result: Any) -> dict[str, Any]:
        self.m_requests.inc()
        self.m_method_requests[method].inc()
        return protocol.ok_response(request_id, result)

    def _retry_due(self) -> None:
        """Re-try the parked requests a write marked due, in that order:
        answer each that finds work or fails, and answer empty, without a
        store call, each past its deadline.  A re-tried fetch's ``now``
        is raised to the enqueue time of the writes that woke it, as the
        store raises it for a pop that had to wait."""
        while self._due:
            parked = self._due.popleft()
            if self._parked.get(parked.conn) is not parked:
                continue  # answered or dropped since
            if time.monotonic() >= parked.deadline:
                self._answer(parked, [])
                continue
            if self._gone(parked.conn):
                self._drop(parked.conn)  # claim nothing for a client that left
                continue
            parked.due = False  # before the claim: a later write re-queues it
            if parked.mark is not None:
                parked.params["now"] = max(parked.params.get("now", 0.0), parked.mark)
            try:
                result = self._attempt(parked.op, parked.params, parked.message, False)
            except Exception as exc:
                self.m_errors.inc()
                self._answer(parked, None, exc)
                continue
            if result:
                self._answer(parked, result)

    def _answer(
        self, parked: _Parked, result: Any, exc: Exception | None = None
    ) -> None:
        """Unpark a request and send its response (or error)."""
        conn = parked.conn
        del self._parked[conn]
        self._waits.discard(parked)
        self.g_waiters.set(len(self._parked))
        request_id = parked.message.get("id")
        conn.chunks = protocol.frame_chunks(
            protocol.error_response(request_id, exc) if exc is not None
            else self._answered(parked.op.name, request_id, result)
        )
        self._pump(conn)

    def _reap(self) -> None:
        """One lease-reaper sweep on the loop's timer; requeued work goes
        to parked fetches at once."""
        try:
            self._reaper.run_once()  # type: ignore[union-attr]
        except Exception as exc:  # noqa: BLE001 - recovery must outlive faults
            log_event(_log, "leases.reaper_error", level=30, error=str(exc))

    def __enter__(self) -> "TaskService":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
