"""The EMEWS service: a TCP server fronting a resource-local task store.

Paper §IV-C: "Tasks arrive at HPC sites at the EMEWS Service, which
abstracts task caching and queuing operations ... The Service mediates
between model exploration algorithms and worker pools and exposes data
about tasks for queries."

The server is a thread-per-connection JSON-RPC-style endpoint whose
method set equals the :class:`repro.db.TaskStore` contract; any number
of ME algorithms and worker pools may connect concurrently.  An optional
bearer token gates access, standing in for the authenticated channel
(SSH tunnel / OAuth) of the production deployment.
"""

from __future__ import annotations

import socket
import socketserver
import threading
from typing import Any

from repro.core import protocol
from repro.core.leases import LeaseReaper
from repro.core.ops import OPS, Hop, Op
from repro.db.backend import TaskStore
from repro.telemetry.journal import ROLE_SERVICE, Journal, get_journal
from repro.telemetry.fleet import FleetRegistry
from repro.telemetry.metrics import MetricsRegistry, get_metrics
from repro.telemetry.tracing import Tracer, get_tracer
from repro.util.clock import Clock, SystemClock
from repro.util.errors import AuthenticationError, SerializationError
from repro.util.logging import get_logger, log_event

_log = get_logger(__name__)


class _Handler(socketserver.BaseRequestHandler):
    """One connected client; dispatches requests to the store.

    The loop is read → dispatch → write, one frame at a time.
    :func:`repro.core.protocol.read_frame` checks each header's declared
    size against ``MAX_FRAME_BYTES`` before reading a body byte and
    decodes the attachments one by one; each response is streamed back
    with :func:`repro.core.protocol.write_frame`, so a peer that sends
    frames back to back is answered in order.  The service never holds
    a whole request or response frame, and drops each request before it
    waits for the next.  Any framing error drops the connection.
    """

    def handle(self) -> None:
        service: "TaskService" = self.server.service  # type: ignore[attr-defined]
        service.m_connections.inc()
        service.g_connections.inc()
        try:
            self._serve(service)
        except SerializationError as exc:
            log_event(_log, "service.bad_frame", level=10, error=str(exc))
        except OSError:
            pass
        finally:
            service.g_connections.dec()

    def _serve(self, service: "TaskService") -> None:
        conn = self.request
        with conn.makefile("rb") as rfile:
            while True:
                message, nbytes = protocol.read_frame(rfile)
                if message is None:
                    return  # clean EOF
                service.m_bytes_received.inc(nbytes)
                response = self._dispatch(service, message)
                # Unbound before the next read blocks: a request's
                # payloads must not live on until the next frame.
                del message
                try:
                    sent = protocol.write_frame(conn.sendall, response)
                except ValueError:
                    return
                del response
                service.m_bytes_sent.inc(sent)

    def _dispatch(
        self, service: "TaskService", message: dict[str, Any]
    ) -> dict[str, Any]:
        request_id = message.get("id")
        try:
            service.check_token(message.get("token"))
            method = message.get("method")
            if not isinstance(method, str):
                raise ValueError("request missing method name")
            params = message.get("params") or {}
            if not isinstance(params, dict):
                raise ValueError("request params must be an object")
            op = OPS.get(method)
            if op is None:
                raise ValueError(f"unknown method: {method}")
            # A hop record carries the time the request *began*: the
            # store write inside the call wakes long-polling peers at
            # once, so a stamp taken after it could sort this hop behind
            # the events it caused (a report after the ME's collect).
            hops = op.hops
            began = (
                service.clock.now()
                if hops and service.journal.enabled
                else None
            )
            tracer = service.tracer
            if not tracer.enabled:
                result = service.call(op, params)
            else:
                # Parent under the client's RPC span (propagated in the
                # frame) so the wire hop decomposes: service handling
                # and DB time nest inside the client-observed RTT.
                with tracer.span(
                    f"service.{method}",
                    component="service",
                    parent=protocol.extract_trace(message),
                ):
                    with tracer.span(f"db.{method}", component="db"):
                        result = service.call(op, params)
            if began is not None:
                service.journal_hops(hops, params, result, message, began)
            service.m_requests.inc()
            service.m_method_requests[method].inc()
            return protocol.ok_response(request_id, result)
        except Exception as exc:
            service.m_errors.inc()
            return protocol.error_response(request_id, exc)


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    service: "TaskService"

    def get_request(self) -> tuple[socket.socket, Any]:
        # Small JSON frames under Nagle wait an ACK-delay per response;
        # the request/response protocol always wants the frame on the
        # wire immediately (the client sets the same option).
        conn, addr = super().get_request()
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # non-TCP transports (tests with socketpairs) lack it
        return conn, addr


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
        for its store's lifetime: every ``lease_reaper_interval`` seconds
        any RUNNING task whose lease expired is requeued automatically —
        continuous recovery instead of manual ``recover_pool`` calls.
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
        / ``pop_in_any`` request may ask for.  Thread-per-connection
        makes a blocked handler safe (it delays only its own client),
        but an unbounded block would pin handler threads across
        shutdown; clients re-issue wait RPCs until their own timeout, so
        capping costs only an extra round trip per ``max_wait_ms``.
        Open waiters are counted in the ``service.waiters`` gauge and
        surfaced in ``/status``; :meth:`stop` wakes them all.
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
        self._store = store
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
            "service.waiters", "handler threads blocked in a long-poll wait"
        )
        #: Per-method request counters, pre-registered so the dispatch
        #: hot path is a dict lookup, not a registry get-or-create.
        self.m_method_requests = {
            method: registry.counter(
                f"service.requests.{method}", f"{method} requests handled"
            )
            for method in OPS
        }
        self._server = _Server((host, port), _Handler)
        self._server.service = self
        self._thread: threading.Thread | None = None
        self._started_at: float | None = None
        self._reaper: LeaseReaper | None = None
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
        host, port = self._server.server_address[:2]
        return (str(host), int(port))

    def check_token(self, token: str | None) -> None:
        """Validate a request's bearer token."""
        if self._auth_token is not None and token != self._auth_token:
            raise AuthenticationError("invalid or missing service token")

    def _resolve_wait(self, params: dict[str, Any]) -> float:
        """Pop ``wait_ms`` off ``params``; return the granted wait seconds.

        The grant is clamped to ``max_wait_ms`` and zeroed while stopping
        (late wait RPCs must not re-block a draining service).
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
        method = getattr(self._store, op.name)
        wait = self._resolve_wait(params) if op.waitable and "wait_ms" in params else 0.0
        if wait > 0:
            # The handler thread blocks in the store; count it so
            # /status shows how many clients are parked in waits.
            self.g_waiters.inc()
            try:
                result = method(**params, wait=wait)
            finally:
                self.g_waiters.dec()
        else:
            result = method(**params)
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

    def _check_reaper_ready(self) -> tuple[bool, str]:
        """Readiness probe: the lease reaper thread, if configured."""
        if self._reaper is None:
            return True, "no reaper configured"
        if self._started_at is not None and not self._reaper.is_alive():
            return False, "lease reaper thread is not running"
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
                    "running": self._reaper is not None
                    and self._reaper.is_alive(),
                },
            },
            "store": self._store.stats(now=now),
            # Result-cache occupancy and traffic (every store caches).
            "cache": self._store.cache_stats(),
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

    def start(self) -> "TaskService":
        """Begin serving on a daemon thread; returns self for chaining."""
        if self._thread is not None:
            raise RuntimeError("service already started")
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="emews-service",
            daemon=True,
        )
        self._thread.start()
        self._started_at = self._clock.now()
        if self._reaper is not None:
            self._reaper.start()
        if self._sampler is not None:
            self._sampler.start()
        if self._status_server is not None:
            self._status_server.start()
        return self

    def stop(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        # Wake blocked long-polls first (they return empty immediately)
        # so no handler thread sleeps out its max_wait_ms grant during
        # shutdown; the stopping flag zeroes any wait that races in.
        self._stopping.set()
        self._store.wake_waiters()
        if self._status_server is not None:
            self._status_server.stop()
        if self._sampler is not None:
            self._sampler.stop()
        if self._reaper is not None:
            self._reaper.stop()
        if self._thread is not None:
            # serve_forever() checks its shutdown flag once per 0.5 s
            # select() poll; shutting the listener down makes it
            # readable now (the accept fails and is dropped), so the
            # loop sees the flag at once instead of on the next tick.
            try:
                self._server.socket.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # unsupported here: stop on the next poll tick
            self._server.shutdown()
            self._thread.join(timeout=5)
            self._thread = None
        self._server.server_close()

    def __enter__(self) -> "TaskService":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
