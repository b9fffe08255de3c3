"""The EQSQL task API (paper §V-A, Listing 1).

Instances of :class:`EQSQL` provide methods for task submission,
querying the queues, result reporting, and retrieval, layered over any
:class:`repro.db.TaskStore` — a transient in-memory SQLite store, a
SQLite file, or a :class:`repro.core.service_client.RemoteTaskStore` that speaks to
an EMEWS service across the network.  Polling delays and timeouts mirror
the signatures in the paper's Listing 1.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Sequence
from typing import Any, TypeVar

from repro.core.constants import EQ_TIMEOUT, ResultStatus, TaskStatus
from repro.core.fetch import fetch_count
from repro.core.task import _TRACE_PREFIX, unwrap_payload, wrap_payload
from repro.db.backend import TaskStore, normalize_priorities
from repro.db.schema import TaskRow
from repro.db.sqlite_backend import SqliteTaskStore
from repro.telemetry.metrics import (
    BYTE_BUCKETS,
    COUNT_BUCKETS,
    MetricsRegistry,
    get_metrics,
)
from repro.telemetry.tracing import Tracer, get_tracer
from repro.util.backoff import DecorrelatedJitter
from repro.util.clock import Clock, SystemClock
from repro.util.serialization import cache_key

T = TypeVar("T")

#: Valid values for the ``cache=`` submission kwarg.
CACHE_MODES = ("off", "read", "readwrite")

#: The status message returned when a blocking query times out,
#: e.g. ``{'type': 'status', 'payload': 'TIMEOUT'}``.
TIMEOUT_MESSAGE: dict[str, str] = {"type": "status", "payload": EQ_TIMEOUT}

#: Longest single long-poll issued per store call.  Bounds how long one
#: wait RPC stays in flight (services cap server-side via ``max_wait_ms``
#: anyway); ``timeout=None`` loops re-issue waits of this length forever.
WAIT_RPC_CAP = 30.0


def _work_message(
    eq_task_id: int, payload: str, trace: list[str] | None = None
) -> dict[str, Any]:
    """The task message format of §IV-C:
    ``{'type': 'work', 'eq_task_id': id, 'payload': payload}``.

    Messages for tasks submitted under tracing additionally carry the
    originating span context under ``'trace'`` (wire form), extracted
    from the payload envelope during unwrapping.
    """
    message = {"type": "work", "eq_task_id": eq_task_id, "payload": payload}
    if trace is not None:
        message["trace"] = trace
    return message


class _CacheFlight:
    """One in-flight cache-keyed task: the single submitted copy that
    every identical submission coalesces onto until its result lands.

    ``futures`` holds every Future watching the flight (the original
    submission's plus each coalesced duplicate's); all share the same
    ``eq_task_id``, and settlement fans the one popped result out to
    all of them.  ``writeback`` marks the flight for report-/pop-time
    ``cache_put``; ``written`` makes that put once-only.
    """

    __slots__ = ("key", "eq_type", "eq_task_id", "writeback", "written", "futures")

    def __init__(
        self, key: str, eq_type: int, eq_task_id: int, writeback: bool
    ) -> None:
        self.key = key
        self.eq_type = eq_type
        self.eq_task_id = eq_task_id
        self.writeback = writeback
        self.written = False
        self.futures: list[Any] = []


def _unwrap_popped(popped: list[tuple[int, str]]) -> list[dict[str, Any]]:
    """Popped (id, payload) pairs → work messages, shedding envelopes."""
    messages = []
    for eq_task_id, payload in popped:
        # Fast path: plain (untraced) payloads skip the unwrap call —
        # the marker is always the envelope's literal string prefix.
        if payload.startswith(_TRACE_PREFIX):
            inner, ctx = unwrap_payload(payload)
            messages.append(
                _work_message(eq_task_id, inner, None if ctx is None else ctx.to_wire())
            )
        else:
            messages.append({"type": "work", "eq_task_id": eq_task_id, "payload": payload})
    return messages


class EQSQL:
    """Class-based Python task API over an EMEWS DB.

    Parameters
    ----------
    store:
        The task store backend (local or remote).
    clock:
        Time source for timestamps and polling sleeps.  Inject a
        :class:`repro.util.clock.VirtualClock` (and use ``timeout=0``
        non-blocking calls) under discrete-event simulation.
    tracer:
        Span recorder; defaults to the process-wide tracer (disabled
        out of the box).  When enabled, submissions embed their span
        context in the payload envelope so pool-side execution spans
        parent under the submit span.
    metrics:
        Metrics registry; defaults to the process-wide registry.
    """

    def __init__(
        self,
        store: TaskStore,
        clock: Clock | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        *,
        cache_ttl: float | None = None,
    ) -> None:
        self._store = store
        self._clock = clock if clock is not None else SystemClock()
        self._closed = False
        self._tracer = tracer
        #: TTL (seconds) stamped on cache entries written by ``readwrite``
        #: submissions; ``None`` = entries never expire (LRU-only).
        self._cache_ttl = cache_ttl
        # Single-flight state: one flight per distinct cache key in
        # flight; both maps point at the same _CacheFlight objects.
        self._cache_lock = threading.Lock()
        self._flights_by_key: dict[str, _CacheFlight] = {}
        self._flights_by_id: dict[int, _CacheFlight] = {}
        # Cache-hit futures never touch the store, but every future needs
        # a unique id (collection ops key on it); negatives can't collide
        # with store-assigned task ids, which start at 1.
        self._synthetic_id = 0
        registry = metrics if metrics is not None else get_metrics()
        self._m_coalesced = registry.counter(
            "cache.coalesce", "duplicate in-flight submissions coalesced"
        )
        self._m_submitted = registry.counter(
            "eqsql.tasks_submitted", "tasks created in the EMEWS DB"
        )
        self._m_fetched = registry.counter(
            "eqsql.tasks_fetched", "tasks popped off the output queue"
        )
        self._m_reported = registry.counter(
            "eqsql.tasks_reported", "results pushed onto the input queue"
        )
        self._m_payload_bytes = registry.histogram(
            "eqsql.payload_bytes", BYTE_BUCKETS, "submitted payload sizes"
        )
        self._m_batch_size = registry.histogram(
            "eqsql.fetch_batch_size", COUNT_BUCKETS, "tasks returned per batch query"
        )

    @property
    def store(self) -> TaskStore:
        """The underlying task store."""
        return self._store

    @property
    def clock(self) -> Clock:
        """The time source used for timestamps and polling."""
        return self._clock

    @property
    def tracer(self) -> Tracer:
        """The span recorder (instance-injected or process default)."""
        return self._tracer if self._tracer is not None else get_tracer()

    # -- retry core ---------------------------------------------------------

    def _wait_poll(
        self,
        attempt: Callable[[float | None], T | None],
        delay: float,
        timeout: float | None,
    ) -> T | None:
        """Run ``attempt`` until it returns non-None or ``timeout`` expires.

        ``attempt`` receives the long-poll bound to pass to the store;
        the store blocks, we don't sleep.  One wait call usually covers
        the whole timeout.  Always makes at least one attempt, and once
        no time remains the bound is ``None`` (non-blocking), so
        ``timeout=0`` is the single wait-less call that DES callers
        under a virtual clock rely on: a real block there would
        deadlock.  ``timeout=None`` retries forever.

        When the store returns early and empty — its server capped the
        wait (``max_wait_ms``), shutdown woke it, or a wrapper dropped
        ``wait`` — a short decorrelated-jittered sleep keeps the loop
        from hot-spinning, and many callers drift apart.
        """
        deadline = self._clock.deadline(timeout)
        backoff: DecorrelatedJitter | None = None
        while True:
            wait: float | None = WAIT_RPC_CAP
            if deadline is not None:
                remaining = deadline - self._clock.now()
                wait = min(remaining, WAIT_RPC_CAP) if remaining > 0 else None
            result = attempt(wait)
            if result is not None:
                return result
            if self._clock.expired(deadline):
                return None
            if backoff is None:
                backoff = DecorrelatedJitter(min(delay, 0.05))
            self._clock.sleep(backoff.next())

    # -- submission (ME algorithm side) ---------------------------------------

    def _create_batch(
        self,
        exp_id: str,
        eq_type: int,
        payloads: Sequence[str],
        priority: int | Sequence[int],
        tag: str | None,
    ) -> list[int]:
        """Create a batch of task rows in one store transaction."""
        self._m_submitted.inc(len(payloads))
        for payload in payloads:
            self._m_payload_bytes.observe(len(payload))
        tracer = self.tracer
        # Hot path: skip the span machinery entirely when tracing is off —
        # no handle, no kwargs dict, no payload envelope.
        if tracer.enabled:
            name = "eqsql.submit" if len(payloads) == 1 else "eqsql.submit_batch"
            with tracer.span(
                name, component="eqsql", eq_type=eq_type, n=len(payloads)
            ) as sp:
                # Every task in the batch parents under the one submit
                # span; per-task identity rides in the pool-side
                # execution spans' eq_task_id attrs.
                ids = self._store.create_tasks(
                    exp_id,
                    eq_type,
                    [wrap_payload(p, sp.context) for p in payloads],
                    priority=priority,
                    tag=tag,
                    time_created=self._clock.now(),
                )
        else:
            ids = self._store.create_tasks(
                exp_id,
                eq_type,
                payloads,
                priority=priority,
                tag=tag,
                time_created=self._clock.now(),
            )
        return ids

    def submit_task(
        self,
        exp_id: str,
        eq_type: int,
        payload: str,
        priority: int = 0,
        tag: str | None = None,
        cache: str = "off",
    ) -> "Future":
        """Submit a task; returns a :class:`Future` for its result.

        The payload must carry sufficient information for a worker pool
        to execute the task — typically a JSON string.  A one-element
        :meth:`submit_tasks` (``cache`` as there).
        """
        return self.submit_tasks(exp_id, eq_type, [payload], priority, tag, cache)[0]

    def submit_tasks(
        self,
        exp_id: str,
        eq_type: int,
        payloads: Sequence[str],
        priority: int | Sequence[int] = 0,
        tag: str | None = None,
        cache: str = "off",
    ) -> list["Future"]:
        """Submit tasks in one store transaction; returns one
        :class:`Future` per payload, in order.

        ``cache`` selects result memoization, content-addressed by
        ``(eq_type, canonical payload)``:

        - ``"off"`` (default): always execute; the cache is not consulted.
        - ``"read"``: a cached result returns an already-completed Future
          without creating a task; a miss executes normally and does
          *not* populate the cache.
        - ``"readwrite"``: as ``"read"``, and the task's first reported
          result is written back to the cache (TTL from the instance's
          ``cache_ttl``).

        Either cached mode is also *single-flight*: a submission whose
        key matches a task still in flight — or an earlier payload of
        the same batch — coalesces onto that task: no new row is
        created, and the returned Future resolves with the original
        task's result when it lands.  Only cache misses that are not
        already in flight reach the store (still as one transaction).
        """
        from repro.core.futures import Future

        if cache == "off":
            ids = self._create_batch(exp_id, eq_type, payloads, priority, tag)
            return [
                Future(self, eq_task_id, eq_type, exp_id=exp_id, tag=tag)
                for eq_task_id in ids
            ]
        if cache not in CACHE_MODES:
            raise ValueError(f"cache must be one of {CACHE_MODES}, got {cache!r}")
        # Validate here: cache hits and coalesced duplicates never reach
        # the store, so its check would see only the misses, if any.
        priorities = normalize_priorities(len(payloads), priority)
        keys = [cache_key(eq_type, p) for p in payloads]
        now = self._clock.now()
        writeback = cache == "readwrite"
        futures: list[Future | None] = [None] * len(payloads)
        with self._cache_lock:
            create: list[int] = []  # positions needing a real task
            local: dict[str, int] = {}  # key -> leader position in this batch
            trailing: list[tuple[int, int]] = []  # (position, leader position)
            for i, key in enumerate(keys):
                cached = self._store.cache_get(key, now=now)
                if cached is not None:
                    self._synthetic_id -= 1
                    future = Future(
                        self, self._synthetic_id, eq_type, exp_id=exp_id, tag=tag
                    )
                    future._set_result(cached)
                    futures[i] = future
                    continue
                flight = self._flights_by_key.get(key)
                if flight is not None:
                    # Coalesce: piggyback on the in-flight task.  A readwrite
                    # duplicate upgrades a read-only flight to write back.
                    flight.writeback = flight.writeback or writeback
                    future = Future(
                        self, flight.eq_task_id, eq_type, exp_id=exp_id, tag=tag
                    )
                    flight.futures.append(future)
                    futures[i] = future
                    self._m_coalesced.inc()
                    continue
                if key in local:
                    # Duplicate within the batch: its flight exists only
                    # after the leader's create below.
                    trailing.append((i, local[key]))
                    self._m_coalesced.inc()
                    continue
                local[key] = i
                create.append(i)
            if create:
                # Single-flight: the lock is held across the create so a
                # concurrent identical submission coalesces instead of
                # double-submitting.
                sub_priority: int | list[int]
                if isinstance(priority, int):
                    sub_priority = priority
                else:
                    sub_priority = [priorities[i] for i in create]
                ids = self._create_batch(
                    exp_id, eq_type, [payloads[i] for i in create], sub_priority, tag
                )
                for pos, eq_task_id in zip(create, ids):
                    future = Future(
                        self, eq_task_id, eq_type, exp_id=exp_id, tag=tag
                    )
                    futures[pos] = future
                    flight = _CacheFlight(keys[pos], eq_type, eq_task_id, writeback)
                    flight.futures.append(future)
                    self._flights_by_key[keys[pos]] = flight
                    self._flights_by_id[eq_task_id] = flight
            for pos, leader in trailing:
                flight = self._flights_by_key[keys[leader]]
                future = Future(
                    self, flight.eq_task_id, eq_type, exp_id=exp_id, tag=tag
                )
                flight.futures.append(future)
                futures[pos] = future
        return futures

    # -- cache plumbing -------------------------------------------------------

    def _writeback_cache(
        self, reports: Sequence[tuple[int, int, str]]
    ) -> None:
        """Report-time cache population for watched readwrite flights.

        Runs on the reporting instance: when the reporter shares the
        EQSQL instance with the submitter (in-process pools, including
        the batch reporter path) the cache fills the moment the result
        is reported, before any retrieval.  Each flight writes at most
        once — the first report wins, matching the store's first-write
        -wins report semantics.
        """
        if not self._flights_by_id:
            return
        puts: list[tuple[str, int, str]] = []
        with self._cache_lock:
            for eq_task_id, eq_type, result in reports:
                flight = self._flights_by_id.get(eq_task_id)
                if flight is not None and flight.writeback and not flight.written:
                    flight.written = True
                    puts.append((flight.key, eq_type, result))
        now = self._clock.now()
        for key, eq_type, result in puts:
            self._store.cache_put(
                key, eq_type, result, now=now, ttl=self._cache_ttl
            )

    def _settle_cache(self, eq_task_id: int, result: str) -> None:
        """A flight's result landed (popped off the input queue): write
        back if the report-time hook didn't (remote reporter), and fan
        the one popped result out to every coalesced Future — popping
        consumes the row, so siblings can never pop it themselves.
        """
        if not self._flights_by_id:
            return
        with self._cache_lock:
            flight = self._flights_by_id.pop(eq_task_id, None)
            if flight is not None and self._flights_by_key.get(flight.key) is flight:
                del self._flights_by_key[flight.key]
        if flight is None:
            return
        if flight.writeback and not flight.written:
            flight.written = True
            self._store.cache_put(
                flight.key, flight.eq_type, result,
                now=self._clock.now(), ttl=self._cache_ttl,
            )
        for future in flight.futures:
            future._set_result(result)

    def cache_stats(self) -> dict:
        """The store's cache counters (entries, hits, misses, ...)."""
        return self._store.cache_stats()

    # -- queue queries (worker pool side) ---------------------------------------

    def _pop_tasks(
        self,
        span_name: str,
        eq_type: int,
        n: int,
        worker_pool: str,
        delay: float,
        timeout: float | None,
        lease: float | None,
        **attrs: Any,
    ) -> list[dict[str, Any]] | None:
        """Claim up to ``n`` tasks as work messages (None on timeout)."""
        def attempt(wait: float | None) -> list[tuple[int, str]] | None:
            kwargs = {} if wait is None else {"wait": wait}
            popped = self._store.pop_out(
                eq_type, n, worker_pool=worker_pool, now=self._clock.now(),
                lease=lease, **kwargs,
            )
            return popped if popped else None

        tracer = self.tracer
        t0 = self._clock.now() if tracer.enabled else 0.0
        popped = self._wait_poll(attempt, delay, timeout)
        if popped is None:
            return None
        self._m_fetched.inc(len(popped))
        self._m_batch_size.observe(len(popped))
        if tracer.enabled:
            tracer.add_span(
                span_name,
                "eqsql",
                t0,
                self._clock.now(),
                parent=tracer.current_context(),
                attrs={"n": len(popped), **attrs, "worker_pool": worker_pool},
            )
        return _unwrap_popped(popped)

    def query_task(
        self,
        eq_type: int,
        n: int = 1,
        worker_pool: str = "default",
        delay: float = 0.5,
        timeout: float = 2.0,
        lease: float | None = None,
    ) -> dict[str, Any] | list[dict[str, Any]]:
        """Pop up to ``n`` tasks of ``eq_type`` off the output queue.

        Event-driven: one blocking ``pop_out(wait=...)`` covers the whole
        ``timeout`` and returns the instant work arrives; ``delay`` only
        paces (jittered) retries after the store returns early and empty.
        Returns a single work message when ``n == 1``, a list of work
        messages when ``n > 1``, or the TIMEOUT status message when the
        wait fails (paper §IV-C).  ``lease`` claims the tasks under a
        fault-tolerance lease of that many seconds (see
        :meth:`repro.db.backend.TaskStore.pop_out`).
        """
        messages = self._pop_tasks(
            "eqsql.query_task", eq_type, n, worker_pool, delay, timeout, lease
        )
        if messages is None:
            return dict(TIMEOUT_MESSAGE)
        if n == 1:
            return messages[0]
        return messages

    def query_task_batch(
        self,
        eq_type: int,
        batch_size: int,
        threshold: int,
        owned: int,
        worker_pool: str = "default",
        delay: float = 0.5,
        timeout: float = 2.0,
        lease: float | None = None,
    ) -> list[dict[str, Any]]:
        """Worker-pool batch query (paper §IV-D).

        Requests the batch/threshold deficit given the pool's currently
        ``owned`` (popped, uncompleted) task count: nothing is fetched
        until the deficit reaches ``threshold``; never more than
        ``batch_size - owned`` tasks are claimed.  Returns an empty list
        when the policy says not to fetch or the queue stays empty.
        ``lease`` claims the batch under a fault-tolerance lease.
        """
        want = fetch_count(batch_size, threshold, owned)
        if want == 0:
            return []
        messages = self._pop_tasks(
            "eqsql.query_task_batch", eq_type, want, worker_pool, delay,
            timeout, lease, want=want,
        )
        return messages or []

    def report_task(
        self,
        eq_task_id: int,
        eq_type: int,
        result: str,
        *,
        profile: dict | None = None,
    ) -> None:
        """Report a completed task's result, pushing it onto the input
        queue where the ME algorithm can retrieve it.

        ``profile`` optionally carries the executing pool's
        :class:`~repro.telemetry.profiling.TaskProfile` dict alongside
        the result.  A one-element :meth:`report_tasks`.
        """
        self.report_tasks(
            [(eq_task_id, eq_type, result)],
            profiles={eq_task_id: profile} if profile else None,
        )

    def report_tasks(
        self,
        reports: Sequence[tuple[int, int, str]],
        *,
        profiles: dict[int, dict] | None = None,
    ) -> None:
        """Report many completed tasks in one store operation.

        ``reports`` is a sequence of ``(eq_task_id, eq_type, result)``
        triples; ``profiles`` optionally maps task id to that task's
        profile dict.  Against a remote store this is a single RPC —
        the round trip is paid once per batch instead of once per task
        — and against SQLite a single transaction.  First write wins:
        already-complete tasks are skipped.
        """
        if not reports:
            return
        self._m_reported.inc(len(reports))
        tracer = self.tracer
        if not tracer.enabled:
            self._store.report_batch(
                reports, now=self._clock.now(), profiles=profiles
            )
        else:
            name = "eqsql.report" if len(reports) == 1 else "eqsql.report_batch"
            with tracer.span(name, component="eqsql", n=len(reports)):
                self._store.report_batch(
                    reports, now=self._clock.now(), profiles=profiles
                )
        self._writeback_cache(reports)

    def report_and_fetch(
        self,
        reports: Sequence[tuple[int, int, str]],
        eq_type: int,
        n: int,
        *,
        worker_pool: str = "default",
        lease: float | None = None,
        profiles: dict[int, dict] | None = None,
    ) -> list[dict[str, Any]]:
        """Report results and claim up to ``n`` tasks in one store
        operation (:meth:`~repro.db.backend.TaskStore.report_pop`).

        A busy pool's refill: the results as :meth:`report_tasks` sends
        them, then a non-blocking claim as :meth:`query_task_batch`
        makes it, returned as work messages (``[]`` when nothing is
        queued).  Against a remote store the flush and the refill share
        one round trip.  Raises on a failure; the reports are then in an
        unknown state (re-reporting is safe) and any claim is lost to
        the caller (a leased one is reaped).
        """
        self._m_reported.inc(len(reports))
        now = self._clock.now()
        tracer = self.tracer
        if not tracer.enabled:
            popped = self._store.report_pop(
                reports, eq_type, n, worker_pool=worker_pool, now=now,
                lease=lease, profiles=profiles,
            )
        else:
            with tracer.span(
                "eqsql.report_pop", component="eqsql", n=len(reports),
                want=n, worker_pool=worker_pool,
            ):
                popped = self._store.report_pop(
                    reports, eq_type, n, worker_pool=worker_pool, now=now,
                    lease=lease, profiles=profiles,
                )
        self._writeback_cache(reports)
        if popped:
            self._m_fetched.inc(len(popped))
            self._m_batch_size.observe(len(popped))
        return _unwrap_popped(popped)

    # -- result retrieval (ME algorithm side) --------------------------------------

    def query_result(
        self,
        eq_task_id: int,
        delay: float = 0.5,
        timeout: float = 2.0,
    ) -> tuple[ResultStatus, str]:
        """Pop one task's result off the input queue.

        Returns ``(SUCCESS, result_payload)`` or ``(FAILURE, 'TIMEOUT')``.
        One blocking ``pop_in_any`` (the single-id form of the batch
        wait) covers the whole ``timeout``.
        """
        def attempt(wait: float | None) -> str | None:
            kwargs = {} if wait is None else {"wait": wait}
            popped = self._store.pop_in_any([eq_task_id], limit=1, **kwargs)
            return popped[0][1] if popped else None

        with self.tracer.span(
            "eqsql.query_result", component="eqsql", eq_task_id=eq_task_id
        ) as sp:
            result = self._wait_poll(attempt, delay, timeout)
            sp.set_attr("found", result is not None)
        if result is None:
            return (ResultStatus.FAILURE, EQ_TIMEOUT)
        self._settle_cache(eq_task_id, result)
        return (ResultStatus.SUCCESS, result)

    def pop_completed_ids(
        self,
        eq_task_ids: Sequence[int],
        limit: int | None = None,
        *,
        wait: float | None = None,
    ) -> list[tuple[int, str]]:
        """Batch pop of any listed tasks on the input queue.

        The batch primitive behind ``as_completed`` / ``pop_completed``;
        one store operation regardless of how many futures are watched.
        ``limit`` caps consumption (results beyond it stay queued).
        ``wait`` long-polls the store (non-blocking default preserved).
        """
        if wait is None:
            popped = self._store.pop_in_any(eq_task_ids, limit=limit)
        else:
            popped = self._store.pop_in_any(eq_task_ids, limit=limit, wait=wait)
        if self._flights_by_id:
            for eq_task_id, result in popped:
                self._settle_cache(eq_task_id, result)
        return popped

    # -- status / priority / cancellation -------------------------------------------

    def query_status(
        self, eq_task_ids: Sequence[int]
    ) -> list[tuple[int, TaskStatus]]:
        """Statuses for a batch of task ids."""
        return self._store.get_statuses(eq_task_ids)

    def query_priorities(
        self, eq_task_ids: Sequence[int]
    ) -> list[tuple[int, int]]:
        """Output-queue priorities for still-queued tasks."""
        return self._store.get_priorities(eq_task_ids)

    def update_priorities(
        self, eq_task_ids: Sequence[int], priorities: int | Sequence[int]
    ) -> int:
        """Re-prioritize queued tasks; returns the number updated."""
        with self.tracer.span(
            "eqsql.update_priorities", component="eqsql", n=len(eq_task_ids)
        ) as sp:
            updated = self._store.update_priorities(eq_task_ids, priorities)
            sp.set_attr("updated", updated)
        return updated

    def cancel_tasks(self, eq_task_ids: Sequence[int]) -> int:
        """Cancel queued tasks; returns the number canceled."""
        with self.tracer.span(
            "eqsql.cancel", component="eqsql", n=len(eq_task_ids)
        ) as sp:
            canceled = self._store.cancel_tasks(eq_task_ids)
            sp.set_attr("canceled", canceled)
        if canceled and self._flights_by_id:
            # A canceled flight will never settle; drop it so a later
            # identical submission creates a fresh task instead of
            # coalescing onto a task that can never complete.  Only
            # actually-CANCELED ids are dropped (a cancel attempt on a
            # RUNNING task leaves its flight live).
            with self._cache_lock:
                watched = [t for t in eq_task_ids if t in self._flights_by_id]
            if watched:
                canceled_ids = {
                    tid
                    for tid, status in self._store.get_statuses(watched)
                    if status == TaskStatus.CANCELED
                }
                with self._cache_lock:
                    for tid in canceled_ids:
                        flight = self._flights_by_id.pop(tid, None)
                        if (
                            flight is not None
                            and self._flights_by_key.get(flight.key) is flight
                        ):
                            del self._flights_by_key[flight.key]
        return canceled

    # -- introspection ------------------------------------------------------------------

    def task_info(self, eq_task_id: int) -> TaskRow:
        """The full database row for a task (timestamps, pool, payloads)."""
        return self._store.get_task(eq_task_id)

    def queue_lengths(self, eq_type: int | None = None) -> tuple[int, int]:
        """(output queue length, input queue length)."""
        return (
            self._store.queue_out_length(eq_type),
            self._store.queue_in_length(),
        )

    def are_queues_empty(self, eq_type: int | None = None) -> bool:
        """True when both queues are drained — the workflow-termination
        test used by ME drivers."""
        out_len, in_len = self.queue_lengths(eq_type)
        return out_len == 0 and in_len == 0

    def close(self) -> None:
        """Close the underlying store."""
        if not self._closed:
            self._closed = True
            self._store.close()

    def __enter__(self) -> "EQSQL":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def init_eqsql(
    db_path: str = ":memory:",
    clock: Clock | None = None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    cache_ttl: float | None = None,
) -> EQSQL:
    """Create an :class:`EQSQL` instance (the paper's ``init_esql``).

    ``db_path`` is a SQLite database file; the default ``":memory:"``
    gives a transient store that lives as long as the instance.
    """
    return EQSQL(
        SqliteTaskStore(db_path), clock=clock, tracer=tracer, metrics=metrics,
        cache_ttl=cache_ttl,
    )
