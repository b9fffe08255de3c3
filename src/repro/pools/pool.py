"""Threaded worker pool.

One fetcher thread applies the batch/threshold policy against the EMEWS
DB output queue; N worker threads execute claimed tasks and report
results to the input queue.  The owned-task count (claimed but not yet
completed) drives the fetch policy exactly as in §IV-D, so this pool
reproduces the utilization regimes of Figure 3 in real time.

Shutdown follows the EQ_STOP convention: a task whose payload is the
``EQ_STOP`` sentinel tells the pool to stop fetching, drain its owned
tasks, and exit; the sentinel task itself is reported back (payload
``EQ_STOP``) so the submitter's future completes.  ``stop()`` forces the
same path locally.

Results leave through one combining reporter (``_report``): a worker
that finishes a task appends the result to a pending buffer and, unless
a flush is already in flight, flushes the buffer itself as one
``report_batch`` of whatever is pending — so the batch size emerges
from load, a remote store's round trip is paid per flush,
and a lone result still leaves at once on the thread that produced it.

Claims have one owner at a time, the *fetch role* (``_fetching``, under
``_owned_cond``).  The fetcher takes it when the policy sees a deficit;
a flush that finds it free takes it too and sends ``report_pop`` — the
flush plus a claim for the slots that flush frees, one round trip — so
a busy pool pays one RPC per flush instead of a report and a separate
``pop_out``.  The flusher settles the flush, admits the refill exactly
as the fetcher admits a fetch, then releases the role.  So at most one
claim is in flight and ``owned + asked <= batch_size`` holds, with the
batch/threshold policy unchanged.  While the fetcher holds the role (an
idle long-poll) flushes are plain ``report_batch`` calls.  A
``report_pop`` that fails ambiguously falls back to per-item reports and
loses its refill: leased tasks are reaped, unleased ones wait for
``recover_pool``, as after a lost ``pop_out``.
"""

from __future__ import annotations

import queue
import threading
from collections import deque
from typing import Any, NamedTuple

from repro.core.constants import EQ_ABORT, EQ_STOP
from repro.core.eqsql import EQSQL
from repro.pools.config import FETCH_WAIT, PoolConfig
from repro.pools.handlers import TaskExecutionError, TaskHandler
from repro.telemetry.fleet import TelemetryPusher
from repro.telemetry.profiling import ProfileHandle, TaskProfiler
from repro.telemetry.journal import (
    EV_FETCH,
    EV_REPORT,
    EV_RUN_END,
    EV_RUN_START,
    ROLE_POOL,
    Journal,
    get_journal,
)
from repro.telemetry.metrics import (
    COUNT_BUCKETS,
    MetricsRegistry,
    get_metrics,
)
from repro.telemetry.tracing import SpanContext, Tracer, get_tracer
from repro.util.errors import ReproError
from repro.util.logging import get_logger, log_event
from repro.util.serialization import json_dumps

_log = get_logger(__name__)

#: Most result text (summed ``len``) one flush carries; it always takes
#: one result, so a larger one goes alone, as it always did.  The count
#: needs no bound (``pending <= owned <= batch_size``) but the bytes do:
#: big results would build a frame that grows with ``batch_size``, and
#: the service refuses a frame whole past ``MAX_FRAME_BYTES`` (64 MiB).
#: Frames stream (``protocol.SEND_BYTES`` at a time), so the bound is no
#: longer about transient copies.  1 MiB stays under the frame cap even
#: at JSON's worst escape expansion (12 bytes per character).
FLUSH_BYTES = 1 << 20


class _Done(NamedTuple):
    """One executed task waiting to be reported.  ``ctx`` is its
    ``pool.task`` span context (None when untraced), so the ``pool.report``
    child can be recorded from whichever thread flushes it."""

    eq_task_id: int
    result: str
    failed: bool
    ran_at: float
    profile: dict[str, Any] | None
    ctx: SpanContext | None


class ThreadedWorkerPool:
    """A pilot-job worker pool running on threads.

    Under an enabled tracer, each fetch that returns work records a
    ``pool.fetch`` span and each task executes inside a ``pool.task``
    span parented to the submitter's span (the context rides the task
    payload), with a ``pool.report`` child for the result write (``n`` =
    results in its flush) — the queue-wait / run / report decomposition
    of the task lifecycle.
    """

    def __init__(
        self,
        eqsql: EQSQL,
        handler: TaskHandler,
        config: PoolConfig,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        journal: Journal | None = None,
    ) -> None:
        self._eqsql = eqsql
        self._handler = handler
        self._config = config
        self._tracer = tracer
        # Flight recorder: resolved per call when not injected, so a
        # later configure_journal() is picked up (tracer discipline).
        self._journal = journal
        registry = metrics if metrics is not None else get_metrics()
        self._m_completed = registry.counter(
            "pool.tasks_completed", "tasks executed and reported"
        )
        self._m_failed = registry.counter(
            "pool.tasks_failed", "tasks whose handler raised"
        )
        self._m_fetch_size = registry.histogram(
            "pool.fetch_batch_size", COUNT_BUCKETS, "tasks per non-empty fetch"
        )
        self._m_queue_wait = registry.histogram(
            "pool.queue_wait_seconds", help="local-queue wait: fetch to execution start"
        )
        self._m_run = registry.histogram(
            "pool.run_seconds", help="handler execution time"
        )
        self._m_report = registry.histogram(
            "pool.report_seconds", help="result report round trip"
        )
        self._m_lease_renewals = registry.counter(
            "pool.lease_renewals", "task leases renewed by the heartbeat"
        )
        self._m_fetch_errors = registry.counter(
            "pool.fetch_errors", "batch queries that failed on a connection fault"
        )
        self._m_report_errors = registry.counter(
            "pool.report_errors", "result reports lost to a connection fault"
        )
        self._policy = config.policy()

        # Owned count and ids, under a condition the fetcher and the
        # drain wait on; notified when a flush settles, when the fetch
        # role is released, and by stop().  ``_fetching`` is the fetch
        # role: held by the fetcher's query or a flush's refill, so the
        # pool has at most one claim in flight.
        self._owned = 0
        self._owned_ids: set[int] = set()
        self._fetching = False
        self._owned_cond = threading.Condition()
        self._local: "queue.Queue[dict[str, Any] | None]" = queue.Queue()
        self._stop_fetching = threading.Event()
        self._stop_heartbeat = threading.Event()
        self._abort = threading.Event()
        self._threads: list[threading.Thread] = []
        self._heartbeat: threading.Thread | None = None
        self._started = False
        # Combining reporter (see _report): results awaiting a flush, and
        # whether some worker holds the flusher role.
        self._pending: deque[_Done] = deque()
        self._flushing = False
        self._report_lock = threading.Lock()

        self._stats_lock = threading.Lock()
        self._busy = 0
        self.tasks_completed = 0
        self.tasks_failed = 0
        #: Executions whose report never reached the DB (connection lost
        #: past retry); the lease reaper re-dispatches these elsewhere.
        self.reports_lost = 0

        # Per-task resource profiling (off by default): handles for
        # in-flight tasks (the telemetry heartbeat snapshots them for
        # the live cpu-vs-wall signal) plus a bounded buffer of finished
        # profiles drained into each push envelope.
        self._profiler: TaskProfiler | None = (
            TaskProfiler(memory=config.profile_memory)
            if config.profile_tasks
            else None
        )
        self._profile_lock = threading.Lock()
        self._live_handles: dict[int, ProfileHandle] = {}
        self._recent_profiles: deque[dict[str, Any]] = deque(maxlen=64)
        self._pusher: TelemetryPusher | None = None

    @property
    def name(self) -> str:
        return self._config.name

    @property
    def config(self) -> PoolConfig:
        return self._config

    def owned(self) -> int:
        """Tasks claimed from the DB but not yet completed."""
        with self._owned_cond:
            return self._owned

    def busy(self) -> int:
        """Workers currently executing (or reporting) a task."""
        with self._stats_lock:
            return self._busy

    def busy_fraction(self) -> float:
        """Fraction of workers currently occupied — the live analogue of
        the utilization statistic the Fig 3 benchmarks compute offline."""
        return self.busy() / self._config.n_workers

    @property
    def tracer(self) -> Tracer:
        return self._tracer if self._tracer is not None else get_tracer()

    def _jrnl(self) -> Journal:
        return self._journal if self._journal is not None else get_journal()

    @property
    def telemetry_pusher(self) -> TelemetryPusher | None:
        """The fleet push thread, when ``telemetry_interval`` is set and
        the store exposes the ``telemetry`` RPC."""
        return self._pusher

    def _telemetry_envelope(self) -> dict[str, Any]:
        """Per-beat fleet payload: load, counters, profiles, live tasks."""
        busy_fraction = self.busy_fraction()
        with self._profile_lock:
            profiles = list(self._recent_profiles)
            self._recent_profiles.clear()
            running = [handle.live() for handle in self._live_handles.values()]
        with self._stats_lock:
            completed = self.tasks_completed
            failed = self.tasks_failed
            lost = self.reports_lost
        envelope: dict[str, Any] = {
            "busy_fraction": busy_fraction,
            "n_workers": self._config.n_workers,
            "owned": self.owned(),
            "tasks_completed": completed,
            "tasks_failed": failed,
            "reports_lost": lost,
            "running": running,
        }
        if profiles:
            envelope["profiles"] = profiles
        return envelope

    @staticmethod
    def _msg_trace_id(message: dict[str, Any]) -> str:
        wire = message.get("trace")
        return wire[0] if wire else ""

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "ThreadedWorkerPool":
        """Launch the fetcher and worker threads."""
        if self._started:
            raise RuntimeError("pool already started")
        self._started = True
        fetcher = threading.Thread(
            target=self._fetch_loop, name=f"{self.name}-fetcher", daemon=True
        )
        workers = [
            threading.Thread(
                target=self._work_loop, name=f"{self.name}-worker-{i}", daemon=True
            )
            for i in range(self._config.n_workers)
        ]
        self._threads = [fetcher, *workers]
        for t in self._threads:
            t.start()
        if self._config.telemetry_interval is not None:
            sink = getattr(self._eqsql.store, "telemetry", None)
            if sink is None:
                # In-process stores have no service to push to; the
                # config is tolerated so one PoolConfig can serve both
                # local tests and remote deployments.
                log_event(
                    _log, "pool.telemetry_unavailable", level=30,
                    pool=self.name,
                )
            else:
                self._pusher = TelemetryPusher(
                    worker_id=self.name,
                    role="pool",
                    sink=sink,
                    interval=self._config.telemetry_interval,
                    envelope_fn=self._telemetry_envelope,
                    clock=self._eqsql.clock,
                ).start()
        if self._config.lease_duration is not None:
            self._heartbeat = threading.Thread(
                target=self._heartbeat_loop,
                name=f"{self.name}-heartbeat",
                daemon=True,
            )
            self._heartbeat.start()
        return self

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the pool.

        ``drain=True`` lets owned tasks finish (EQ_STOP semantics);
        ``drain=False`` abandons queued local work (EQ_ABORT semantics —
        abandoned tasks stay RUNNING in the DB; if they were claimed
        under a lease the reaper requeues them automatically, otherwise
        manual ``recover_pool`` is required).
        """
        self._stop_fetching.set()
        if not drain:
            self._abort.set()
        with self._owned_cond:
            self._owned_cond.notify_all()  # a fetcher waiting for a deficit
        # A fetcher blocked in a long-poll returns empty at once, and
        # its stop flag then ends the fetch.
        self._eqsql.store.wake_waiters()
        self.join(timeout)

    def join(self, timeout: float = 30.0) -> None:
        """Wait for the pool's threads to exit."""
        for t in self._threads:
            t.join(timeout)
        # The heartbeat outlives the fetcher so leases stay fresh while
        # owned tasks drain; it only stops once the workers are done (or
        # on abort, where renewing would keep abandoned tasks from the
        # reaper).
        self._stop_heartbeat.set()
        if self._heartbeat is not None:
            self._heartbeat.join(timeout)
            self._heartbeat = None
        if self._pusher is not None:
            # Stop pushes a parting beat so the fleet registry sees the
            # final counters before this pool disappears.
            self._pusher.stop()
            self._pusher = None

    def is_alive(self) -> bool:
        return any(t.is_alive() for t in self._threads)

    # -- fetcher -----------------------------------------------------------------

    def _fetch_loop(self) -> None:
        config = self._config
        clock = self._eqsql.clock
        tracer = self.tracer
        while True:
            # Refill is event-driven: wait for the deficit a settling
            # flush opens rather than sleeping poll_delay, which would
            # cap an oversubscribed pool at batch_size / poll_delay —
            # and for the role, which a flush's refill may hold.
            with self._owned_cond:
                self._owned_cond.wait_for(
                    lambda: self._stop_fetching.is_set()
                    or (not self._fetching and self._policy.to_fetch(self._owned))
                )
                if self._stop_fetching.is_set():
                    break
                self._fetching = True
                want = self._policy.to_fetch(self._owned)
            t0 = clock.now() if tracer.enabled else 0.0
            try:
                # query_task_batch's claim, plus the stop flag: an empty
                # queue is waited out in the store, which stop() wakes,
                # and the flag then ends the fetch instead of a re-issued
                # wait running on to FETCH_WAIT.
                messages = self._eqsql._pop_tasks(
                    "eqsql.query_task_batch", config.work_type, want,
                    worker_pool=config.name, delay=config.poll_delay,
                    timeout=FETCH_WAIT, lease=config.lease_duration,
                    stop=self._stop_fetching.is_set, want=want,
                ) or []
            except (ReproError, OSError) as exc:
                # A lost connection must not kill the fetcher: tasks
                # popped server-side but never received are leased, so
                # the reaper requeues them; we just poll again.
                self._release_fetch()
                self._m_fetch_errors.inc()
                log_event(
                    _log, "pool.fetch_error", level=30,
                    pool=self.name, error=str(exc),
                )
                clock.sleep(config.poll_delay)
                continue
            try:
                self._admit(messages, t0)
            finally:
                self._release_fetch()
        # Drain: wait for owned tasks to be reported (which empties the
        # pending buffer too) and for a refill in flight to land, then
        # release workers.
        with self._owned_cond:
            self._owned_cond.wait_for(
                lambda: (not self._owned and not self._fetching)
                or self._abort.is_set()
            )
        for _ in range(config.n_workers):
            self._local.put(None)

    def _release_fetch(self) -> None:
        """Give up the fetch role, waking a fetcher waiting for it."""
        with self._owned_cond:
            self._fetching = False
            self._owned_cond.notify_all()

    def _admit(self, messages: list[dict[str, Any]], t0: float) -> None:
        """Take claimed tasks into the pool — the fetcher's fetch or a
        flush's refill, by whoever holds the fetch role.

        Records the ``pool.fetch`` span (from ``t0``) and the ``fetch``
        journal hop, handles the ``EQ_STOP``/``EQ_ABORT`` sentinels, and
        queues the rest for the workers as owned tasks.
        """
        if not messages:
            return
        config = self._config
        tracer = self.tracer
        fetched_at = self._eqsql.clock.now()
        self._m_fetch_size.observe(len(messages))
        if tracer.enabled:
            tracer.add_span(
                "pool.fetch",
                "pool",
                t0,
                fetched_at,
                attrs={"pool": self.name, "n": len(messages)},
            )
        for message in messages:
            message["_fetched_at"] = fetched_at
        journal = self._jrnl()
        if journal.enabled:
            for message in messages:
                journal.emit(
                    EV_FETCH,
                    message["eq_task_id"],
                    role=ROLE_POOL,
                    work_type=config.work_type,
                    trace_id=self._msg_trace_id(message),
                    source=self.name,
                    time=fetched_at,
                )
        for message in messages:
            if message["payload"] in (EQ_STOP, EQ_ABORT):
                # Report the sentinel so the submitter's future
                # resolves, then begin shutdown.
                try:
                    self._eqsql.report_task(
                        message["eq_task_id"], config.work_type, message["payload"]
                    )
                except (ReproError, OSError):
                    pass  # shutdown proceeds; the lease reaper requeues it
                self._stop_fetching.set()
                if message["payload"] == EQ_ABORT:
                    self._abort.set()
                continue
            with self._owned_cond:
                self._owned += 1
                self._owned_ids.add(message["eq_task_id"])
            self._local.put(message)

    # -- lease heartbeat ----------------------------------------------------------

    def _heartbeat_loop(self) -> None:
        interval = self._config.heartbeat_interval
        assert interval is not None
        while not self._stop_heartbeat.wait(interval):
            if self._abort.is_set():
                # Abandoned tasks must NOT be kept alive: stop renewing
                # so their leases lapse and the reaper requeues them.
                return
            self.renew_leases()

    def renew_leases(self) -> int:
        """Renew the leases of every currently owned task (one heartbeat).

        Runs on the heartbeat thread in live pools; tests drive it
        directly under a :class:`~repro.util.clock.VirtualClock`.
        Returns the number of leases renewed.  Connection faults are
        absorbed (the client already retried — renewal is idempotent):
        missing one beat is survivable by design, the lease outlasting
        several intervals.
        """
        lease = self._config.lease_duration
        if lease is None:
            return 0
        with self._owned_cond:
            ids = list(self._owned_ids)
        if not ids:
            return 0
        try:
            renewed = self._eqsql.store.renew_leases(
                ids, now=self._eqsql.clock.now(), lease=lease
            )
        except (ReproError, OSError) as exc:
            log_event(
                _log, "pool.heartbeat_error", level=30,
                pool=self.name, error=str(exc),
            )
            return 0
        self._m_lease_renewals.inc(renewed)
        return renewed

    # -- workers --------------------------------------------------------------------

    def _work_loop(self) -> None:
        clock = self._eqsql.clock
        tracer = self.tracer
        while True:
            if self._abort.is_set():
                return
            try:
                message = self._local.get(timeout=0.1)
            except queue.Empty:
                continue
            if message is None:
                return
            eq_task_id = message["eq_task_id"]
            started_at = clock.now()
            fetched_at = message.get("_fetched_at")
            if fetched_at is not None:
                self._m_queue_wait.observe(started_at - fetched_at)
            journal = self._jrnl()
            if journal.enabled:
                journal.emit(
                    EV_RUN_START,
                    eq_task_id,
                    role=ROLE_POOL,
                    work_type=self._config.work_type,
                    trace_id=self._msg_trace_id(message),
                    source=self.name,
                    time=started_at,
                )
            with self._stats_lock:
                self._busy += 1
            try:
                # Hot path: the span machinery (context construction,
                # kwargs, handle) is only paid when tracing is on.
                if tracer.enabled:
                    with tracer.span(
                        "pool.task",
                        component="pool",
                        parent=SpanContext.from_wire(message.get("trace")),
                        eq_task_id=eq_task_id,
                        pool=self.name,
                    ) as sp:
                        self._run_one(message, eq_task_id, started_at, sp)
                else:
                    self._run_one(message, eq_task_id, started_at, None)
            finally:
                with self._stats_lock:
                    self._busy -= 1

    def _run_one(
        self,
        message: dict[str, Any],
        eq_task_id: int,
        started_at: float,
        sp: Any,
    ) -> None:
        """Execute one fetched task and report its result.

        ``sp`` is the open ``pool.task`` span, or None when tracing is
        disabled.
        """
        config = self._config
        clock = self._eqsql.clock
        profiler = self._profiler
        handle: ProfileHandle | None = None
        if profiler is not None:
            handle = profiler.start(eq_task_id, config.work_type)
            with self._profile_lock:
                self._live_handles[eq_task_id] = handle
        try:
            # run() opens the handler span; skip it when untraced.
            if sp is not None:
                result = self._handler.run(message["payload"])
            else:
                result = self._handler.handle(message["payload"])
            failed = False
        except TaskExecutionError as exc:
            result = json_dumps({"error": str(exc)})
            failed = True
            if sp is not None:
                sp.set_attr("failed", True)
        profile_dict: dict[str, Any] | None = None
        if handle is not None:
            profile_dict = handle.finish(failed=failed).to_dict()
            with self._profile_lock:
                self._live_handles.pop(eq_task_id, None)
                self._recent_profiles.append(profile_dict)
        ran_at = clock.now()
        self._m_run.observe(ran_at - started_at)
        journal = self._jrnl()
        if journal.enabled:
            extra: dict[str, Any] | None = {"failed": True} if failed else None
            if profile_dict is not None:
                extra = dict(extra) if extra else {}
                extra["profile"] = profile_dict
            journal.emit(
                EV_RUN_END,
                eq_task_id,
                role=ROLE_POOL,
                work_type=config.work_type,
                trace_id=self._msg_trace_id(message),
                source=self.name,
                time=ran_at,
                extra=extra,
            )
        ctx = sp.context if sp is not None else None
        self._report(_Done(eq_task_id, result, failed, ran_at, profile_dict, ctx))

    # -- reporting ------------------------------------------------------------------

    def _report(self, done: _Done) -> None:
        """Hand one result to the combining reporter — the only report path.

        The result joins the pending buffer.  If a flush is in flight
        its flusher will carry it and this worker goes straight back to
        work; otherwise this worker becomes the flusher and sends what
        is pending, flush after flush, until the buffer is empty.  So a
        lone result leaves at once on its own thread (no linger, no
        hand-off) and results that finish during a round trip share the
        next one.  Ids in the buffer stay owned: the fetch policy counts
        no capacity for them and the heartbeat keeps renewing them.
        """
        with self._report_lock:
            self._pending.append(done)
            if self._flushing:
                return
            self._flushing = True
        while batch := self._next_flush():
            try:
                self._flush(batch)
            except Exception:  # noqa: BLE001 - the flusher must outlive faults
                # A bug below us, not a connection fault (_flush absorbs
                # those, and settled this batch as lost).  Every worker's
                # results queue behind this role: carry on, don't die in it.
                _log.exception("pool.flush_error pool=%s", self.name)

    def _next_flush(self) -> list[_Done]:
        """Take the next flush off the buffer: at least one result, then
        as many as fit ``FLUSH_BYTES``.  An empty buffer ends the
        flusher's turn in the same critical section, so a result
        appended concurrently is either taken here or finds the role
        free.  After an abort the buffer is discarded: those tasks stay
        RUNNING for the lease reaper, like any abandoned work.
        """
        with self._report_lock:
            pending = self._pending
            if self._abort.is_set():
                pending.clear()
            batch: list[_Done] = []
            size = 0
            while pending and (
                not batch or size + len(pending[0].result) <= FLUSH_BYTES
            ):
                size += len(pending[0].result)
                batch.append(pending.popleft())
            if not batch:
                self._flushing = False
            return batch

    def _flush(self, batch: list[_Done]) -> None:
        """Report one flush: with the fetch role free, as one
        ``report_pop`` that also claims the slots it frees; otherwise
        as one ``report_batch`` of any size.

        If that RPC fails the flush degrades to per-item reports, each
        a one-element ``report_batch`` (first-write-wins idempotent, so
        items the broken call may already have applied re-send safely);
        only items whose own report also fails are lost.  A failed
        ``report_pop`` also loses its refill, as a failed fetch does.
        """
        eqsql = self._eqsql
        config = self._config
        work_type = config.work_type
        began = eqsql.clock.now()
        unacked = {done.eq_task_id for done in batch}
        want = self._take_refill(len(batch))
        refill: list[dict[str, Any]] = []
        try:
            reports = [(d.eq_task_id, work_type, d.result) for d in batch]
            profiles = {d.eq_task_id: d.profile for d in batch if d.profile}
            try:
                if want:
                    refill = eqsql.report_and_fetch(
                        reports, work_type, want, worker_pool=config.name,
                        lease=config.lease_duration, profiles=profiles or None,
                    )
                else:
                    eqsql.report_tasks(reports, profiles=profiles or None)
                unacked.clear()
            except (ReproError, OSError) as exc:
                if want:
                    self._m_fetch_errors.inc()
                    log_event(
                        _log, "pool.refill_error", level=30,
                        pool=self.name, error=str(exc),
                    )
                # degrade to the per-item loop below
            if unacked:  # the flush's RPC failed
                for done in batch:
                    try:
                        eqsql.report_task(
                            done.eq_task_id, work_type, done.result,
                            profile=done.profile,
                        )
                        unacked.discard(done.eq_task_id)
                    except (ReproError, OSError) as exc:
                        # The connection died beyond the client's retries and
                        # the result could not be recorded.  The worker must
                        # survive: the task's lease lapses without renewal (it
                        # leaves the owned set in _settle), the reaper requeues
                        # it, and another pool re-executes — the result is
                        # recovered, not lost.
                        self._m_report_errors.inc()
                        log_event(
                            _log, "pool.report_error", level=30, pool=self.name,
                            eq_task_id=done.eq_task_id, error=str(exc),
                        )
        finally:
            # Also on an unexpected exception: whatever was not
            # acknowledged settles as lost (its lease lapses), so the
            # drain cannot wait forever on results nobody will send.
            # Settle before admitting, so the owned count never holds
            # the flush and its refill at once.
            try:
                self._settle(batch, unacked, began)
                self._admit(refill, began)
            finally:
                if want:
                    self._release_fetch()

    def _take_refill(self, flushing: int) -> int:
        """Tasks a flush of ``flushing`` results should claim: the
        policy's deficit once they settle, if the fetch role is free —
        it is then taken, and ``_flush`` releases it.  0 (role left
        alone) while another claim is in flight, the deficit is under
        the threshold, or the pool is stopping.
        """
        with self._owned_cond:
            if self._fetching or self._stop_fetching.is_set():
                return 0
            want = self._policy.to_fetch(self._owned - flushing)
            self._fetching = want > 0
            return want

    def _settle(self, batch: list[_Done], lost: set[int], began: float) -> None:
        """Book-keeping once a flush's reports are acknowledged (or lost).

        The owned count must only drop here, after the report, because
        it drives the fetch policy — once per flush, under one lock
        acquisition, waking the fetcher.  The journal's report hop and
        the ``pool.report`` span carry ``began`` — the time the flush
        started — not the time it was acknowledged: the store write
        wakes the ME's long-poll before the ack returns, so an ack-time
        stamp could sort this hop after the collect it caused.
        """
        now = self._eqsql.clock.now()
        tracer = self.tracer
        journal = self._jrnl()
        n_lost = n_failed = 0
        for done in batch:
            eq_task_id = done.eq_task_id
            is_lost = eq_task_id in lost
            n_lost += is_lost
            if not is_lost:
                self._m_report.observe(now - done.ran_at)
                n_failed += done.failed
            if done.ctx is not None:
                # Explicit parent: the flusher may be another worker.
                tracer.add_span(
                    "pool.report", "pool", began, now, parent=done.ctx,
                    attrs={"eq_task_id": eq_task_id, "n": len(batch)},
                )
            if journal.enabled:
                journal.emit(
                    EV_REPORT, eq_task_id, role=ROLE_POOL,
                    work_type=self._config.work_type, source=self.name,
                    time=began, extra={"lost": True} if is_lost else None,
                )
        with self._owned_cond:
            self._owned -= len(batch)
            self._owned_ids.difference_update(done.eq_task_id for done in batch)
            self._owned_cond.notify_all()
        n_completed = len(batch) - n_lost - n_failed
        with self._stats_lock:
            self.reports_lost += n_lost
            self.tasks_failed += n_failed
            self.tasks_completed += n_completed
        self._m_failed.inc(n_failed)
        self._m_completed.inc(n_completed)

    # -- context manager ----------------------------------------------------------------

    def __enter__(self) -> "ThreadedWorkerPool":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
