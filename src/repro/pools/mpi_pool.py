"""Swift/T-style MPI worker pool over mpilite.

The paper's canonical pool "distributes work among previously launched
workers using MPI messages".  Here rank 0 plays the Swift/T engine: it
queries the EMEWS DB with the batch/threshold policy, sends tasks to
idle worker ranks, receives results, and reports them to the DB.  Ranks
1..N-1 are workers: receive a task, run the handler, send the result
back.  With ``size`` ranks the pool has ``size - 1`` workers.

The driver returns per-pool statistics from rank 0, and stops when it
pops an ``EQ_STOP`` sentinel task (reporting the sentinel so the
submitter's future resolves), mirroring the threaded pool's shutdown
convention.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.constants import EQ_ABORT, EQ_STOP
from repro.core.eqsql import EQSQL
from repro.mpilite import ANY_SOURCE, Communicator, Status, mpi_run
from repro.pools.config import FETCH_WAIT, PoolConfig
from repro.pools.handlers import TaskExecutionError, TaskHandler
from repro.telemetry.journal import (
    EV_FETCH,
    EV_REPORT,
    EV_RUN_END,
    EV_RUN_START,
    ROLE_POOL,
    get_journal,
)
from repro.telemetry.profiling import TaskProfiler
from repro.telemetry.tracing import Span, SpanContext, get_tracer
from repro.util.errors import TimeoutError_
from repro.util.serialization import json_dumps

_TAG_TASK = 1
_TAG_RESULT = 2
_TAG_SHUTDOWN = 3


@dataclass
class MpiPoolStats:
    """Rank-0 summary of one pool run."""

    tasks_completed: int = 0
    tasks_failed: int = 0


def _worker_rank(
    comm: Communicator, handler: TaskHandler, config: PoolConfig
) -> None:
    """Ranks 1..N-1: execute tasks until shutdown."""
    status = Status(-1, -1)
    tracer = get_tracer()
    profiler = (
        TaskProfiler(memory=config.profile_memory)
        if config.profile_tasks
        else None
    )
    while True:
        message = comm.recv(source=0, timeout=None, status=status)
        if status.tag == _TAG_SHUTDOWN:
            return
        eq_task_id, payload, trace_wire = message
        handle = (
            profiler.start(eq_task_id, config.work_type)
            if profiler is not None
            else None
        )
        # The engine forwards the task's span context inside the MPI
        # message, so worker-rank execution parents under it even
        # though ranks run on their own threads.  The span machinery is
        # only paid when tracing is on (this is the per-task hot path).
        if tracer.enabled:
            with tracer.span(
                "pool.worker",
                component="pool",
                parent=SpanContext.from_wire(trace_wire),
                eq_task_id=eq_task_id,
                rank=comm.rank,
            ) as sp:
                try:
                    result = handler.run(payload)
                    failed = False
                except TaskExecutionError as exc:
                    result = json_dumps({"error": str(exc)})
                    failed = True
                    sp.set_attr("failed", True)
        else:
            try:
                result = handler.handle(payload)
                failed = False
            except TaskExecutionError as exc:
                result = json_dumps({"error": str(exc)})
                failed = True
        profile = handle.finish(failed=failed).to_dict() if handle else None
        # The result message grew a 4th element for the profile; the
        # engine unpacks positionally, so both sides move together.
        comm.send((eq_task_id, result, failed, profile), dest=0, tag=_TAG_RESULT)


def _engine_rank(
    comm: Communicator,
    eqsql: EQSQL,
    config: PoolConfig,
) -> MpiPoolStats:
    """Rank 0: fetch, distribute, collect, report.

    The engine is the pool's one journal emitter, so the pool-role hops
    carry its view of a task: ``run_start`` is the dispatch to a worker
    rank, ``run_end`` the receipt of that rank's result.
    """
    stats = MpiPoolStats()
    policy = config.policy()
    clock = eqsql.clock
    tracer = get_tracer()
    journal = get_journal()
    idle = list(range(1, comm.size))
    busy: dict[int, int] = {}  # worker rank -> eq_task_id
    # Fetched but no idle worker: (eq_task_id, payload, trace wire form).
    backlog: list[tuple[int, str, list[str] | None]] = []
    # Open dispatch spans, eq_task_id -> Span (ends at result receive).
    dispatch_spans: dict[int, Span] = {}
    stopping = False
    status = Status(-1, -1)

    def emit(event, eq_task_id, at, trace_wire=None, extra=None) -> None:
        """One pool-role journal hop; callers guard on ``journal.enabled``."""
        journal.emit(
            event,
            eq_task_id,
            role=ROLE_POOL,
            work_type=config.work_type,
            trace_id=trace_wire[0] if trace_wire else "",
            source=config.name,
            time=at,
            extra=extra,
        )

    while True:
        owned = len(busy) + len(backlog)
        # Fetch when the policy says to and we are not stopping.
        if not stopping:
            want = policy.to_fetch(owned)
            if want > 0:
                t0 = clock.now() if tracer.enabled else 0.0
                # Busy ranks: probe, then collect a result below.  Idle:
                # long-poll, so a submission is dispatched on arrival.
                messages = eqsql.query_task_batch(
                    config.work_type,
                    batch_size=config.batch_size or config.n_workers,
                    threshold=config.threshold,
                    owned=owned,
                    worker_pool=config.name,
                    delay=config.poll_delay,
                    timeout=0 if busy else FETCH_WAIT,
                )
                if messages and tracer.enabled:
                    tracer.add_span(
                        "pool.fetch",
                        "pool",
                        t0,
                        clock.now(),
                        attrs={"pool": config.name, "n": len(messages)},
                    )
                if messages and journal.enabled:
                    fetched_at = clock.now()
                    for message in messages:
                        emit(
                            EV_FETCH,
                            message["eq_task_id"],
                            fetched_at,
                            message.get("trace"),
                        )
                for message in messages:
                    if message["payload"] in (EQ_STOP, EQ_ABORT):
                        eqsql.report_task(
                            message["eq_task_id"], config.work_type, message["payload"]
                        )
                        stopping = True
                    else:
                        backlog.append(
                            (
                                message["eq_task_id"],
                                message["payload"],
                                message.get("trace"),
                            )
                        )

        # Dispatch backlog to idle workers.
        while backlog and idle:
            worker = idle.pop()
            eq_task_id, payload, trace_wire = backlog.pop(0)
            busy[worker] = eq_task_id
            if journal.enabled:
                emit(EV_RUN_START, eq_task_id, clock.now(), trace_wire)
            if tracer.enabled:
                span = tracer.start_span(
                    "pool.task",
                    component="pool",
                    parent=SpanContext.from_wire(trace_wire),
                    eq_task_id=eq_task_id,
                    pool=config.name,
                    rank=worker,
                )
                if span is not None:
                    dispatch_spans[eq_task_id] = span
                    trace_wire = span.context.to_wire()
            comm.send((eq_task_id, payload, trace_wire), dest=worker, tag=_TAG_TASK)

        # Collect one result if any worker is busy.  The receive has a
        # short timeout so the engine keeps refetching (and can keep an
        # oversubscribed backlog warm) while workers run.
        if busy:
            try:
                eq_task_id, result, failed, profile = comm.recv(
                    source=ANY_SOURCE,
                    tag=_TAG_RESULT,
                    timeout=config.poll_delay,
                    status=status,
                )
            except TimeoutError_:
                continue
            worker = status.source
            del busy[worker]
            idle.append(worker)
            if journal.enabled:
                # Both hops carry the receipt time: the report is stamped
                # before the store write, which wakes the ME's collect.
                received_at = clock.now()
                emit(
                    EV_RUN_END,
                    eq_task_id,
                    received_at,
                    extra={"failed": True} if failed else None,
                )
                emit(EV_REPORT, eq_task_id, received_at)
            eqsql.report_task(
                eq_task_id, config.work_type, result, profile=profile
            )
            if dispatch_spans:
                span = dispatch_spans.pop(eq_task_id, None)
                if span is not None:
                    if failed:
                        span.set_attr("failed", True)
                    tracer.end_span(span)
            if failed:
                stats.tasks_failed += 1
            else:
                stats.tasks_completed += 1
        elif stopping and not backlog:
            break

    for worker in range(1, comm.size):
        comm.send(None, dest=worker, tag=_TAG_SHUTDOWN)
    return stats


def run_mpi_pool(
    eqsql: EQSQL,
    handler: TaskHandler,
    config: PoolConfig,
    timeout: float = 300.0,
) -> MpiPoolStats:
    """Run a Swift/T-style pool across ``config.n_workers + 1`` ranks.

    Blocks until the pool pops an EQ_STOP sentinel and drains; returns
    rank 0's statistics.
    """
    size = config.n_workers + 1

    def program(comm: Communicator):
        if comm.rank == 0:
            return _engine_rank(comm, eqsql, config)
        _worker_rank(comm, handler, config)
        return None

    results = mpi_run(size, program, timeout=timeout)
    stats = results[0]
    assert isinstance(stats, MpiPoolStats)
    return stats
