"""The asynchronous ME driver — Fig 2's pseudocode as a reusable loop.

    for each initial sample: submit the sample for evaluation
    while stopping condition not reached:
        wait for n evaluation results
        re-sample, reorder, re-submit based on results

:func:`run_async_optimization` implements the §VI instantiation: submit
all points, then after every ``batch_completed`` completions retrain /
reorder the remaining queue via a pluggable reprioritizer (local GPR, or
a fabric-wrapped remote one).  It drives real worker pools through the
blocking futures API; the discrete-event variant lives in
:mod:`repro.sim`.
"""

from __future__ import annotations

from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.core.eqsql import EQSQL
from repro.core.futures import Future, as_completed, update_priority
from repro.telemetry.journal import EV_COLLECT, EV_SUBMIT, ROLE_ME, get_journal
from repro.telemetry.metrics import get_metrics
from repro.telemetry.tracing import get_tracer
from repro.util.serialization import json_dumps, json_loads

#: (X_done, y_done, X_remaining) -> integer priorities for X_remaining.
Reprioritizer = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


@dataclass
class ReprioritizationRecord:
    """One reorder step: when it ran and what it touched."""

    time_start: float
    time_stop: float
    n_completed: int
    n_reprioritized: int

    @property
    def duration(self) -> float:
        return self.time_stop - self.time_start


@dataclass
class AsyncOptimizationResult:
    """Outcome of one asynchronous optimization run."""

    X: np.ndarray  # evaluated points, completion order
    y: np.ndarray  # objective values, completion order
    reprioritizations: list[ReprioritizationRecord] = field(default_factory=list)

    @property
    def best_y(self) -> float:
        return float(np.min(self.y))

    @property
    def best_x(self) -> np.ndarray:
        return self.X[int(np.argmin(self.y))]

    def best_trajectory(self) -> np.ndarray:
        """Best objective value after each completion (running min)."""
        return np.minimum.accumulate(self.y)


def decode_result(result: str) -> float:
    """Objective value from a task result payload.

    Accepts the conventional ``{"y": value}`` dict or a bare JSON
    number; raises for failure payloads (``{"error": ...}``).
    """
    value = json_loads(result)
    if isinstance(value, dict):
        if "error" in value:
            raise ValueError(f"task failed: {value['error']}")
        value = value["y"]
    return float(value)


@contextmanager
def _stopping(pusher):
    """Stop a telemetry pusher when the driver loop exits, even on
    error — a leaked heartbeat would keep a dead ME looking live."""
    try:
        yield
    finally:
        if pusher is not None:
            pusher.stop()


def run_async_optimization(
    eqsql: EQSQL,
    exp_id: str,
    work_type: int,
    points: np.ndarray,
    reprioritizer: Reprioritizer | None = None,
    batch_completed: int = 50,
    delay: float = 0.01,
    timeout: float | None = 120.0,
    telemetry_interval: float | None = None,
) -> AsyncOptimizationResult:
    """Submit ``points`` and drive completions to exhaustion.

    After every ``batch_completed`` results the ``reprioritizer`` (if
    given) recomputes priorities for the still-queued tasks — exactly
    the paper's loop, where "the reprioritization repeats for every new
    50 completed tasks".  ``timeout`` bounds each wait for the next
    batch (worker pools must be running).

    ``telemetry_interval`` (seconds) turns on fleet push telemetry:
    the driver heartbeats progress envelopes (role ``me``, worker id
    ``exp_id``) to the service's ``telemetry`` RPC so ``repro fleet``
    shows the ME alongside the pools.  Ignored against an in-process
    store, which has no service to push to.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    payloads = [json_dumps({"x": list(map(float, p))}) for p in points]
    tracer = get_tracer()
    # Live progress gauges: the monitor's ME-driver view.  Gauge writes
    # are two locked floats per batch — negligible next to the DB round
    # trips in the same loop.
    registry = get_metrics()
    g_total = registry.gauge("me.points_total", "points submitted by the driver")
    g_done = registry.gauge("me.points_completed", "points whose result arrived")
    g_pending = registry.gauge("me.points_pending", "points still queued or running")
    m_repri = registry.counter("me.reprioritizations", "GPR reorder passes applied")
    # The run span is the root of the whole trace: submissions open
    # inside it, so task payloads carry its trace id end to end.
    run_span = tracer.span(
        "driver.run", component="driver", exp_id=exp_id, n_points=len(points)
    )
    journal = get_journal()
    pusher = None
    if telemetry_interval is not None:
        sink = getattr(eqsql.store, "telemetry", None)
        if sink is not None:
            from repro.telemetry.fleet import TelemetryPusher

            pusher = TelemetryPusher(
                worker_id=exp_id,
                role="me",
                sink=sink,
                interval=telemetry_interval,
                envelope_fn=lambda: {
                    "n_workers": 1,
                    "busy_fraction": 1.0 if g_pending.value else 0.0,
                    "owned": int(g_pending.value),
                    "tasks_completed": int(g_done.value),
                },
                clock=eqsql.clock,
            ).start()
    with _stopping(pusher), run_span:
        run_ctx = tracer.current_context()
        run_trace_id = run_ctx.trace_id if run_ctx is not None else ""
        # Stamp before the submit RPC so the record sorts ahead of the
        # DB's enqueue under a shared clock (ids are known only after).
        submitted_at = eqsql.clock.now()
        futures = eqsql.submit_tasks(exp_id, work_type, payloads)
        point_of = {f.eq_task_id: i for i, f in enumerate(futures)}
        if journal.enabled:
            for future in futures:
                journal.emit(
                    EV_SUBMIT, future.eq_task_id, role=ROLE_ME,
                    work_type=work_type, trace_id=run_trace_id,
                    source=exp_id, time=submitted_at,
                )

        pending: list[Future] = list(futures)
        g_total.set(len(futures))
        g_done.set(0)
        g_pending.set(len(pending))
        done_X: list[np.ndarray] = []
        done_y: list[float] = []
        records: list[ReprioritizationRecord] = []

        while pending:
            want = min(batch_completed, len(pending))
            with tracer.span("driver.wait_batch", component="driver", want=want):
                for future in as_completed(
                    pending, pop=True, n=want, delay=delay, timeout=timeout
                ):
                    _, result = future.result(timeout=0)
                    done_X.append(points[point_of[future.eq_task_id]])
                    done_y.append(decode_result(result))
                    if journal.enabled:
                        journal.emit(
                            EV_COLLECT, future.eq_task_id, role=ROLE_ME,
                            work_type=work_type, trace_id=run_trace_id,
                            source=exp_id, time=eqsql.clock.now(),
                        )
            g_done.set(len(done_y))
            g_pending.set(len(pending))
            if reprioritizer is not None and pending:
                t0 = eqsql.clock.now()
                with tracer.span(
                    "driver.reprioritize",
                    component="driver",
                    n_completed=len(done_y),
                ) as sp:
                    X_remaining = np.array(
                        [points[point_of[f.eq_task_id]] for f in pending]
                    )
                    priorities = reprioritizer(
                        np.array(done_X), np.array(done_y), X_remaining
                    )
                    n_updated = update_priority(pending, [int(p) for p in priorities])
                    sp.set_attr("n_reprioritized", n_updated)
                m_repri.inc()
                t1 = eqsql.clock.now()
                records.append(
                    ReprioritizationRecord(
                        time_start=t0,
                        time_stop=t1,
                        n_completed=len(done_y),
                        n_reprioritized=n_updated,
                    )
                )

    return AsyncOptimizationResult(
        X=np.array(done_X),
        y=np.array(done_y),
        reprioritizations=records,
    )
