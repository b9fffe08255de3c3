"""Benchmark-owned tracing: wrappers around each layer's public calls.

Nothing under ``src/`` is instrumented.  A traced run places a
:class:`TimedStore` proxy (a) around the driver's ``RemoteTaskStore``,
(b) around the pool's ``RemoteTaskStore`` and (c) between ``TaskService``
and ``SqliteTaskStore``, and a :class:`TimedHandler` around the pool's
handler; the driver adds spans around its own ``EQSQL``/futures calls.
Each process keeps its spans in memory and writes them as JSONL when it
exits; :func:`reduce_layers` joins the three files into the per-layer
metrics and the per-stage waterfall.

A span is ``(name, t0, t1, thread, ids)``: ``name`` is ``<layer>.<call>``
with the layer named after the module the call enters, times are
``time.perf_counter()`` (CLOCK_MONOTONIC on Linux, so comparable across
the three processes of one host), and ``ids`` are the task ids the call
carried or returned — the key that correlates one task across processes.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_right
from collections import defaultdict
from time import perf_counter
from typing import Any

from estimators import median, quantile

Span = tuple[str, float, float, int, list[int] | None]

#: Waterfall stages in causal order; their per-task durations telescope
#: to exactly (handed to the ME - submit call start).
STAGES = (
    "submit_to_enqueue",
    "service.queue_wait",
    "pool.local_wait",
    "handlers.run",
    "pool.report_lag",
    "service_client.report",
    "eqsql.collect_lag",
)


class Recorder:
    """One process's span list (``list.append`` is atomic under the GIL)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []

    def add(self, name: str, t0: float, t1: float, ids: list[int] | None = None) -> None:
        self.spans.append((name, t0, t1, threading.get_ident(), ids))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span))
                out.write("\n")


def load_spans(path: str) -> list[Span]:
    with open(path, encoding="utf-8") as src:
        return [tuple(json.loads(line)) for line in src]  # type: ignore[misc]


def _task_ids(method: str, args: tuple, kwargs: dict, result: Any) -> list[int] | None:
    """Task ids a store call carried (writes) or returned (creates, pops)."""
    if method == "create_task":
        return [result]
    if method == "create_tasks":
        return list(result)
    if method in ("pop_out", "pop_in_any"):
        return [tid for tid, _payload in result]
    if method in ("report", "pop_in"):
        tid = args[0] if args else kwargs["eq_task_id"]
        return None if method == "pop_in" and result is None else [tid]
    if method == "report_batch":
        reports = args[0] if args else kwargs["reports"]
        return [r[0] for r in reports]
    return None


class TimedStore:
    """Duck-typed store proxy that times every public method call.

    Attributes, return values and exceptions pass through unchanged
    (``supports_wait`` included, so long-polling stays on).  A pop that
    returns nothing is recorded with ``ids == []`` — an *empty* call,
    which the reducers count separately from useful ones.
    """

    def __init__(self, inner: Any, recorder: Recorder, layer: str) -> None:
        self._inner = inner
        self._recorder = recorder
        self._layer = layer

    def __getattr__(self, name: str) -> Any:
        attr = getattr(self._inner, name)
        if name.startswith("_") or not callable(attr):
            return attr
        add = self._recorder.add
        span_name = f"{self._layer}.{name}"

        def timed(*args: Any, **kwargs: Any) -> Any:
            t0 = perf_counter()
            try:
                result = attr(*args, **kwargs)
            except BaseException:
                add(span_name + "!error", t0, perf_counter())
                raise
            t1 = perf_counter()
            add(span_name, t0, t1, _task_ids(name, args, kwargs, result))
            return result

        # Cache the wrapper so later lookups skip __getattr__.
        self.__dict__[name] = timed
        return timed


class TimedHandler:
    """Times ``TaskHandler.handle`` — the handler wall a worker sees.

    The pool gives a handler the payload but not the task id; the span
    is tied to its task by the ``report`` call that follows it on the
    same worker thread (see :func:`_handler_spans_by_task`).
    """

    def __init__(self, inner: Any, recorder: Recorder) -> None:
        self._inner = inner
        self._add = recorder.add

    def handle(self, payload: str) -> str:
        t0 = perf_counter()
        try:
            return self._inner.handle(payload)
        finally:
            self._add("handlers.run", t0, perf_counter())


# -- reduction ---------------------------------------------------------------


class _Windows:
    """The counted rounds' ``[t0, t1]`` intervals (disjoint, ascending)."""

    def __init__(self, windows: list[tuple[float, float]]) -> None:
        self._starts = [w[0] for w in windows]
        self._ends = [w[1] for w in windows]
        self.wall = sum(w[1] - w[0] for w in windows)

    def holds(self, t: float) -> bool:
        i = bisect_right(self._starts, t) - 1
        return i >= 0 and t <= self._ends[i]


def _by_name(spans: list[Span], windows: _Windows) -> dict[str, list[Span]]:
    """Spans that *ended* inside a counted round, grouped by name."""
    grouped: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        if windows.holds(span[2]):
            grouped[span[0]].append(span)
    return grouped


def _per_task(spans: list[Span], *names: str) -> dict[int, Span]:
    """task id -> the span (of any of ``names``) that carried it."""
    found: dict[int, Span] = {}
    for span in spans:
        if span[0] in names and span[4]:
            for tid in span[4]:
                found[tid] = span
    return found


def _handler_spans_by_task(pool_spans: list[Span]) -> dict[int, tuple[Span, Span]]:
    """task id -> (handler span, report span), paired per worker thread.

    A worker strictly alternates ``handle`` and ``report``, so on each
    thread the k-th handler span belongs to the k-th report.
    """
    runs: dict[int, list[Span]] = defaultdict(list)
    reports: dict[int, list[Span]] = defaultdict(list)
    for span in pool_spans:
        if span[0] == "handlers.run":
            runs[span[3]].append(span)
        elif span[0] == "service_client.report":
            reports[span[3]].append(span)
    paired: dict[int, tuple[Span, Span]] = {}
    for thread, thread_runs in runs.items():
        for run, report in zip(thread_runs, reports.get(thread, [])):
            paired[report[4][0]] = (run, report)  # type: ignore[index]
    return paired


def _wall(spans: list[Span]) -> list[float]:
    return [s[2] - s[1] for s in spans]


def _busy_wall(span: Span, ready_at: dict[int, float]) -> float:
    """Wall of a non-empty pop minus the part it spent long-polling.

    A pop that found the queue empty blocks inside the store until a
    write makes one of its tasks ready; that idle wait is not work.  If
    every returned task became ready after the call started, the call
    worked only from the first of those moments on.
    """
    t0 = span[1]
    woke = min((ready_at.get(tid, t0) for tid in span[4] or ()), default=t0)
    return span[2] - max(t0, woke)


def reduce_layers(
    driver: list[Span],
    pool: list[Span],
    service: list[Span],
    rounds: list[tuple[float, float]],
    n_workers: int,
) -> tuple[dict[str, float], dict[str, float]]:
    """Join the three processes' spans into per-layer metrics.

    Returns ``(metrics, stage_medians_ms)``; process-level numbers (CPU,
    RSS, db size, inline kernel, canary, overhead) are added by the
    driver, which owns those measurements.
    """
    windows = _Windows(rounds)
    wall = windows.wall
    d = _by_name(driver, windows)
    p = _by_name(pool, windows)
    s = _by_name(service, windows)

    submits = d["eqsql.submit"]
    tasks = {tid for span in submits for tid in span[4] or ()}
    n = max(len(tasks), 1)

    enqueued = _per_task(service, "sqlite_backend.create_task", "sqlite_backend.create_tasks")
    fetched = _per_task(pool, "service_client.pop_out")
    reported = _per_task(service, "sqlite_backend.report")
    handed = _per_task(driver, "eqsql.handed")
    submitted = _per_task(driver, "eqsql.submit")
    ran = _handler_spans_by_task(pool)

    stages: dict[str, list[float]] = {name: [] for name in STAGES}
    turnaround: list[float] = []
    for tid in tasks:
        if not (tid in enqueued and tid in fetched and tid in ran and tid in handed):
            continue
        run, report = ran[tid]
        marks = (
            submitted[tid][1],
            enqueued[tid][2],
            fetched[tid][2],
            run[1],
            run[2],
            report[1],
            report[2],
            handed[tid][2],
        )
        for name, a, b in zip(STAGES, marks, marks[1:]):
            stages[name].append(b - a)
        turnaround.append(marks[-1] - marks[0])

    client_create = d["service_client.create_task"] + d["service_client.create_tasks"]
    store_create = s["sqlite_backend.create_task"] + s["sqlite_backend.create_tasks"]
    client_report = p["service_client.report"]
    store_report = s["sqlite_backend.report"]
    pops_out = p["service_client.pop_out"]
    pops_in = d["service_client.pop_in_any"]
    useful_out = [x for x in pops_out if x[4]]
    useful_in = [x for x in pops_in if x[4]]
    fetch_starts = sorted(x[1] for x in pops_out)
    runs = p["handlers.run"]

    enq_at = {tid: span[2] for tid, span in enqueued.items()}
    rep_at = {tid: span[2] for tid, span in reported.items()}
    pop_names = ("sqlite_backend.pop_out", "sqlite_backend.pop_in_any")
    store_pop_out = [_busy_wall(x, enq_at) for x in s[pop_names[0]] if x[4]]
    store_pop_in = [_busy_wall(x, rep_at) for x in s[pop_names[1]] if x[4]]
    store_busy = sum(store_pop_out) + sum(store_pop_in) + sum(
        sum(_wall(spans)) for name, spans in s.items()
        if name not in pop_names and not name.endswith("!error")
    )

    def per(numer: float, denom: float) -> float:
        return numer / denom if denom else 0.0

    client_calls = sum(
        len(spans) for grouped in (d, p) for name, spans in grouped.items()
        if name.startswith("service_client.")
    )
    report_p50 = median(_wall(client_report))
    store_report_p50 = median(_wall(store_report))
    ms, us = 1e3, 1e6
    metrics = {
        "eqsql.submit_us_per_task": sum(_wall(submits)) / n * us,
        "eqsql.collect_lag_ms_p50": median(stages["eqsql.collect_lag"]) * ms,
        "eqsql.update_priorities_ms_p50": median(_wall(d["eqsql.update_priority"])) * ms,
        "service_client.rpcs_per_task": client_calls / n,
        "service_client.create_tasks_ms_p50": median(_wall(client_create)) * ms,
        "service_client.report_ms_p50": report_p50 * ms,
        "service_client.report_busy_frac": per(sum(_wall(client_report)), n_workers * wall),
        "service_client.pop_out_tasks_per_call": per(
            sum(len(x[4]) for x in useful_out), len(useful_out)
        ),
        "service_client.pop_out_calls_per_task": len(pops_out) / n,
        "service_client.pop_out_empty_frac": per(len(pops_out) - len(useful_out), len(pops_out)),
        "service_client.pop_in_any_results_per_call": per(
            sum(len(x[4]) for x in useful_in), len(useful_in)
        ),
        "service_client.pop_in_any_calls_per_task": len(pops_in) / n,
        "service.report_overhead_us_p50": (report_p50 - store_report_p50) * us,
        "service.create_overhead_us_per_task": (
            (sum(_wall(client_create)) - sum(_wall(store_create))) / n * us
        ),
        "service.queue_wait_ms_p50": median(stages["service.queue_wait"]) * ms,
        "sqlite_backend.create_tasks_us_per_task": sum(_wall(store_create)) / n * us,
        "sqlite_backend.report_us_p50": store_report_p50 * us,
        "sqlite_backend.pop_out_ms_p50": median(store_pop_out) * ms,
        "sqlite_backend.pop_in_any_ms_p50": median(store_pop_in) * ms,
        "sqlite_backend.update_priorities_ms_p50": (
            median(_wall(s["sqlite_backend.update_priorities"])) * ms
        ),
        "sqlite_backend.busy_frac": per(store_busy, wall),
        "pool.local_wait_ms_p50": median(stages["pool.local_wait"]) * ms,
        "pool.report_lag_us_p50": median(stages["pool.report_lag"]) * us,
        "pool.fetch_interval_ms_p50": (
            median([b - a for a, b in zip(fetch_starts, fetch_starts[1:])]) * ms
        ),
        "pool.worker_busy_frac": per(sum(_wall(runs)), n_workers * wall),
        "handlers.run_ms_p50": median(_wall(runs)) * ms,
        "handlers.run_ms_p95": quantile(_wall(runs), 0.95) * ms,
    }
    stage_ms = {name: median(values) * ms for name, values in stages.items()}
    stage_ms["turnaround"] = median(turnaround) * ms
    return metrics, stage_ms
