"""Task lifecycle journal, distributed spans, metrics, and reporting.

:mod:`repro.telemetry.journal` is the one task-lifecycle record — a
bounded per-task journal emitted at every hop across roles (ME, service,
DB, and all three pool kinds), merged into causally-ordered timelines
by ``python -m repro timeline``.  The paper's evaluation figures are
views over it: Figure 3 plots the number of concurrently executing
tasks over time for one pool under different fetch policies; Figure 4
plots per-pool concurrency plus the GPR reprioritization timeline.
:mod:`repro.telemetry.timeseries` reduces ``run_start``/``run_end``
records to those step functions and utilization statistics,
:mod:`repro.telemetry.report` renders compact text charts for benchmark
output, and :mod:`repro.telemetry.anomaly` streams the journal through a
rolling-median straggler detector surfaced on the status server's
``/events`` route.

Beyond the journal, :mod:`repro.telemetry.tracing` provides
distributed spans correlated across the ME → service → fabric → pool
pipeline (trace ids ride the task payload path and the service wire),
:mod:`repro.telemetry.metrics` aggregates counters/gauges/histograms on
the same hot paths, and :mod:`repro.telemetry.trace_export` emits JSONL,
Chrome ``trace_event`` JSON (Perfetto/about:tracing), and per-hop
latency-breakdown tables.

:mod:`repro.telemetry.profiling` attributes wall/CPU time and memory to
individual task executions, and :mod:`repro.telemetry.fleet` aggregates
pushed worker telemetry (liveness, load, profiles) on the service —
surfaced as ``/fleet`` and ``python -m repro fleet``.
"""

from repro.telemetry.anomaly import StragglerDetector
from repro.telemetry.fleet import FleetRegistry, TelemetryPusher
from repro.telemetry.profiling import ProfileHandle, TaskProfile, TaskProfiler
from repro.telemetry.journal import (
    Journal,
    JournalRecord,
    configure_journal,
    get_journal,
    load_journal,
    merge_timeline,
    render_timeline,
    set_journal,
    task_timeline,
)
from repro.telemetry.report import ascii_chart, render_table
from repro.telemetry.tracing import (
    Span,
    SpanContext,
    Tracer,
    configure_tracing,
    get_tracer,
    set_tracer,
)
from repro.telemetry.metrics import (
    BYTE_BUCKETS,
    COUNT_BUCKETS,
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_metrics,
    set_metrics,
)
from repro.telemetry.trace_export import (
    chrome_trace,
    latency_breakdown,
    load_spans,
    render_latency_breakdown,
    save_chrome_trace,
    save_spans,
)

def __getattr__(name: str):
    # Reached only by the repro.telemetry.timeseries names of __all__
    # (ConcurrencySeries … utilization_stats).  They compute with numpy,
    # which nothing on the task plane (core, db, pools — all importers
    # of this package) needs: resolving them on first use spares every
    # service and pool process the numpy import (~0.16 s, ~17 MB).
    if name in __all__:
        from repro.telemetry import timeseries

        return getattr(timeseries, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Journal",
    "JournalRecord",
    "StragglerDetector",
    "FleetRegistry",
    "TelemetryPusher",
    "ProfileHandle",
    "TaskProfile",
    "TaskProfiler",
    "configure_journal",
    "get_journal",
    "set_journal",
    "load_journal",
    "merge_timeline",
    "task_timeline",
    "render_timeline",
    "ConcurrencySeries",
    "concurrency_series",
    "mean_concurrency",
    "sample_series",
    "utilization_stats",
    "ascii_chart",
    "render_table",
    "Span",
    "SpanContext",
    "Tracer",
    "configure_tracing",
    "get_tracer",
    "set_tracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_metrics",
    "set_metrics",
    "DEFAULT_BUCKETS",
    "BYTE_BUCKETS",
    "COUNT_BUCKETS",
    "chrome_trace",
    "latency_breakdown",
    "load_spans",
    "render_latency_breakdown",
    "save_chrome_trace",
    "save_spans",
]
