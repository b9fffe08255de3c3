"""Concurrency time series and utilization statistics.

Views over the task journal (:mod:`repro.telemetry.journal`): a
``run_start`` record is +1 running task, a ``run_end`` record is -1, and
a record's ``source`` is the worker pool that ran it.  These reduce to
the step functions the paper's figures plot, and to the summary
statistics the benchmarks report: time-weighted mean concurrency,
utilization (mean concurrency / worker count), idle-worker fraction,
and a saw-tooth measure (how deep and how often concurrency dips),
which quantifies the Fig 3 bottom-panel behaviour under a large fetch
threshold.

A task stops counting when its handler returns (``run_end``), not when
its report is acknowledged: that is the paper's "concurrently executing
tasks".  Under the DES the two instants are the same virtual time.

The journal is a bounded ring.  A view over a ring that evicted
``run_start`` records would show negative concurrency, so callers must
check ``Journal.dropped`` is zero before trusting a series (the
scenarios in :mod:`repro.sim.scenarios` raise otherwise).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.telemetry.journal import EV_RUN_END, EV_RUN_START, JournalRecord


@dataclass(frozen=True)
class ConcurrencySeries:
    """A right-continuous step function: ``counts[i]`` tasks are running
    on the half-open interval ``[times[i], times[i+1])``; the final count
    holds from ``times[-1]`` to :attr:`end`."""

    times: np.ndarray
    counts: np.ndarray
    end: float

    def value_at(self, t: float) -> int:
        """Concurrency at time ``t`` (0 before the first event)."""
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        if idx < 0:
            return 0
        return int(self.counts[idx])

    def duration(self) -> float:
        """Span from first event to :attr:`end`."""
        if len(self.times) == 0:
            return 0.0
        return float(self.end - self.times[0])


def concurrency_series(
    records: Iterable[JournalRecord],
    source: str | None = None,
    end: float | None = None,
) -> ConcurrencySeries:
    """Build the running-task step function from run_start/run_end records.

    ``source`` restricts to one worker pool (Fig 4 plots per-pool
    series); ``end`` extends the series to a common horizon so multiple
    pools can be compared over the same window.
    """
    deltas: list[tuple[float, int]] = []
    for record in records:
        if source is not None and record.source != source:
            continue
        if record.event == EV_RUN_START:
            deltas.append((record.time, +1))
        elif record.event == EV_RUN_END:
            deltas.append((record.time, -1))
    if not deltas:
        return ConcurrencySeries(np.array([]), np.array([], dtype=int), end or 0.0)
    deltas.sort()
    times: list[float] = []
    counts: list[int] = []
    running = 0
    for t, d in deltas:
        running += d
        if times and times[-1] == t:
            counts[-1] = running
        else:
            times.append(t)
            counts.append(running)
    series_end = max(end if end is not None else times[-1], times[-1])
    return ConcurrencySeries(np.asarray(times), np.asarray(counts, dtype=int), series_end)


def mean_concurrency(series: ConcurrencySeries) -> float:
    """Time-weighted mean of the step function over its span."""
    if len(series.times) == 0 or series.duration() == 0:
        return 0.0
    edges = np.append(series.times, series.end)
    widths = np.diff(edges)
    return float(np.sum(series.counts * widths) / series.duration())


def time_at_or_above(series: ConcurrencySeries, level: int) -> float:
    """Fraction of the span spent with concurrency >= ``level``."""
    if len(series.times) == 0 or series.duration() == 0:
        return 0.0
    edges = np.append(series.times, series.end)
    widths = np.diff(edges)
    mask = series.counts >= level
    return float(np.sum(widths[mask]) / series.duration())


def utilization_stats(
    series: ConcurrencySeries, n_workers: int
) -> dict[str, float]:
    """Summary statistics against a pool's worker count.

    - ``mean_concurrency``: time-weighted average of running tasks.
    - ``utilization``: mean concurrency / workers (capped counts — an
      oversubscribed pool still cannot *run* more than its workers).
    - ``idle_fraction``: time-weighted fraction of worker-seconds idle.
    - ``full_fraction``: fraction of time every worker was busy.
    - ``dip_depth_mean``: mean depth below full when not full — the
      saw-tooth amplitude of Fig 3 (bottom).
    """
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    if len(series.times) == 0 or series.duration() == 0:
        return {
            "mean_concurrency": 0.0,
            "utilization": 0.0,
            "idle_fraction": 1.0,
            "full_fraction": 0.0,
            "dip_depth_mean": float(n_workers),
        }
    edges = np.append(series.times, series.end)
    widths = np.diff(edges)
    running = np.minimum(series.counts, n_workers)
    total = series.duration()
    mean = float(np.sum(running * widths) / total)
    idle = float(np.sum((n_workers - running) * widths) / (n_workers * total))
    full_mask = running >= n_workers
    full = float(np.sum(widths[full_mask]) / total)
    not_full = widths[~full_mask]
    if not_full.sum() > 0:
        dip = float(
            np.sum((n_workers - running[~full_mask]) * not_full) / not_full.sum()
        )
    else:
        dip = 0.0
    return {
        "mean_concurrency": mean,
        "utilization": mean / n_workers,
        "idle_fraction": idle,
        "full_fraction": full,
        "dip_depth_mean": dip,
    }


def sample_series(
    series: ConcurrencySeries, n_samples: int = 100
) -> tuple[np.ndarray, np.ndarray]:
    """Sample the step function on a uniform grid (for plotting and for
    the text charts benchmarks print)."""
    if len(series.times) == 0:
        return np.array([]), np.array([])
    grid = np.linspace(float(series.times[0]), float(series.end), n_samples)
    idx = np.searchsorted(series.times, grid, side="right") - 1
    idx = np.clip(idx, 0, len(series.counts) - 1)
    values = series.counts[idx].astype(float)
    values[grid < series.times[0]] = 0.0
    return grid, values


def completion_counts(
    records: Iterable[JournalRecord], source: str | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative completed-task count over time (tasks-done curve)."""
    stops = sorted(
        r.time
        for r in records
        if r.event == EV_RUN_END and (source is None or r.source == source)
    )
    return np.asarray(stops), np.arange(1, len(stops) + 1)
