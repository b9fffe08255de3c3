"""Tests for concurrency series and utilization statistics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.telemetry import (
    Journal,
    JournalRecord,
    concurrency_series,
    load_journal,
    mean_concurrency,
    sample_series,
    utilization_stats,
)
from repro.telemetry.timeseries import completion_counts, time_at_or_above


def make_records(intervals, source="p"):
    """Pool-role run_start/run_end records; intervals: (start, stop) per task."""
    records = []
    for i, (start, stop) in enumerate(intervals):
        for event, time in (("run_start", start), ("run_end", stop)):
            records.append(
                JournalRecord(len(records) + 1, time, "pool", event, i, source=source)
            )
    return records


class TestConcurrencySeries:
    def test_single_task(self):
        series = concurrency_series(make_records([(1.0, 3.0)]))
        assert series.value_at(0.5) == 0
        assert series.value_at(1.0) == 1
        assert series.value_at(2.9) == 1
        assert series.value_at(3.0) == 0

    def test_overlapping_tasks(self):
        series = concurrency_series(
            make_records([(0.0, 4.0), (1.0, 3.0), (2.0, 5.0)])
        )
        assert series.value_at(0.5) == 1
        assert series.value_at(1.5) == 2
        assert series.value_at(2.5) == 3
        assert series.value_at(3.5) == 2
        assert series.value_at(4.5) == 1

    def test_empty(self):
        series = concurrency_series([])
        assert series.duration() == 0.0
        assert mean_concurrency(series) == 0.0

    def test_source_filter(self):
        records = make_records([(0.0, 2.0)], source="a") + make_records(
            [(0.0, 4.0)], source="b"
        )
        series_a = concurrency_series(records, source="a")
        assert series_a.value_at(1.0) == 1
        assert series_a.value_at(3.0) == 0

    def test_other_hops_ignored(self):
        """Only run_start/run_end move the count, whatever else the
        journal holds for the task."""
        records = make_records([(1.0, 3.0)])
        for event, time in (("fetch", 0.5), ("report", 3.5)):
            records.append(
                JournalRecord(len(records) + 1, time, "pool", event, 0, source="p")
            )
        series = concurrency_series(records)
        assert list(series.times) == [1.0, 3.0]
        assert list(series.counts) == [1, 0]

    def test_saved_journal_feeds_series(self, tmp_path):
        journal = Journal()
        for task_id, (start, stop) in enumerate([(0.0, 2.0), (1.0, 3.0)]):
            journal.emit("run_start", task_id, role="pool", source="p", time=start)
            journal.emit("run_end", task_id, role="pool", source="p", time=stop)
        path = str(tmp_path / "journal.jsonl")
        assert journal.save_jsonl(path) == 4
        series = concurrency_series(load_journal(path), source="p")
        assert series.value_at(1.5) == 2
        assert series.value_at(2.5) == 1

    def test_end_extension(self):
        series = concurrency_series(make_records([(0.0, 1.0)]), end=10.0)
        assert series.end == 10.0
        assert series.duration() == 10.0

    def test_simultaneous_events_coalesce(self):
        series = concurrency_series(make_records([(0.0, 1.0), (1.0, 2.0)]))
        # At t=1 one task stops and another starts: net concurrency 1.
        assert series.value_at(1.0) == 1


class TestMeanConcurrency:
    def test_rectangle(self):
        # One task for 10s: mean is 1.
        series = concurrency_series(make_records([(0.0, 10.0)]))
        assert mean_concurrency(series) == pytest.approx(1.0)

    def test_half_busy(self):
        series = concurrency_series(make_records([(0.0, 5.0)]), end=10.0)
        assert mean_concurrency(series) == pytest.approx(0.5)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=50, allow_nan=False),
                st.floats(min_value=0.1, max_value=10, allow_nan=False),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_mean_equals_total_work_over_span(self, raw):
        intervals = [(s, s + d) for s, d in raw]
        series = concurrency_series(make_records(intervals))
        total_work = sum(d for _, d in raw)
        span = series.duration()
        assert mean_concurrency(series) * span == pytest.approx(total_work, rel=1e-9)


class TestUtilizationStats:
    def test_fully_busy_pool(self):
        # 3 tasks always running on 3 workers.
        intervals = [(0.0, 10.0)] * 3
        series = concurrency_series(make_records(intervals))
        stats = utilization_stats(series, n_workers=3)
        assert stats["utilization"] == pytest.approx(1.0)
        assert stats["idle_fraction"] == pytest.approx(0.0)
        assert stats["full_fraction"] == pytest.approx(1.0)

    def test_oversubscription_capped(self):
        # 6 concurrent tasks on 3 workers cannot exceed 3 running.
        intervals = [(0.0, 10.0)] * 6
        series = concurrency_series(make_records(intervals))
        stats = utilization_stats(series, n_workers=3)
        assert stats["mean_concurrency"] == pytest.approx(3.0)
        assert stats["utilization"] == pytest.approx(1.0)

    def test_sawtooth_dip(self):
        # Full for 5s, empty for 5s: half utilization, dip depth 2.
        intervals = [(0.0, 5.0), (0.0, 5.0)]
        series = concurrency_series(make_records(intervals), end=10.0)
        stats = utilization_stats(series, n_workers=2)
        assert stats["utilization"] == pytest.approx(0.5)
        assert stats["full_fraction"] == pytest.approx(0.5)
        assert stats["dip_depth_mean"] == pytest.approx(2.0)

    def test_empty_series(self):
        stats = utilization_stats(concurrency_series([]), n_workers=4)
        assert stats["utilization"] == 0.0
        assert stats["idle_fraction"] == 1.0

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            utilization_stats(concurrency_series([]), n_workers=0)

    def test_time_at_or_above(self):
        intervals = [(0.0, 4.0), (0.0, 2.0)]
        series = concurrency_series(make_records(intervals))
        assert time_at_or_above(series, 2) == pytest.approx(0.5)
        assert time_at_or_above(series, 1) == pytest.approx(1.0)


class TestSampling:
    def test_sample_grid(self):
        series = concurrency_series(make_records([(0.0, 10.0)]))
        grid, values = sample_series(series, n_samples=11)
        assert len(grid) == 11
        assert np.all(values[:-1] == 1)

    def test_sample_empty(self):
        grid, values = sample_series(concurrency_series([]))
        assert grid.size == 0 and values.size == 0

    def test_completion_counts(self):
        records = make_records([(0.0, 3.0), (0.0, 1.0), (0.0, 2.0)])
        times, counts = completion_counts(records)
        assert list(times) == [1.0, 2.0, 3.0]
        assert list(counts) == [1, 2, 3]


class TestEmptyInputs:
    """Every reducer must return well-defined zeros on an empty stream —
    live monitoring summarizes series that often start out empty."""

    def test_empty_concurrency_series(self):
        series = concurrency_series([])
        assert series.times.size == 0
        assert series.duration() == 0.0
        assert series.value_at(123.0) == 0

    def test_mean_concurrency_empty(self):
        assert mean_concurrency(concurrency_series([])) == 0.0

    def test_time_at_or_above_empty(self):
        assert time_at_or_above(concurrency_series([]), 1) == 0.0

    def test_utilization_stats_empty(self):
        stats = utilization_stats(concurrency_series([]), n_workers=4)
        assert stats["mean_concurrency"] == 0.0
        assert stats["utilization"] == 0.0
        assert stats["idle_fraction"] == 1.0
        assert stats["full_fraction"] == 0.0

    def test_completion_counts_empty(self):
        times, counts = completion_counts([])
        assert times.size == 0 and counts.size == 0

    def test_single_instant_series(self):
        """All events at one instant: zero duration, no division blowup."""
        series = concurrency_series(make_records([(2.0, 2.0)]))
        assert series.duration() == 0.0
        assert mean_concurrency(series) == 0.0
        stats = utilization_stats(series, n_workers=2)
        assert stats["utilization"] == 0.0
