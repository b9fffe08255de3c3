"""Tests for the metrics registry: semantics, thread-safety hammer."""

from __future__ import annotations

import threading

import pytest

from repro.telemetry.metrics import (
    COUNT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_metrics,
    set_metrics,
)


class TestCounter:
    def test_inc(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == pytest.approx(3.5)

    def test_negative_inc_rejected(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_snapshot(self):
        counter = Counter("c")
        counter.inc(4)
        assert counter.snapshot() == {"type": "counter", "value": 4.0}


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == pytest.approx(12.0)


class TestHistogram:
    def test_basic_stats(self):
        histogram = Histogram("h", bounds=(1, 10, 100))
        for value in (0.5, 5, 50, 500):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(555.5)
        assert histogram.min == pytest.approx(0.5)
        assert histogram.max == pytest.approx(500)
        assert histogram.mean == pytest.approx(555.5 / 4)

    def test_empty_stats_are_zero(self):
        histogram = Histogram("h", bounds=(1,))
        assert histogram.count == 0
        assert histogram.mean == 0.0
        assert histogram.min == 0.0
        assert histogram.max == 0.0
        assert histogram.quantile(0.5) == 0.0

    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(1, 1, 2))
        with pytest.raises(ValueError):
            Histogram("h", bounds=(2, 1))
        with pytest.raises(ValueError):
            Histogram("h", bounds=())

    def test_quantile_interpolates(self):
        histogram = Histogram("h", bounds=(10, 20))
        for value in (2, 4, 6, 8):
            histogram.observe(value)
        assert 0 < histogram.quantile(0.5) <= 10

    def test_quantile_clamped_to_observed_range(self):
        # All observations in one wide bucket: interpolation must not
        # report a quantile beyond the true extremes.
        histogram = Histogram("h", bounds=(1000,))
        for value in (3, 5, 9):
            histogram.observe(value)
        assert histogram.quantile(0.5) <= 9
        assert histogram.quantile(0.99) <= 9

    def test_overflow_quantile_is_observed_max(self):
        histogram = Histogram("h", bounds=(1,))
        histogram.observe(50)
        histogram.observe(70)
        assert histogram.quantile(0.99) == pytest.approx(70)

    def test_quantile_range_validated(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(1,)).quantile(1.5)

    def test_snapshot_shape(self):
        histogram = Histogram("h", bounds=(1, 2))
        histogram.observe(1.5)
        snap = histogram.snapshot()
        assert snap["type"] == "histogram"
        assert snap["count"] == 1
        assert snap["bounds"] == [1.0, 2.0]


class TestRegistry:
    def test_get_or_create_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h", COUNT_BUCKETS) is registry.histogram(
            "h", COUNT_BUCKETS
        )

    def test_type_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_histogram_bucket_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", bounds=(1, 2))
        with pytest.raises(ValueError):
            registry.histogram("h", bounds=(1, 2, 3))

    def test_snapshot_and_render(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc(3)
        registry.gauge("depth").set(7)
        registry.histogram("lat", bounds=(1, 2)).observe(0.5)
        snap = registry.snapshot()
        assert snap["requests"]["value"] == 3.0
        assert snap["depth"]["value"] == 7.0
        text = registry.render_text()
        assert "requests: 3" in text
        assert "lat: count=1" in text

    def test_clear_and_len(self):
        registry = MetricsRegistry()
        registry.counter("a")
        registry.gauge("b")
        assert len(registry) == 2
        registry.clear()
        assert len(registry) == 0

    def test_global_registry_swap(self):
        original = get_metrics()
        replacement = MetricsRegistry()
        try:
            assert set_metrics(replacement) is original
            assert get_metrics() is replacement
        finally:
            set_metrics(original)


class TestConcurrency:
    """Hammer tests: many threads, shared registry / collector."""

    def test_registry_hammer(self):
        registry = MetricsRegistry()
        n_threads, n_ops = 8, 500
        barrier = threading.Barrier(n_threads)

        def worker():
            barrier.wait()
            for i in range(n_ops):
                # get-or-create races on the same names on purpose.
                registry.counter("ops").inc()
                registry.gauge("depth").inc()
                registry.histogram("lat").observe(i * 0.001)
                registry.gauge("depth").dec()

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        total = n_threads * n_ops
        counter = registry.counter("ops")
        histogram = registry.histogram("lat")
        assert counter.value == total
        assert histogram.count == total
        assert registry.gauge("depth").value == pytest.approx(0.0)
        # No observation lost: bucket counts add back up to the total.
        assert sum(histogram.snapshot()["counts"]) == total
