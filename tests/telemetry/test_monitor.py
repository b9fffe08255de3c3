"""Monitor subsystem units: samplers, status server, terminal view."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.db import SqliteTaskStore
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.monitor import (
    CallbackSampler,
    StatusServer,
    StoreSampler,
    parse_url,
    render_status,
)
from repro.telemetry.monitor.samplers import PoolSampler, Sampler
from repro.util.clock import VirtualClock


def get_json(url: str):
    with urllib.request.urlopen(url, timeout=5) as r:
        return r.status, json.loads(r.read().decode())


class TestSamplerBase:
    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            Sampler(interval=0)

    def test_empty_history_summary_is_zeroes(self):
        s = Sampler(clock=VirtualClock())
        assert s.summary() == {
            "samples": 0, "level_last": 0.0, "level_mean": 0.0, "level_max": 0.0,
        }

    def test_level_series_is_time_weighted(self):
        clock = VirtualClock()
        s = Sampler(clock=clock)
        s.record_level(10)
        clock.advance_to(1.0)
        s.record_level(0)
        clock.advance_to(3.0)
        s.record_level(0)
        # level 10 for 1s, then 0 for 2s -> mean 10/3
        assert s.summary()["level_mean"] == pytest.approx(10 / 3)
        assert s.summary()["level_max"] == 10.0
        assert s.summary()["samples"] == 3

    def test_history_is_bounded(self):
        clock = VirtualClock()
        s = Sampler(clock=clock, history=4)
        for i in range(10):
            clock.advance_to(float(i))
            s.record_level(i)
        series = s.level_series()
        assert len(series.times) == 4
        assert list(series.counts) == [6, 7, 8, 9]

    def test_threaded_loop_survives_exceptions(self):
        class Exploding(Sampler):
            def __init__(self):
                super().__init__(interval=0.01)
                self.calls = 0

            def sample_once(self):
                self.calls += 1
                raise RuntimeError("boom")

        s = Exploding()
        with s:
            import time

            deadline = time.monotonic() + 5
            while s.calls < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
        assert s.calls >= 3  # kept sampling after raising

    def test_double_start_is_noop(self):
        s = Sampler(interval=10)
        s.start()
        try:
            thread = s._thread
            assert s.start() is s  # idempotent: same sampler back
            assert s._thread is thread  # and no second thread spawned
        finally:
            s.stop()
        assert not s.is_alive()

    def test_double_stop_is_noop(self):
        s = Sampler(interval=10)
        s.start()
        assert s.stop() is s
        assert s.stop() is s  # second stop: nothing to join, no error
        assert not s.is_alive()

    def test_restart_after_stop(self):
        s = Sampler(interval=10)
        s.start()
        s.stop()
        s.start()  # a stopped sampler restarts cleanly
        try:
            assert s.is_alive()
        finally:
            s.stop()


class TestStoreSampler:
    def test_gauges_reflect_store_state(self):
        clock = VirtualClock()
        reg = MetricsRegistry()
        store = SqliteTaskStore()
        store.create_tasks("exp", 0, ["{}"] * 3)
        store.create_tasks("exp", 7, ["{}"] * 2)
        popped = store.pop_out(0, n=1, now=clock.now(), lease=10.0)
        sampler = StoreSampler(store, metrics=reg, clock=clock)

        sampler.sample_once()
        assert reg.get("store.tasks.queued").value == 4
        assert reg.get("store.tasks.running").value == 1
        assert reg.get("store.queue_out_depth").value == 4
        assert reg.get("store.queue_out_depth.type_0").value == 2
        assert reg.get("store.queue_out_depth.type_7").value == 2
        assert reg.get("leases.active").value == 1
        assert reg.get("leases.expired").value == 0

        # Let the lease lapse: active -> expired.
        clock.advance_to(11.0)
        sampler.sample_once()
        assert reg.get("leases.active").value == 0
        assert reg.get("leases.expired").value == 1

        # Complete the task: running -> complete, queue_in grows.
        store.report_batch([(popped[0][0], 0, "{}")])
        sampler.sample_once()
        assert reg.get("store.tasks.complete").value == 1
        assert reg.get("store.queue_in_depth").value == 1
        store.close()

    def test_summary_uses_queue_depth_keys(self):
        clock = VirtualClock()
        store = SqliteTaskStore()
        store.create_tasks("exp", 0, ["{}"] * 5)
        sampler = StoreSampler(store, metrics=MetricsRegistry(), clock=clock)
        sampler.sample_once()
        clock.advance_to(2.0)
        sampler.sample_once()
        summary = sampler.summary()
        assert summary["samples"] == 2
        assert summary["queue_out_last_depth"] == 5.0
        assert summary["queue_out_max_depth"] == 5.0
        store.close()


class TestPoolSampler:
    def test_reads_pool_probes(self):
        class FakePool:
            name = "p1"

            class config:  # noqa: N801 - mimics PoolConfig attribute
                n_workers = 4

            def owned(self):
                return 6

            def busy(self):
                return 3

            def busy_fraction(self):
                return 0.75

        reg = MetricsRegistry()
        sampler = PoolSampler(FakePool(), metrics=reg, clock=VirtualClock())
        sampler.sample_once()
        assert reg.get("pool.p1.owned").value == 6
        assert reg.get("pool.p1.busy").value == 3
        assert reg.get("pool.p1.busy_fraction").value == 0.75
        assert "utilization" in sampler.summary()


class TestCallbackSampler:
    def test_publishes_probe_values(self):
        reg = MetricsRegistry()
        state = {"done": 0}
        sampler = CallbackSampler(
            {"me.points_completed": lambda: state["done"],
             "me.points_pending": lambda: 10 - state["done"]},
            metrics=reg,
            clock=VirtualClock(),
        )
        sampler.sample_once()
        state["done"] = 4
        sampler.sample_once()
        assert reg.get("me.points_completed").value == 4
        assert reg.get("me.points_pending").value == 6
        # headline = first probe
        assert sampler.summary()["level_last"] == 4.0

    def test_requires_probes(self):
        with pytest.raises(ValueError):
            CallbackSampler({})


class TestStatusServer:
    def test_routes(self):
        reg = MetricsRegistry()
        reg.counter("service.requests", "req").inc(3)
        server = StatusServer(
            port=0,
            metrics=reg,
            status_fn=lambda: {"store": {"queue_in": 0}},
            readiness_checks={"db": lambda: (True, "ok")},
        )
        with server:
            base = server.url
            code, body = get_json(base + "/healthz")
            assert (code, body) == (200, {"ok": True})

            code, body = get_json(base + "/readyz")
            assert code == 200
            assert body["checks"]["db"] == {"ok": True, "detail": "ok"}

            code, body = get_json(base + "/status")
            assert code == 200
            assert body == {"store": {"queue_in": 0}}

            with urllib.request.urlopen(base + "/metrics", timeout=5) as r:
                assert r.status == 200
                assert "version=0.0.4" in r.headers["Content-Type"]
                assert "service_requests_total 3" in r.read().decode()

            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(base + "/nope", timeout=5)
            assert exc.value.code == 404

    def test_readyz_fails_when_a_check_fails(self):
        server = StatusServer(
            port=0,
            metrics=MetricsRegistry(),
            readiness_checks={
                "good": lambda: (True, "fine"),
                "bad": lambda: (False, "db unreachable"),
            },
        )
        with server:
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(server.url + "/readyz", timeout=5)
            assert exc.value.code == 503
            body = json.loads(exc.value.read().decode())
            assert body["ok"] is False
            assert body["checks"]["bad"]["detail"] == "db unreachable"

    def test_raising_check_counts_as_failed(self):
        def explode():
            raise OSError("connection refused")

        server = StatusServer(
            port=0, metrics=MetricsRegistry(),
            readiness_checks={"db": explode},
        )
        ok, checks = server.run_readiness_checks()
        assert ok is False
        assert checks["db"]["ok"] is False
        assert "connection refused" in checks["db"]["detail"]

    def test_ephemeral_port_resolved(self):
        server = StatusServer(port=0, metrics=MetricsRegistry())
        host, port = server.address
        assert port != 0
        assert server.url == f"http://{host}:{port}"
        server.stop()  # stop before start is a no-op


class TestStatusServerEvents:
    def test_events_route_serves_events_fn(self):
        payload = {"journal": {"enabled": True}, "stragglers": {"active": []}}
        server = StatusServer(
            port=0, metrics=MetricsRegistry(), events_fn=lambda: payload
        )
        with server:
            code, body = get_json(server.url + "/events")
            assert (code, body) == (200, payload)

    def test_events_404_without_events_fn(self):
        server = StatusServer(port=0, metrics=MetricsRegistry())
        assert server.has_events is False
        with server:
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(server.url + "/events", timeout=5)
            assert exc.value.code == 404
            body = json.loads(exc.value.read().decode())
            assert body == {"ok": False, "error": "no route /events"}

    def test_404_body_names_the_missing_route(self):
        server = StatusServer(port=0, metrics=MetricsRegistry())
        with server:
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(server.url + "/nope", timeout=5)
            assert exc.value.code == 404
            body = json.loads(exc.value.read().decode())
            assert body == {"ok": False, "error": "no route /nope"}

    def test_query_string_stripped_before_dispatch(self):
        server = StatusServer(
            port=0, metrics=MetricsRegistry(), status_fn=lambda: {"ok": 1}
        )
        with server:
            code, body = get_json(server.url + "/status?pretty=1&x=y")
            assert (code, body) == (200, {"ok": 1})
            code, body = get_json(server.url + "/healthz?probe=k8s")
            assert (code, body) == (200, {"ok": True})

    def test_build_info_gauge_in_metrics(self):
        from repro import __version__

        server = StatusServer(port=0, metrics=MetricsRegistry())
        with server:
            with urllib.request.urlopen(server.url + "/metrics", timeout=5) as r:
                text = r.read().decode()
        assert "repro_build_info 1" in text
        assert __version__ in text


class TestView:
    def test_parse_url_variants(self):
        assert parse_url("localhost:8080") == "http://localhost:8080"
        assert parse_url("http://h:1/") == "http://h:1"
        assert parse_url("http://h:1/status") == "http://h:1"
        assert parse_url("https://h:1/metrics") == "https://h:1"
        assert parse_url("http://h:1/events") == "http://h:1"

    def test_render_status_smoke(self):
        status = {
            "service": {
                "address": ["127.0.0.1", 1234], "uptime_seconds": 5.0,
                "requests": 100, "errors": 1, "bytes_received": 10,
                "bytes_sent": 20, "connections_active": 2,
                "connections_total": 3,
            },
            "store": {
                "tasks": {"queued": 4, "running": 1, "complete": 5,
                          "canceled": 0, "total": 10},
                "queue_out": {"0": 4}, "queue_out_total": 4, "queue_in": 2,
                "leases": {"active": 1, "expired": 0, "unleased_running": 0},
            },
            "sampler": {"samples": 9, "queue_out_mean_depth": 3.5},
        }
        text = render_status(status)
        assert "127.0.0.1:1234" in text
        assert "queued" in text and "4" in text
        assert "leases" in text
        assert "samples=9" in text

    def test_render_status_deltas(self):
        prev = {"service": {"address": "a", "requests": 100}}
        cur = {"service": {"address": "a", "requests": 150}}
        text = render_status(cur, prev, elapsed=10.0)
        assert "+5.0/s" in text

    def test_render_empty_payload(self):
        assert "empty" in render_status({})

    def test_render_stragglers_with_flags(self):
        from repro.telemetry.monitor import render_stragglers

        events = {
            "journal": {"enabled": True, "total_in_ring": 42, "dropped": 0},
            "stragglers": {
                "active": [
                    {
                        "task_id": 7, "work_type": 0, "phase": "run",
                        "elapsed_seconds": 9.5, "baseline_seconds": 1.0,
                        "threshold_seconds": 4.0, "ratio": 9.5, "source": "p1",
                    }
                ],
                "open_intervals": 3,
                "flagged_total": 1,
                "baselines": {"0/run": {"samples": 5, "median_seconds": 1.0}},
            },
        }
        text = render_stragglers(events)
        assert "9.5x" in text
        assert "0/run" in text
        assert "open intervals: 3" in text
        assert "enabled=True" in text

    def test_render_stragglers_quiet(self):
        from repro.telemetry.monitor import render_stragglers

        text = render_stragglers({"stragglers": {"active": []}})
        assert "no stragglers" in text

    def test_run_stragglers_against_live_server(self, capsys):
        from repro.telemetry.monitor import run_stragglers

        payload = {
            "journal": {"enabled": True, "total_in_ring": 1, "dropped": 0},
            "stragglers": {"active": [], "open_intervals": 0,
                           "flagged_total": 0, "baselines": {}},
        }
        server = StatusServer(
            port=0, metrics=MetricsRegistry(), events_fn=lambda: payload
        )
        with server:
            assert run_stragglers(server.url, once=True) == 0
            assert "no stragglers" in capsys.readouterr().out
            assert run_stragglers(server.url, once=True, json_mode=True) == 0
            assert json.loads(capsys.readouterr().out) == payload

    def test_run_stragglers_unreachable_exits_nonzero(self):
        from repro.telemetry.monitor import run_stragglers

        assert run_stragglers("127.0.0.1:1", once=True) == 1


class TestViewMinimalPayloads:
    """Regression: the monitor must render any /status payload a server
    can legally send — older servers omit optional sections and entry
    fields, and a KeyError here kills the operator's only live view."""

    def test_render_status_without_optional_sections(self):
        # Only the bare service block: no sampler, stragglers, or fleet.
        status = {"service": {"address": "a", "requests": 1}}
        text = render_status(status)
        assert "service" in text

    def test_render_status_store_missing_subsections(self):
        status = {"store": {"tasks": {"queued": 1}}}
        text = render_status(status)
        assert "queued" in text

    def test_render_status_straggler_entries_missing_fields(self):
        status = {
            "stragglers": {"active": [{}, {"task_id": 3}], "flagged_total": 2}
        }
        text = render_status(status)
        assert "active=2" in text
        assert "3:unclassified" in text

    def test_render_status_fleet_summary_line(self):
        status = {"fleet": {"workers": 4, "live": 3, "stale": 1}}
        text = render_status(status)
        assert "fleet: 4 workers (3 live, 1 stale)" in text

    def test_render_stragglers_empty_payload(self):
        from repro.telemetry.monitor import render_stragglers

        text = render_stragglers({})
        assert "no stragglers" in text
        assert "open intervals: 0" in text

    def test_render_stragglers_entries_missing_fields(self):
        from repro.telemetry.monitor import render_stragglers

        events = {"stragglers": {"active": [{}, {"task_id": 1, "ratio": 2.0}]}}
        text = render_stragglers(events)
        assert "2.0x" in text

    def test_render_stragglers_shows_verdict(self):
        from repro.telemetry.monitor import render_stragglers

        events = {
            "stragglers": {
                "active": [
                    {"task_id": 5, "classification": "stuck", "ratio": 8.0}
                ]
            }
        }
        assert "stuck" in render_stragglers(events)


class TestRenderFleet:
    def test_empty_fleet(self):
        from repro.telemetry.monitor import render_fleet

        text = render_fleet({})
        assert "0 workers" in text
        assert "no workers have pushed telemetry" in text

    def test_full_snapshot(self):
        from repro.telemetry.monitor import render_fleet

        fleet = {
            "counts": {"total": 2, "live": 1, "stale": 1},
            "workers": [
                {
                    "worker_id": "pool-a", "role": "pool", "state": "live",
                    "age_seconds": 0.5, "busy_fraction": 0.75, "owned": 3,
                    "tasks_completed": 10, "tasks_failed": 1,
                    "running": [{"task_id": 9}],
                },
                {"worker_id": "me-1", "role": "me", "state": "stale"},
            ],
            "profiles": {
                "0": {
                    "count": 10, "failed": 1,
                    "wall_p50_seconds": 0.01, "wall_p95_seconds": 0.05,
                    "cpu_p50_seconds": 0.008, "cpu_p95_seconds": 0.04,
                    "max_rss_kb": 2048.0,
                }
            },
            "top_cpu": [
                {"task_id": 9, "work_type": 0, "cpu_seconds": 0.04,
                 "wall_seconds": 0.05, "max_rss_delta_kb": 12.0}
            ],
        }
        text = render_fleet(fleet)
        assert "2 workers" in text
        assert "pool-a" in text and "75%" in text
        assert "me-1" in text and "stale" in text
        assert "2048" in text
        assert "top task" in text

    def test_worker_rows_missing_fields(self):
        from repro.telemetry.monitor import render_fleet

        text = render_fleet({"workers": [{}, {"worker_id": "w"}]})
        assert "w" in text

    def test_run_fleet_against_live_server(self, capsys):
        from repro.telemetry.monitor import run_fleet

        payload = {
            "counts": {"total": 1, "live": 1, "stale": 0},
            "workers": [{"worker_id": "p", "role": "pool", "state": "live"}],
            "profiles": {},
            "top_cpu": [],
        }
        server = StatusServer(
            port=0, metrics=MetricsRegistry(), fleet_fn=lambda: payload
        )
        with server:
            assert run_fleet(server.url, once=True) == 0
            assert "1 workers" in capsys.readouterr().out
            assert run_fleet(server.url, once=True, json_mode=True) == 0
            assert json.loads(capsys.readouterr().out) == payload

    def test_run_fleet_unreachable_exits_nonzero(self):
        from repro.telemetry.monitor import run_fleet

        assert run_fleet("127.0.0.1:1", once=True) == 1

    def test_fleet_route_404_without_fleet_fn(self):
        server = StatusServer(port=0, metrics=MetricsRegistry())
        with server:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(server.url + "/fleet", timeout=5)
            assert err.value.code == 404

    def test_extra_metrics_appended_to_scrape(self):
        registry = MetricsRegistry()
        registry.counter("x.total", "x").inc()
        server = StatusServer(
            port=0,
            metrics=registry,
            extra_metrics_fn=lambda: "custom_series 42\n",
        )
        with server:
            with urllib.request.urlopen(server.url + "/metrics", timeout=5) as r:
                body = r.read().decode()
            assert "custom_series 42" in body
            assert "x_total" in body
