"""Live TaskService monitoring: all four HTTP routes plus the CLI view.

The ISSUE's acceptance path: start a service with an embedded status
server, hit ``/healthz``, ``/readyz``, ``/metrics``, ``/status`` over
real HTTP while real RPC traffic flows, and round-trip
``repro monitor --once --json`` against it.
"""

from __future__ import annotations

import contextlib
import io
import json
import urllib.error
import urllib.request

import pytest

from repro.cli import main as cli_main
from repro.core.service import TaskService
from repro.core.service_client import RemoteTaskStore
from repro.db import SqliteTaskStore
from repro.telemetry.metrics import MetricsRegistry


def fetch(url: str):
    with urllib.request.urlopen(url, timeout=5) as r:
        return r.status, r.headers["Content-Type"], r.read().decode()


@pytest.fixture()
def live_service():
    registry = MetricsRegistry()
    store = SqliteTaskStore(metrics=registry)
    service = TaskService(
        store,
        port=0,
        status_port=0,
        metrics=registry,
        lease_reaper_interval=0.2,
        sampler_interval=0.05,
    )
    service.start()
    host, port = service.address
    remote = RemoteTaskStore(host, port, metrics=registry)
    try:
        yield service, remote, registry
    finally:
        remote.close()
        service.stop()


class TestEndpointsAgainstLiveService:
    def test_all_four_routes(self, live_service):
        service, remote, _ = live_service
        remote.create_tasks("exp", 0, ["{}"] * 3)
        remote.pop_out(0, n=1, now=0.0, lease=30.0)
        base = service.status_url

        code, ctype, body = fetch(base + "/healthz")
        assert code == 200 and json.loads(body)["ok"] is True

        code, _, body = fetch(base + "/readyz")
        ready = json.loads(body)
        assert code == 200 and ready["ok"] is True
        assert ready["checks"]["store"]["ok"] is True
        assert ready["checks"]["reaper"]["ok"] is True

        code, ctype, body = fetch(base + "/metrics")
        assert code == 200
        assert "version=0.0.4" in ctype
        # RPC traffic above must be visible in the scrape.
        assert "service_requests_total" in body
        assert "service_requests_create_tasks_total 1" in body
        assert "service_requests_pop_out_total 1" in body
        assert "service_bytes_received_total" in body

        code, _, body = fetch(base + "/status")
        status = json.loads(body)
        assert code == 200
        assert status["store"]["tasks"]["queued"] == 2
        assert status["store"]["tasks"]["running"] == 1
        assert status["store"]["leases"]["active"] == 1
        assert status["service"]["requests"] >= 2
        assert status["service"]["bytes_received"] > 0
        assert status["service"]["bytes_sent"] > 0
        assert status["service"]["reaper"]["running"] is True

    def test_stats_rpc_round_trips_through_client(self, live_service):
        _, remote, _ = live_service
        remote.create_tasks("exp", 3, ["{}"] * 4)
        stats = remote.stats()
        # JSON wire format: queue_out keyed by *string* work type.
        assert stats["queue_out"] == {"3": 4}
        assert stats["tasks"]["queued"] == 4
        assert stats["queue_out_total"] == 4

    def test_sampler_populates_gauges(self, live_service):
        import time

        service, remote, registry = live_service
        remote.create_tasks("exp", 0, ["{}"] * 7)
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            gauge = registry.get("store.queue_out_depth")
            if gauge is not None and gauge.value == 7:
                break
            time.sleep(0.02)
        assert registry.get("store.queue_out_depth").value == 7
        assert registry.get("store.tasks.queued").value == 7

    def test_monitor_once_json_round_trips(self, live_service):
        service, remote, _ = live_service
        remote.create_tasks("exp", 0, ["{}"] * 2)
        host, port = service.status_address
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli_main(["monitor", f"{host}:{port}", "--once", "--json"])
        assert rc == 0
        payload = json.loads(buf.getvalue())
        assert payload["store"]["tasks"]["queued"] == 2
        assert payload["service"]["uptime_seconds"] >= 0

    def test_monitor_once_table_renders(self, live_service):
        service, _, _ = live_service
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli_main(["monitor", service.status_url, "--once"])
        assert rc == 0
        out = buf.getvalue()
        assert "queue" in out and "leases" in out

    def test_monitor_unreachable_target_exits_nonzero(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            # Port 1 is essentially never listening.
            rc = cli_main(["monitor", "127.0.0.1:1", "--once", "--json"])
        assert rc == 1


class TestReadinessDegradation:
    def test_readyz_503_when_store_breaks(self):
        registry = MetricsRegistry()
        store = SqliteTaskStore()
        service = TaskService(store, port=0, status_port=0, metrics=registry)
        service.start()
        try:
            # Sever the store underneath the service: readiness must flip.
            def broken(*a, **k):
                raise RuntimeError("db gone")

            store.queue_in_length = broken
            code = None
            try:
                urllib.request.urlopen(service.status_url + "/readyz", timeout=5)
            except urllib.error.HTTPError as exc:
                code = exc.code
                body = json.loads(exc.read().decode())
            assert code == 503
            assert body["checks"]["store"]["ok"] is False
        finally:
            service.stop()

    def test_no_status_server_by_default(self):
        service = TaskService(SqliteTaskStore(), port=0)
        service.start()
        try:
            assert service.status_address is None
            assert service.status_url is None
        finally:
            service.stop()
