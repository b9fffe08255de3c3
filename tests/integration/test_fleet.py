"""Fleet telemetry against a live TaskService.

The ISSUE's acceptance path: two worker pools push telemetry to a real
service over RPC, ``/fleet`` shows both with profiles aggregated; one
pool dies and the registry marks it stale then drops it — along with
its labelled ``/metrics`` series — within the expiry window; and
``repro fleet --once --json`` round-trips the registry state.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
import urllib.request

import pytest

from repro.cli import main as cli_main
from repro.core import EQSQL, as_completed
from repro.core.service import TaskService
from repro.core.service_client import RemoteTaskStore
from repro.db import SqliteTaskStore
from repro.pools import PoolConfig, PythonTaskHandler, ThreadedWorkerPool
from repro.telemetry.metrics import MetricsRegistry

#: Heartbeat period for test pools — fast, so expiry tests stay quick.
BEAT = 0.05


def fetch_json(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=5) as r:
        return json.loads(r.read().decode())


def fetch_text(url: str) -> str:
    with urllib.request.urlopen(url, timeout=5) as r:
        return r.read().decode()


def wait_until(predicate, timeout: float = 10.0, delay: float = 0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(delay)
    return False


def pool_config(name: str, **overrides) -> PoolConfig:
    defaults = dict(
        name=name,
        work_type=0,
        n_workers=2,
        batch_size=4,
        poll_delay=0.001,
        profile_tasks=True,
        telemetry_interval=BEAT,
    )
    defaults.update(overrides)
    return PoolConfig(**defaults)


@pytest.fixture()
def live_service():
    registry = MetricsRegistry()
    store = SqliteTaskStore(metrics=registry)
    service = TaskService(
        store,
        port=0,
        status_port=0,
        metrics=registry,
        fleet_stale_multiple=2.0,
        fleet_expiry_multiple=4.0,
        fleet_default_interval=BEAT,
    )
    service.start()
    host, port = service.address
    try:
        yield service, (host, port)
    finally:
        service.stop()


class TestFleetOverLiveService:
    def test_two_pools_push_and_one_expires(self, live_service):
        service, (host, port) = live_service
        base = service.status_url

        store_a = RemoteTaskStore(host, port)
        store_b = RemoteTaskStore(host, port)
        eq_a, eq_b = EQSQL(store_a), EQSQL(store_b)
        pool_a = ThreadedWorkerPool(
            eq_a, PythonTaskHandler(lambda d: d), pool_config("pool-a")
        ).start()
        pool_b = ThreadedWorkerPool(
            eq_b, PythonTaskHandler(lambda d: d), pool_config("pool-b")
        ).start()
        try:
            futures = eq_a.submit_tasks("exp", 0, ["{}"] * 12)
            done = list(as_completed(futures, delay=0.001, timeout=30))
            assert len(done) == 12

            # Both pools must appear live on /fleet once they have beat.
            def both_live():
                snap = fetch_json(base + "/fleet")
                by_id = {w["worker_id"]: w for w in snap["workers"]}
                return (
                    by_id.get("pool-a", {}).get("state") == "live"
                    and by_id.get("pool-b", {}).get("state") == "live"
                )

            assert wait_until(both_live), fetch_json(base + "/fleet")

            snap = fetch_json(base + "/fleet")
            assert snap["counts"]["total"] == 2
            by_id = {w["worker_id"]: w for w in snap["workers"]}
            assert by_id["pool-a"]["role"] == "pool"
            assert by_id["pool-a"]["n_workers"] == 2
            # Task profiles flowed through reports into the aggregates.
            assert snap["profiles"]["0"]["count"] >= 12
            assert snap["profiles"]["0"]["wall_p95_seconds"] >= 0.0
            assert snap["top_cpu"]

            # Labelled series for both pools on /metrics.
            metrics = fetch_text(base + "/metrics")
            assert 'repro_fleet_worker_up{worker="pool-a",role="pool"} 1' in metrics
            assert 'repro_fleet_worker_up{worker="pool-b",role="pool"} 1' in metrics

            # Kill pool B: no more heartbeats after the parting beat.
            pool_b.stop()
            eq_b.close()

            # Within expiry_multiple x interval (plus slack) the worker
            # must leave /fleet entirely and its series must vanish.
            def b_expired():
                snap = fetch_json(base + "/fleet")
                return all(w["worker_id"] != "pool-b" for w in snap["workers"])

            assert wait_until(b_expired), fetch_json(base + "/fleet")
            metrics = fetch_text(base + "/metrics")
            assert 'worker="pool-b"' not in metrics
            assert 'repro_fleet_worker_up{worker="pool-a",role="pool"} 1' in metrics
        finally:
            pool_a.stop()
            with contextlib.suppress(Exception):
                pool_b.stop()
            eq_a.close()
            with contextlib.suppress(Exception):
                eq_b.close()

    def test_status_carries_fleet_summary(self, live_service):
        service, (host, port) = live_service
        store = RemoteTaskStore(host, port)
        eq = EQSQL(store)
        pool = ThreadedWorkerPool(
            eq, PythonTaskHandler(lambda d: d), pool_config("pool-s")
        ).start()
        try:
            assert wait_until(
                lambda: fetch_json(service.status_url + "/status")
                .get("fleet", {})
                .get("live", 0)
                >= 1
            )
            status = fetch_json(service.status_url + "/status")
            assert status["fleet"]["workers"] >= 1
        finally:
            pool.stop()
            eq.close()

    def test_fleet_cli_once_json_round_trips(self, live_service):
        service, (host, port) = live_service
        store = RemoteTaskStore(host, port)
        eq = EQSQL(store)
        pool = ThreadedWorkerPool(
            eq, PythonTaskHandler(lambda d: d), pool_config("pool-cli")
        ).start()
        try:
            futures = eq.submit_tasks("exp", 0, ["{}"] * 4)
            list(as_completed(futures, delay=0.001, timeout=30))
            assert wait_until(
                lambda: fetch_json(service.status_url + "/fleet")["counts"]["total"]
                >= 1
            )
            hoststr, portnum = service.status_address
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli_main(["fleet", f"{hoststr}:{portnum}", "--once", "--json"])
            assert rc == 0
            payload = json.loads(buf.getvalue())
            assert payload["counts"]["total"] >= 1
            assert any(w["worker_id"] == "pool-cli" for w in payload["workers"])
            assert payload["profiles"]["0"]["count"] >= 4
        finally:
            pool.stop()
            eq.close()

    def test_fleet_cli_once_table_renders(self, live_service):
        service, (host, port) = live_service
        store = RemoteTaskStore(host, port)
        eq = EQSQL(store)
        pool = ThreadedWorkerPool(
            eq, PythonTaskHandler(lambda d: d), pool_config("pool-t")
        ).start()
        try:
            assert wait_until(
                lambda: fetch_json(service.status_url + "/fleet")["counts"]["total"]
                >= 1
            )
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli_main(["fleet", service.status_url, "--once"])
            assert rc == 0
            out = buf.getvalue()
            assert "pool-t" in out
            assert "live" in out
        finally:
            pool.stop()
            eq.close()

    def test_profiles_flow_without_push_telemetry(self, live_service):
        # Profiling on, push telemetry off: the report path alone must
        # still fill the per-work-type aggregate tables.
        service, (host, port) = live_service
        store = RemoteTaskStore(host, port)
        eq = EQSQL(store)
        pool = ThreadedWorkerPool(
            eq,
            PythonTaskHandler(lambda d: d),
            pool_config("pool-np", telemetry_interval=None),
        ).start()
        try:
            futures = eq.submit_tasks("exp", 0, ["{}"] * 6)
            done = list(as_completed(futures, delay=0.001, timeout=30))
            assert len(done) == 6
            assert wait_until(
                lambda: fetch_json(service.status_url + "/fleet")["profiles"]
                .get("0", {})
                .get("count", 0)
                >= 6
            )
            snap = fetch_json(service.status_url + "/fleet")
            # No pushes: the pool never registers as a fleet worker.
            assert all(w["worker_id"] != "pool-np" for w in snap["workers"])
        finally:
            pool.stop()
            eq.close()


class TestInProcessStoreDegradesGracefully:
    def test_pool_without_telemetry_sink_still_works(self):
        # In-process store has no ``telemetry`` RPC: the pool must log
        # and run without a pusher rather than fail.
        eq = EQSQL(SqliteTaskStore())
        pool = ThreadedWorkerPool(
            eq, PythonTaskHandler(lambda d: d), pool_config("pool-local")
        ).start()
        try:
            assert pool.telemetry_pusher is None
            futures = eq.submit_tasks("exp", 0, ["{}"] * 4)
            done = list(as_completed(futures, delay=0.001, timeout=30))
            assert len(done) == 4
        finally:
            pool.stop()
            eq.close()
