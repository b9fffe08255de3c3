"""Benchmark-regression harness: curated benches, versioned results.

``python -m repro bench`` runs a small curated subset of the repo's
performance surface — DB backend throughput, remote-store RPC, service
round trips, end-to-end pool throughput — and writes one
schema-versioned ``BENCH_<name>.json`` per bench, stamped with an
environment fingerprint.  Given a committed baseline it compares each
metric within a tolerance and exits nonzero on regression, which is the
guard-rail the paper's scaling claims need: a refactor that silently
halves tasks/s fails the harness, not a reviewer's eyeball.

Result schema (``SCHEMA_VERSION`` = 1)::

    {"schema_version": 1, "name": "...", "smoke": bool,
     "unix_time": float, "env": {...}, "params": {...},
     "metrics": {"<metric>": float, ...}}

Metric-direction convention: names ending ``_per_s`` are
higher-is-better; names ending ``_seconds`` are lower-is-better.  The
comparison only fails on change in the *bad* direction beyond the
tolerance — getting faster never fails.

Pure stdlib + the repo itself (no pytest-benchmark), so the harness runs
anywhere the package imports — including the CI ``bench-smoke`` job and
a login node.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from collections.abc import Callable, Iterable
from pathlib import Path

SCHEMA_VERSION = 1

#: Default relative tolerance: fail only when a metric degrades by more
#: than this fraction vs the baseline.  Generous because CI machines and
#: laptops differ wildly; tighten per-invocation with ``--tolerance``.
DEFAULT_TOLERANCE = 0.5

_REQUIRED_KEYS = ("schema_version", "name", "smoke", "unix_time", "env", "metrics")


# ---------------------------------------------------------------------------
# result plumbing


def environment_fingerprint() -> dict:
    """Where this result came from — enough to judge comparability."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
    }


def make_result(
    name: str, metrics: dict[str, float], smoke: bool, params: dict
) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "smoke": smoke,
        "unix_time": time.time(),
        "env": environment_fingerprint(),
        "params": params,
        "metrics": {k: float(v) for k, v in metrics.items()},
    }


def validate_result(obj: object) -> list[str]:
    """Schema violations in one result object ([] when valid)."""
    errors: list[str] = []
    if not isinstance(obj, dict):
        return [f"result must be an object, got {type(obj).__name__}"]
    for key in _REQUIRED_KEYS:
        if key not in obj:
            errors.append(f"missing key {key!r}")
    if errors:
        return errors
    if obj["schema_version"] != SCHEMA_VERSION:
        errors.append(
            f"schema_version {obj['schema_version']!r} != {SCHEMA_VERSION}"
        )
    if not isinstance(obj["name"], str) or not obj["name"]:
        errors.append("name must be a non-empty string")
    if not isinstance(obj["metrics"], dict) or not obj["metrics"]:
        errors.append("metrics must be a non-empty object")
    else:
        for metric, value in obj["metrics"].items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                errors.append(f"metric {metric!r} must be numeric, got {value!r}")
    if not isinstance(obj["env"], dict):
        errors.append("env must be an object")
    return errors


def write_results(results: Iterable[dict], out_dir: str | Path) -> list[Path]:
    """One ``BENCH_<name>.json`` per result; returns the paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for result in results:
        path = out_dir / f"BENCH_{result['name']}.json"
        path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        paths.append(path)
    return paths


def metric_direction(metric: str) -> int:
    """+1 when higher is better, -1 when lower is better, 0 if unknown
    (unknown metrics are informational and never fail the comparison)."""
    if metric.endswith(("_per_s", "_speedup", "_reduction")):
        return 1
    if metric.endswith("_seconds"):
        return -1
    return 0


def compare_result(
    result: dict, baseline: dict, tolerance: float = DEFAULT_TOLERANCE
) -> list[str]:
    """Regression messages for one result vs its baseline ([] if clean)."""
    problems: list[str] = []
    base_metrics = baseline.get("metrics", {})
    for metric, value in result["metrics"].items():
        if metric not in base_metrics:
            continue
        base = float(base_metrics[metric])
        direction = metric_direction(metric)
        if direction == 0 or base == 0:
            continue
        change = (float(value) - base) / abs(base)
        if direction * change < -tolerance:
            problems.append(
                f"{result['name']}.{metric}: {value:.4g} vs baseline "
                f"{base:.4g} ({change:+.1%}, tolerance {tolerance:.0%})"
            )
    return problems


# ---------------------------------------------------------------------------
# the curated benches


def _rate(n: int, elapsed: float) -> float:
    return n / elapsed if elapsed > 0 else 0.0


def bench_db_throughput(smoke: bool = False) -> dict:
    """Raw backend ops/s: create, pop_out, report, for both backends.

    The report phase uses ``report_batch`` in pop-sized chunks — the
    store-level hot path after the batching overhaul (the pool's shared
    reporter and the service's batch RPC both land here); the per-item
    ``report`` rate is kept as ``<label>_report_single_per_s``.
    """
    from repro.db import MemoryTaskStore, SqliteTaskStore

    n = 200 if smoke else 2000
    metrics: dict[str, float] = {}
    for label, store in (
        ("memory", MemoryTaskStore()),
        ("sqlite", SqliteTaskStore(":memory:")),
    ):
        t0 = time.perf_counter()
        ids = store.create_tasks("bench", 0, ["{}"] * n)
        t1 = time.perf_counter()
        popped = []
        while len(popped) < n:
            popped.extend(store.pop_out(0, n=50))
        t2 = time.perf_counter()
        for i in range(0, n, 50):
            store.report_batch(
                [(tid, 0, "{}") for tid, _payload in popped[i : i + 50]]
            )
        t3 = time.perf_counter()
        assert len(ids) == n
        # Second round for the per-item report rate (the first round's
        # tasks are already COMPLETE).
        ids2 = store.create_tasks("bench2", 0, ["{}"] * n)
        popped2 = []
        while len(popped2) < n:
            popped2.extend(store.pop_out(0, n=50))
        t4 = time.perf_counter()
        for eq_task_id, _payload in popped2:
            store.report(eq_task_id, 0, "{}")
        t5 = time.perf_counter()
        assert len(ids2) == n
        metrics[f"{label}_create_per_s"] = _rate(n, t1 - t0)
        metrics[f"{label}_pop_per_s"] = _rate(n, t2 - t1)
        metrics[f"{label}_report_per_s"] = _rate(n, t3 - t2)
        metrics[f"{label}_report_single_per_s"] = _rate(n, t5 - t4)
        store.close()
    return make_result("db_throughput", metrics, smoke, {"n_tasks": n})


def bench_store_rpc(smoke: bool = False) -> dict:
    """RemoteTaskStore over loopback: the full create → pop → report
    cycle through the TCP service, plus stats() round-trip time."""
    from repro.core.service import TaskService
    from repro.core.service_client import RemoteTaskStore
    from repro.db import MemoryTaskStore

    n = 50 if smoke else 500
    service = TaskService(MemoryTaskStore(), port=0)
    service.start()
    try:
        host, port = service.address
        remote = RemoteTaskStore(host, port)
        try:
            t0 = time.perf_counter()
            remote.create_tasks("bench", 0, ["{}"] * n)
            t1 = time.perf_counter()
            popped = []
            while len(popped) < n:
                popped.extend(remote.pop_out(0, n=50))
            t2 = time.perf_counter()
            for eq_task_id, _payload in popped:
                remote.report(eq_task_id, 0, "{}")
            t3 = time.perf_counter()
            # stats before the second task round so its RTT is measured
            # over the same store population as the committed baseline.
            n_stats = 20 if smoke else 100
            t4 = time.perf_counter()
            for _ in range(n_stats):
                remote.stats()
            t5 = time.perf_counter()
            # Batched report round trip: the same n results in n/50
            # report_batch RPCs (fresh tasks — the first round's are
            # already COMPLETE and would dedup to no-ops).
            remote.create_tasks("bench2", 0, ["{}"] * n)
            popped2 = []
            while len(popped2) < n:
                popped2.extend(remote.pop_out(0, n=50))
            t6 = time.perf_counter()
            for i in range(0, n, 50):
                remote.report_batch(
                    [(tid, 0, "{}") for tid, _payload in popped2[i : i + 50]]
                )
            t7 = time.perf_counter()
            metrics = {
                "create_per_s": _rate(n, t1 - t0),
                "pop_per_s": _rate(n, t2 - t1),
                "report_per_s": _rate(n, t3 - t2),
                "report_batch_per_s": _rate(n, t7 - t6),
                "stats_rtt_seconds": (t5 - t4) / n_stats,
            }
        finally:
            remote.close()
    finally:
        service.stop()
    return make_result("store_rpc", metrics, smoke, {"n_tasks": n})


def bench_service_rpc(smoke: bool = False) -> dict:
    """Service request throughput on the cheapest call (queue length),
    lockstep: one round trip per request."""
    from repro.core.service import TaskService
    from repro.core.service_client import RemoteTaskStore
    from repro.db import MemoryTaskStore

    n = 100 if smoke else 2000
    service = TaskService(MemoryTaskStore(), port=0)
    service.start()
    try:
        host, port = service.address
        remote = RemoteTaskStore(host, port)
        try:
            remote.queue_in_length()  # connect + handshake outside the clock
            t0 = time.perf_counter()
            for _ in range(n):
                remote.queue_in_length()
            t1 = time.perf_counter()
            metrics = {
                "requests_per_s": _rate(n, t1 - t0),
                "rtt_seconds": (t1 - t0) / n,
            }
        finally:
            remote.close()
    finally:
        service.stop()
    return make_result("service_rpc", metrics, smoke, {"n_requests": n})


def bench_pool_throughput(
    smoke: bool = False, with_monitoring: bool = False
) -> dict:
    """End-to-end tasks/s through a threaded pool on trivial tasks.

    With ``with_monitoring`` the same workload runs behind a service
    carrying an active StoreSampler — the number the <5% monitoring
    overhead budget is judged against.
    """
    from repro.core import EQSQL, as_completed
    from repro.db import MemoryTaskStore
    from repro.pools import PoolConfig, PythonTaskHandler, ThreadedWorkerPool
    from repro.telemetry.metrics import MetricsRegistry

    n = 50 if smoke else 400
    store = MemoryTaskStore()
    sampler = None
    if with_monitoring:
        from repro.telemetry.monitor import StoreSampler

        sampler = StoreSampler(store, metrics=MetricsRegistry(), interval=0.05)
        sampler.start()
    eq = EQSQL(store)
    pool = ThreadedWorkerPool(
        eq,
        PythonTaskHandler(lambda d: d),
        PoolConfig(work_type=0, n_workers=4, batch_size=8, poll_delay=0.001),
    ).start()
    try:
        t0 = time.perf_counter()
        futures = eq.submit_tasks("bench", 0, ["{}"] * n)
        done = list(as_completed(futures, delay=0.001, timeout=120))
        t1 = time.perf_counter()
        assert len(done) == n
    finally:
        pool.stop()
        if sampler is not None:
            sampler.stop()
        eq.close()
    name = "pool_throughput_monitored" if with_monitoring else "pool_throughput"
    return make_result(
        name,
        {"tasks_per_s": _rate(n, t1 - t0)},
        smoke,
        {"n_tasks": n, "n_workers": 4, "with_monitoring": with_monitoring},
    )


def bench_journal_overhead(smoke: bool = False) -> dict:
    """Flight-recorder cost on the store report hot path.

    Runs the memory backend's per-item ``report`` loop (the pool's
    result path) twice over identical workloads: once with a journal
    attached but disabled — the default production configuration, which
    must stay free — and once recording.  ``disabled_report_per_s`` is
    the number the "near-zero cost when off" claim is judged against;
    ``enabled_report_per_s`` prices turning forensics on.
    """
    from repro.db import MemoryTaskStore
    from repro.telemetry.journal import Journal

    n = 200 if smoke else 2000
    metrics: dict[str, float] = {}
    for label, enabled in (("disabled", False), ("enabled", True)):
        journal = Journal(enabled=enabled, capacity=8 * n)
        store = MemoryTaskStore(journal=journal)
        store.create_tasks("bench", 0, ["{}"] * n)
        popped = []
        while len(popped) < n:
            popped.extend(store.pop_out(0, n=50))
        t0 = time.perf_counter()
        for eq_task_id, _payload in popped:
            store.report(eq_task_id, 0, "{}")
        t1 = time.perf_counter()
        assert len(popped) == n
        metrics[f"{label}_report_per_s"] = _rate(n, t1 - t0)
        store.close()
        journal.close()
    return make_result("journal_overhead", metrics, smoke, {"n_tasks": n})


def bench_task_profile_overhead(smoke: bool = False) -> dict:
    """Per-task profiling cost on the pool's execution hot path.

    The same no-op workload runs through a threaded pool twice: with
    ``profile_tasks`` off (the default — must stay free) and on.  The
    enabled number prices a getrusage + two clock reads per task plus
    the profile dict riding each report; the ISSUE's budget is <5%
    overhead on no-op work, judged on ``enabled_tasks_per_s`` vs
    ``disabled_tasks_per_s`` (``overhead_fraction`` is informational).
    """
    from repro.core import EQSQL, as_completed
    from repro.db import MemoryTaskStore
    from repro.pools import PoolConfig, PythonTaskHandler, ThreadedWorkerPool

    n = 50 if smoke else 400
    metrics: dict[str, float] = {}
    for label, profiled in (("disabled", False), ("enabled", True)):
        eq = EQSQL(MemoryTaskStore())
        pool = ThreadedWorkerPool(
            eq,
            PythonTaskHandler(lambda d: d),
            PoolConfig(
                work_type=0, n_workers=4, batch_size=8, poll_delay=0.001,
                profile_tasks=profiled,
            ),
        ).start()
        try:
            t0 = time.perf_counter()
            futures = eq.submit_tasks("bench", 0, ["{}"] * n)
            done = list(as_completed(futures, delay=0.001, timeout=120))
            t1 = time.perf_counter()
            assert len(done) == n
        finally:
            pool.stop()
            eq.close()
        metrics[f"{label}_tasks_per_s"] = _rate(n, t1 - t0)
    if metrics["disabled_tasks_per_s"] > 0:
        metrics["overhead_fraction"] = max(
            0.0,
            1.0 - metrics["enabled_tasks_per_s"] / metrics["disabled_tasks_per_s"],
        )
    return make_result(
        "task_profile_overhead", metrics, smoke, {"n_tasks": n, "n_workers": 4}
    )


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1))))
    return sorted_values[idx]


def bench_dispatch_latency(smoke: bool = False) -> dict:
    """Submit→run_start latency through an idle, long-polling pool.

    One task at a time against an otherwise-idle 2-worker pool; latency
    is ``run_start.time - enqueue.time`` from the shared journal (both
    stamped by the same EQSQL clock).  The fetcher is parked in a
    long-poll when each task lands, so dispatch costs O(wake + handoff).
    """
    from repro.core import EQSQL
    from repro.db import MemoryTaskStore
    from repro.pools import PoolConfig, PythonTaskHandler, ThreadedWorkerPool
    from repro.telemetry.journal import EV_ENQUEUE, EV_RUN_START, Journal

    n = 8 if smoke else 30
    journal = Journal(enabled=True, capacity=16 * n)
    eq = EQSQL(MemoryTaskStore(journal=journal))
    pool = ThreadedWorkerPool(
        eq,
        PythonTaskHandler(lambda d: d),
        # A stock pool: the bench prices dispatch exactly as it ships.
        PoolConfig(work_type=0, n_workers=2),
        journal=journal,
    ).start()
    try:
        for _ in range(n):
            future = eq.submit_task("bench", 0, "{}")
            status, _payload = future.result(delay=0.002, timeout=30)
            assert status.name == "SUCCESS"
            # Let the fetcher return to its idle wait so the next
            # submission measures dispatch from a quiet pool.
            time.sleep(0.03)
    finally:
        pool.stop()
        eq.close()
    latencies: list[float] = []
    for record in journal.records():
        if record.event == EV_ENQUEUE:
            enqueued = record.time
        elif record.event == EV_RUN_START:
            latencies.append(record.time - enqueued)
    journal.close()
    assert len(latencies) == n
    latencies.sort()
    metrics = {
        "wait_p50_seconds": _percentile(latencies, 0.50),
        "wait_p99_seconds": _percentile(latencies, 0.99),
    }
    return make_result(
        "dispatch_latency", metrics, smoke, {"n_tasks": n, "n_workers": 2}
    )


def bench_idle_rpc_rate(smoke: bool = False) -> dict:
    """RPCs per second from one idle fetcher against a live service.

    Replays an idle fetch loop over a fixed window in both modes: a
    bench-local sleep-polling arm (one non-blocking ``pop_out`` per
    default ``poll_delay``) and the pools' long-poll (one
    ``pop_out(wait=FETCH_WAIT)`` that blocks server-side).  RPCs are
    counted from the client's own metrics registry.  ``rpc_reduction``
    is the headline: an idle fleet must cost > 10× fewer requests per
    second event-driven than polling.
    """
    from repro.core.service import TaskService
    from repro.core.service_client import RemoteTaskStore
    from repro.db import MemoryTaskStore
    from repro.pools.config import FETCH_WAIT, PoolConfig
    from repro.telemetry.metrics import MetricsRegistry

    poll_delay = PoolConfig(work_type=0).poll_delay
    wait_seconds = 0.1 if smoke else FETCH_WAIT
    window = 0.5 if smoke else 3.0
    service = TaskService(MemoryTaskStore(), port=0)
    service.start()
    try:
        host, port = service.address
        registry = MetricsRegistry()
        remote = RemoteTaskStore(host, port, metrics=registry)
        rpcs = registry.counter("service.client.rpcs")
        try:
            metrics: dict[str, float] = {}
            for label, wait in (("polling", None), ("wait", wait_seconds)):
                before = rpcs.value
                t0 = time.perf_counter()
                deadline = t0 + window
                while time.perf_counter() < deadline:
                    assert remote.pop_out(0, n=4, wait=wait) == []
                    if wait is None:
                        time.sleep(poll_delay)
                elapsed = time.perf_counter() - t0
                metrics[f"{label}_rpc_rate"] = _rate(
                    int(rpcs.value - before), elapsed
                )
        finally:
            remote.close()
    finally:
        service.stop()
    if metrics["wait_rpc_rate"] > 0:
        metrics["rpc_reduction"] = (
            metrics["polling_rpc_rate"] / metrics["wait_rpc_rate"]
        )
    return make_result(
        "idle_rpc_rate",
        metrics,
        smoke,
        {"window_seconds": window, "poll_delay": poll_delay,
         "wait_seconds": wait_seconds},
    )


def bench_telemetry_push(smoke: bool = False) -> dict:
    """Fleet telemetry RPC throughput: envelope pushes/s over loopback.

    A TelemetryPusher drives ``push_once`` in a tight loop against a
    live service's ``telemetry`` RPC — the heartbeat is normally one
    push every ~10 s per worker, so any number here means the plane is
    invisible at fleet scale; the bench guards the registry's ingest
    path (sanitize + sweep + aggregate under one lock) from regressing.
    """
    from repro.core.service import TaskService
    from repro.core.service_client import RemoteTaskStore
    from repro.db import MemoryTaskStore
    from repro.telemetry.fleet import TelemetryPusher

    n = 50 if smoke else 1000
    service = TaskService(MemoryTaskStore(), port=0)
    service.start()
    try:
        host, port = service.address
        remote = RemoteTaskStore(host, port)
        try:
            profiles = [
                {"task_id": i, "work_type": 0, "wall_seconds": 0.01,
                 "cpu_seconds": 0.009}
                for i in range(8)
            ]
            pusher = TelemetryPusher(
                worker_id="bench-pool",
                role="pool",
                sink=remote.telemetry,
                interval=10.0,
                envelope_fn=lambda: {
                    "busy_fraction": 0.5, "n_workers": 4, "owned": 8,
                    "tasks_completed": 100, "profiles": profiles,
                },
            )
            assert pusher.push_once()  # connect outside the clock
            t0 = time.perf_counter()
            for _ in range(n):
                pusher.push_once()
            t1 = time.perf_counter()
            assert pusher.push_errors == 0
        finally:
            remote.close()
    finally:
        service.stop()
    return make_result(
        "telemetry_push",
        {"pushes_per_s": _rate(n, t1 - t0), "push_rtt_seconds": (t1 - t0) / n},
        smoke,
        {"n_pushes": n, "profiles_per_envelope": len(profiles)},
    )


def bench_cache_hit_latency(smoke: bool = False) -> dict:
    """Cache-hit submit→result latency vs the cold execution round trip.

    Cold: submit a distinct payload through a live threaded pool and
    block for its result — pays create, pop, execute, report, and the
    result pop.  Hit: resubmit the same payloads with ``cache="read"``
    — the future returns already resolved from one ``cache_get``.  The
    ISSUE's acceptance bar is ``hit_vs_cold_speedup`` ≥ 10×.
    """
    from repro.core import EQSQL
    from repro.db import MemoryTaskStore
    from repro.pools import PoolConfig, PythonTaskHandler, ThreadedWorkerPool

    n = 20 if smoke else 200
    # A fixed per-task cost stands in for model execution — 1 ms is
    # *conservative*: real epi simulations run for seconds, so the
    # measured speedup is a floor on the production win.
    task_cost = 0.001

    def handler(data):
        time.sleep(task_cost)
        return data

    eq = EQSQL(MemoryTaskStore(cache_capacity=2 * n))
    pool = ThreadedWorkerPool(
        eq,
        PythonTaskHandler(handler),
        PoolConfig(work_type=0, n_workers=4, batch_size=8, poll_delay=0.001),
    ).start()
    payloads = ['{"point": %d}' % i for i in range(n)]
    try:
        t0 = time.perf_counter()
        for payload in payloads:
            future = eq.submit_task("bench", 0, payload, cache="readwrite")
            status, _result = future.result(delay=0.001, timeout=60)
            assert status.name == "SUCCESS"
        t1 = time.perf_counter()
        cold = (t1 - t0) / n

        t0 = time.perf_counter()
        for payload in payloads:
            future = eq.submit_task("bench", 0, payload, cache="read")
            status, _result = future.result(delay=0.001, timeout=60)
            assert status.name == "SUCCESS"
        t1 = time.perf_counter()
        hit = (t1 - t0) / n
        stats = eq.cache_stats()
        assert stats["hits"] >= n, stats
    finally:
        pool.stop()
        eq.close()
    return make_result(
        "cache_hit_latency",
        {
            "cold_roundtrip_seconds": cold,
            "hit_roundtrip_seconds": hit,
            "hit_vs_cold_speedup": cold / hit if hit > 0 else 0.0,
        },
        smoke,
        {"n_tasks": n, "n_workers": 4, "task_cost_seconds": task_cost},
    )


def bench_repeated_sweep(smoke: bool = False) -> dict:
    """A parameter sweep re-run with duplicate points, cached vs not.

    Sweeps ``n_points`` distinct payloads ``n_repeats`` times.  Uncached,
    every point executes every repeat; with ``cache="readwrite"`` only
    the first repeat executes — later repeats are served from the cache
    (or coalesce in flight) and skip the pool entirely.
    ``duplicate_skip_reduction`` is the executed-work saved
    (``(n_repeats - 1) / n_repeats`` when the cache is perfect).
    """
    import threading

    from repro.core import EQSQL, as_completed
    from repro.db import MemoryTaskStore
    from repro.pools import PoolConfig, PythonTaskHandler, ThreadedWorkerPool

    n_points = 10 if smoke else 60
    n_repeats = 3
    total = n_points * n_repeats
    payloads = ['{"point": %d}' % i for i in range(n_points)]
    metrics: dict[str, float] = {}
    executed_by_mode: dict[str, int] = {}
    for label, cache in (("uncached", "off"), ("cached", "readwrite")):
        executed = 0
        lock = threading.Lock()

        def handler(data, _lock=lock):
            nonlocal executed
            with _lock:
                executed += 1
            return data

        eq = EQSQL(MemoryTaskStore(cache_capacity=2 * n_points))
        pool = ThreadedWorkerPool(
            eq,
            PythonTaskHandler(handler),
            PoolConfig(work_type=0, n_workers=4, batch_size=8, poll_delay=0.001),
        ).start()
        try:
            t0 = time.perf_counter()
            for _repeat in range(n_repeats):
                futures = eq.submit_tasks("bench", 0, payloads, cache=cache)
                done = list(as_completed(futures, delay=0.001, timeout=120))
                assert len(done) == n_points
            t1 = time.perf_counter()
        finally:
            pool.stop()
            eq.close()
        metrics[f"{label}_sweep_per_s"] = _rate(total, t1 - t0)
        executed_by_mode[label] = executed
    assert executed_by_mode["uncached"] == total
    assert executed_by_mode["cached"] == n_points, executed_by_mode
    metrics["tasks_executed_cached"] = float(executed_by_mode["cached"])
    metrics["duplicate_skip_reduction"] = (
        (total - executed_by_mode["cached"]) / total
    )
    return make_result(
        "repeated_sweep",
        metrics,
        smoke,
        {"n_points": n_points, "n_repeats": n_repeats, "n_workers": 4},
    )


BENCHES: dict[str, Callable[[bool], dict]] = {
    "db_throughput": bench_db_throughput,
    "store_rpc": bench_store_rpc,
    "service_rpc": bench_service_rpc,
    "pool_throughput": bench_pool_throughput,
    "pool_throughput_monitored": lambda smoke: bench_pool_throughput(
        smoke, with_monitoring=True
    ),
    "journal_overhead": bench_journal_overhead,
    "task_profile_overhead": bench_task_profile_overhead,
    "telemetry_push": bench_telemetry_push,
    "dispatch_latency": bench_dispatch_latency,
    "idle_rpc_rate": bench_idle_rpc_rate,
    "cache_hit_latency": bench_cache_hit_latency,
    "repeated_sweep": bench_repeated_sweep,
}


# ---------------------------------------------------------------------------
# harness driver


def load_baseline(path: str | Path) -> dict[str, dict]:
    """A committed baseline file: ``{"<bench name>": {result...}}``."""
    with open(path) as f:
        data = json.load(f)
    if not isinstance(data, dict):
        raise ValueError("baseline must be a JSON object keyed by bench name")
    return data


def run_harness(
    names: Iterable[str] | None = None,
    smoke: bool = False,
    out_dir: str | Path = "benchmarks/reports",
    baseline_path: str | Path | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    out=sys.stdout,
) -> int:
    """Run the curated benches; returns the process exit code.

    0 — all ran, schema valid, no regressions; 1 — regression vs
    baseline; 2 — schema violation or unknown bench name.
    """
    selected = list(names) if names else list(BENCHES)
    unknown = [n for n in selected if n not in BENCHES]
    if unknown:
        print(f"bench: unknown bench(es): {', '.join(unknown)}", file=out)
        print(f"bench: available: {', '.join(BENCHES)}", file=out)
        return 2

    results = []
    for name in selected:
        print(f"bench: running {name}{' (smoke)' if smoke else ''} ...", file=out)
        result = BENCHES[name](smoke)
        errors = validate_result(result)
        if errors:
            print(f"bench: {name}: schema violation: {'; '.join(errors)}", file=out)
            return 2
        for metric, value in sorted(result["metrics"].items()):
            print(f"  {metric} = {value:.4g}", file=out)
        results.append(result)

    paths = write_results(results, out_dir)
    for path in paths:
        print(f"bench: wrote {path}", file=out)

    if baseline_path is not None:
        baseline = load_baseline(baseline_path)
        problems: list[str] = []
        for result in results:
            base = baseline.get(result["name"])
            if base is None:
                print(f"bench: no baseline for {result['name']}; skipping", file=out)
                continue
            if bool(base.get("smoke")) != bool(result["smoke"]):
                print(
                    f"bench: warning: comparing a "
                    f"{'smoke' if result['smoke'] else 'full'} run against a "
                    f"{'smoke' if base.get('smoke') else 'full'} baseline for "
                    f"{result['name']} — smaller workloads amortize less, "
                    "expect pessimistic numbers",
                    file=out,
                )
            base_errors = validate_result(base)
            if base_errors:
                print(
                    f"bench: baseline for {result['name']} invalid: "
                    f"{'; '.join(base_errors)}",
                    file=out,
                )
                return 2
            problems.extend(compare_result(result, base, tolerance))
        if problems:
            print("bench: REGRESSIONS:", file=out)
            for problem in problems:
                print(f"  {problem}", file=out)
            return 1
        print("bench: no regressions vs baseline", file=out)
    return 0
