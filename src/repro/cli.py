"""Command-line interface: regenerate the paper's figures and sweeps.

Usage::

    python -m repro fig3 [--tasks N] [--seed S]
    python -m repro fig4 [--tasks N] [--seed S]
    python -m repro sweep-batch
    python -m repro sweep-threshold
    python -m repro gpr-ablation
    python -m repro trace [--tasks N] [--out trace.json] [--spans spans.jsonl]
    python -m repro metrics [--tasks N]
    python -m repro chaos [--tasks N] [--sever-rate R] [--kill-pool]
    python -m repro monitor URL [--interval S] [--once] [--json]
    python -m repro timeline TASK_ID --journal FILE [--journal FILE ...]
    python -m repro stragglers URL [--interval S] [--once] [--json]
    python -m repro fleet URL [--interval S] [--once] [--json]
    python -m repro conform [--seeds N] [--start-seed S] [--paths P,...]

The figure and sweep commands print the series the paper's figures plot
(``tests/sim/test_golden_figures.py`` pins their text), so a user can
eyeball the reproduced figures without running pytest.  ``trace`` runs a
fully instrumented ME → service → pool workload and exports the spans
(Chrome ``trace_event`` JSON for Perfetto, optional JSONL, and a
latency-breakdown table); ``metrics`` runs the same workload and prints
the always-on counter / histogram registry; ``chaos`` runs the workload
through a fault-injecting TCP proxy (random severs, optional mid-batch
pool kill) and verifies zero lost or duplicated results; ``monitor``
renders a live terminal view of a running service's ``/status``
endpoint; ``timeline`` merges flight-recorder journal files from any
number of roles into one task's causally-ordered lifecycle;
``stragglers`` is the live view over a service's ``/events`` route,
``fleet`` the one over ``/fleet``; and ``conform`` fuzzes the memory /
sqlite / remote store paths against the reference model.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

import numpy as np

from repro.sim import Fig3Config, Fig4Config, run_fig3_panel, run_fig4
from repro.sim.scenarios import FIG3_PANELS
from repro.telemetry import ascii_chart, render_table, sample_series


def _cmd_fig3(args: argparse.Namespace) -> int:
    print(f"Figure 3 — one 33-worker pool, {args.tasks} tasks, three fetch policies\n")
    rows = []
    for batch, threshold in FIG3_PANELS:
        config = Fig3Config(
            batch_size=batch, threshold=threshold, n_tasks=args.tasks, seed=args.seed
        )
        result = run_fig3_panel(config)
        _, values = sample_series(result.series, n_samples=100)
        print(ascii_chart(values, max_value=config.n_workers, width=80,
                          label=f"{config.label():24s}"))
        rows.append(
            [config.label(), result.stats["utilization"],
             result.stats["full_fraction"], result.stats["dip_depth_mean"],
             result.n_fetches, result.makespan]
        )
    print()
    print(render_table(
        ["policy", "utilization", "full_frac", "dip_depth", "fetches", "makespan"],
        rows,
    ))
    return 0


def _cmd_fig4(args: argparse.Namespace) -> int:
    config = Fig4Config(n_tasks=args.tasks, seed=args.seed)
    result = run_fig4(config)
    print(
        f"Figure 4 — {args.tasks} tasks, 3 pools x {config.n_workers} workers, "
        f"GPR repri every {config.repri_every} (makespan {result.makespan:.0f} s)\n"
    )
    for name in result.pool_names:
        _, values = sample_series(result.pool_series[name], n_samples=100)
        print(ascii_chart(values, max_value=config.n_workers, width=80, label=name))
    print()
    print(render_table(
        ["pool", "submitted", "started", "queue wait", "tasks"],
        [
            [name, *result.pool_timing[name],
             result.pool_timing[name][1] - result.pool_timing[name][0],
             result.pool_completed[name]]
            for name in result.pool_names
        ],
    ))
    print()
    print(render_table(
        ["repri#", "start", "duration", "completed", "reprioritized"],
        [
            [r.index, r.time_start, r.time_stop - r.time_start,
             r.n_completed, r.n_reprioritized]
            for r in result.reprioritizations
        ],
    ))
    return 0


def _cmd_sweep_batch(args: argparse.Namespace) -> int:
    print("Batch-size sweep (33 workers, threshold 1)\n")
    rows = []
    for batch in (33, 38, 43, 50, 66):
        result = run_fig3_panel(
            Fig3Config(batch_size=batch, threshold=1, n_tasks=args.tasks, seed=args.seed)
        )
        rows.append([batch, result.stats["utilization"],
                     result.stats["full_fraction"], batch - 33, result.makespan])
    print(render_table(
        ["batch", "utilization", "full_frac", "cache surplus", "makespan"], rows))
    return 0


def _cmd_sweep_threshold(args: argparse.Namespace) -> int:
    print("Threshold sweep (33 workers, batch 33)\n")
    rows = []
    for threshold in (1, 5, 10, 15, 25, 33):
        result = run_fig3_panel(
            Fig3Config(batch_size=33, threshold=threshold, n_tasks=args.tasks,
                       seed=args.seed)
        )
        rows.append([threshold, result.stats["utilization"],
                     result.stats["dip_depth_mean"], result.n_fetches,
                     result.makespan])
    print(render_table(
        ["threshold", "utilization", "dip_depth", "fetches", "makespan"], rows))
    return 0


def _cmd_gpr_ablation(args: argparse.Namespace) -> int:
    print("GPR reprioritization ablation\n")
    with_gpr = run_fig4(Fig4Config(n_tasks=args.tasks, seed=args.seed))
    without = run_fig4(
        Fig4Config(n_tasks=args.tasks, seed=args.seed, repri_every=10_000_000)
    )
    traj_gpr = with_gpr.best_trajectory()
    traj_none = without.best_trajectory()
    print(ascii_chart(traj_gpr, width=80, label="best-so-far (GPR) "))
    print(ascii_chart(traj_none, width=80, label="best-so-far (none)"))
    print()
    print(render_table(
        ["variant", "mean best-so-far", "final best", "repri count"],
        [
            ["GPR", float(np.mean(traj_gpr)), float(traj_gpr[-1]),
             len(with_gpr.reprioritizations)],
            ["none", float(np.mean(traj_none)), float(traj_none[-1]), 0],
        ],
    ))
    return 0


def _run_instrumented_workload(n_tasks: int, n_workers: int) -> None:
    """Drive tasks through the full ME → service → pool pipeline.

    The workload crosses the real service wire (TCP loopback) so the
    RTT decomposition — client RPC spans on one side, service/DB spans
    on the other — appears in the trace, and runs a threaded pool with
    an in-process Python handler.  Uses whatever global tracer/metrics
    are installed; callers configure those first.
    """
    import json

    from repro.core.constants import EQ_STOP
    from repro.core.eqsql import EQSQL
    from repro.core.futures import as_completed
    from repro.core.service import TaskService
    from repro.core.service_client import RemoteTaskStore
    from repro.db.memory_backend import MemoryTaskStore
    from repro.pools.config import PoolConfig
    from repro.pools.handlers import PythonTaskHandler
    from repro.pools.pool import ThreadedWorkerPool
    from repro.telemetry.tracing import get_tracer

    tracer = get_tracer()
    service = TaskService(MemoryTaskStore()).start()
    host, port = service.address
    remote = RemoteTaskStore(host, port)
    eq = EQSQL(remote, clock=tracer.clock)
    pool = ThreadedWorkerPool(
        eq,
        PythonTaskHandler(lambda params: {"y": params["x"] ** 2}),
        PoolConfig(
            work_type=0,
            n_workers=n_workers,
            batch_size=n_workers,
            threshold=1,
            name="trace-pool",
            poll_delay=0.005,
        ),
    )
    try:
        with tracer.span("driver.run", component="driver", n_tasks=n_tasks):
            futures = eq.submit_tasks(
                "trace-demo", 0, [json.dumps({"x": x}) for x in range(n_tasks)]
            )
            pool.start()
            with tracer.span("driver.wait_batch", component="driver"):
                for future in as_completed(futures, timeout=60):
                    future.result(timeout=0)
            stop = eq.submit_task("trace-demo", 0, EQ_STOP, priority=-100)
            stop.result(timeout=15, delay=0.01)
        pool.join(timeout=15)
    finally:
        remote.close()
        service.stop()


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.telemetry.metrics import MetricsRegistry, set_metrics
    from repro.telemetry.trace_export import (
        render_latency_breakdown,
        save_chrome_trace,
        save_spans,
    )
    from repro.telemetry.tracing import Tracer, set_tracer
    from repro.util.clock import SystemClock

    # One clock instance shared by the tracer and (via EQSQL) every
    # component timestamp, so retroactive spans align with live ones.
    tracer = Tracer(clock=SystemClock(), enabled=True)
    previous_tracer = set_tracer(tracer)
    previous_metrics = set_metrics(MetricsRegistry())
    try:
        _run_instrumented_workload(args.tasks, args.workers)
    finally:
        set_tracer(previous_tracer)
        set_metrics(previous_metrics)

    events = save_chrome_trace(tracer, args.out)
    print(
        f"traced {args.tasks} tasks: {len(tracer)} spans across "
        f"{len(tracer.components())} components "
        f"({', '.join(sorted(tracer.components()))})"
    )
    print(f"chrome trace ({events} events) -> {args.out}  "
          f"[open in Perfetto / about:tracing]")
    if args.spans is not None:
        count = save_spans(tracer, args.spans)
        print(f"span JSONL ({count} spans) -> {args.spans}")
    print()
    print("latency breakdown (per component/operation, total time desc):\n")
    print(render_latency_breakdown(tracer))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Run the full pipeline through a fault-injecting proxy.

    Everything the resilience layer claims is exercised at once: the
    ME and the pool talk to the service through a :class:`ChaosProxy`
    that randomly severs connections (plus periodic sever-all storms),
    tasks are claimed under leases, the service runs a lease reaper,
    and (with ``--kill-pool``) the first pool is killed mid-batch and a
    replacement picks up the reaped tasks.  Exits non-zero if any
    result was lost or duplicated.
    """
    import json
    import random
    import time

    from repro.core.constants import TaskStatus
    from repro.core.eqsql import EQSQL
    from repro.core.service import TaskService
    from repro.core.service_client import RemoteTaskStore, RetryPolicy
    from repro.db.memory_backend import MemoryTaskStore
    from repro.pools.config import PoolConfig
    from repro.pools.handlers import PythonTaskHandler
    from repro.pools.pool import ThreadedWorkerPool
    from repro.telemetry.metrics import MetricsRegistry, set_metrics
    from repro.testing.chaos import ChaosProxy

    registry = MetricsRegistry()
    previous_metrics = set_metrics(registry)
    rng = random.Random(args.seed)
    retry = RetryPolicy(max_attempts=12, base_delay=0.02, max_delay=0.25)
    final_status: dict = {}

    def make_pool(name: str, eq: EQSQL) -> ThreadedWorkerPool:
        return ThreadedWorkerPool(
            eq,
            PythonTaskHandler(
                lambda params: (time.sleep(0.02), {"y": params["x"] ** 2})[1]
            ),
            PoolConfig(
                work_type=0,
                n_workers=args.workers,
                # Oversubscribe so a killed pool abandons claimed-but-
                # unstarted tasks — the lease reaper's job to recover.
                batch_size=args.workers * 2,
                threshold=1,
                name=name,
                poll_delay=0.005,
                lease_duration=args.lease,
            ),
        )

    # status_port=0 embeds the monitoring endpoint on an ephemeral
    # port; the final report below reads queue/lease state from its
    # /status JSON — the same payload `repro monitor` renders live.
    service = TaskService(
        MemoryTaskStore(metrics=registry),
        lease_reaper_interval=args.lease / 4,
        metrics=registry,
        status_port=0,
        sampler_interval=0.25,
    ).start()
    proxy = ChaosProxy(*service.address, rng=rng).start()
    host, port = proxy.address
    me_store = RemoteTaskStore(host, port, retry=retry, rng=rng)
    pool_store = RemoteTaskStore(host, port, retry=retry, rng=rng)
    me = EQSQL(me_store)
    pools = [make_pool("chaos-pool-1", EQSQL(pool_store))]
    lost = duplicated = severed_storms = 0
    killed = False
    try:
        # Submission runs clean: create_tasks is non-idempotent, so a
        # real ME would not blind-retry it (see DESIGN.md).  The chaos
        # window covers claiming, execution, reporting, and collection.
        futures = me.submit_tasks(
            "chaos-demo", 0, [json.dumps({"x": x}) for x in range(args.tasks)]
        )
        task_ids = [f.eq_task_id for f in futures]
        pools[0].start()
        proxy.set_sever_rate(args.sever_rate)
        deadline = time.time() + args.timeout
        next_storm = time.time() + args.sever_every
        while True:
            statuses = me.query_status(task_ids)
            n_complete = sum(
                1 for _, s in statuses if s == TaskStatus.COMPLETE
            )
            if n_complete == len(task_ids):
                break
            if time.time() > deadline:
                print(
                    f"TIMEOUT: {n_complete}/{len(task_ids)} complete after "
                    f"{args.timeout:.0f}s"
                )
                return 1
            if args.kill_pool and not killed and n_complete >= args.tasks // 3:
                # Abandon the first pool mid-batch: its unfinished tasks
                # stay RUNNING until their leases lapse and the reaper
                # requeues them for the replacement pool.
                pools[0].stop(drain=False)
                killed = True
                replacement = make_pool("chaos-pool-2", EQSQL(me_store))
                pools.append(replacement)
                replacement.start()
                print(
                    f"killed chaos-pool-1 at {n_complete}/{args.tasks} "
                    "complete; started chaos-pool-2"
                )
            if time.time() >= next_storm:
                severed_storms += proxy.sever_all()
                next_storm = time.time() + args.sever_every
            time.sleep(0.05)
        # Collect with chaos off: pop_in_any consumes results, and a
        # lost response there is the one ambiguity retry cannot fix.
        proxy.set_sever_rate(0.0)
        results = me.store.pop_in_any(task_ids)
        got = [task_id for task_id, _ in results]
        lost = len(task_ids) - len(set(got))
        duplicated = len(got) - len(set(got))
        # Final queue/lease state via the embedded status endpoint —
        # the same JSON `repro monitor` polls.
        from repro.telemetry.monitor import fetch_json

        final_status = fetch_json(service.status_url + "/status")
    finally:
        for pool in pools:
            pool.stop(drain=False, timeout=5)
        me_store.close()
        pool_store.close()
        proxy.stop()
        service.stop()
        set_metrics(previous_metrics)

    def count(name: str) -> int:
        metric = registry.get(name)
        return int(metric.value) if metric is not None else 0

    print(f"\n{args.tasks} tasks through a chaos proxy "
          f"(sever_rate={args.sever_rate}, storm every {args.sever_every}s)\n")
    print(render_table(
        ["metric", "value"],
        [
            ["results collected", len(set(got))],
            ["results lost", lost],
            ["results duplicated", duplicated],
            ["proxy connections", proxy.connections_total],
            ["connections severed", proxy.connections_severed],
            ["client retries", count("service.client.retries")],
            ["client reconnects", count("service.client.reconnects")],
            ["leases requeued", count("leases.tasks_requeued")],
            ["lease renewals", count("pool.lease_renewals")],
            ["pool fetch errors", count("pool.fetch_errors")],
            ["pool reports lost", count("pool.report_errors")],
            ["db lease renewals", count("db.lease_renewals")],
            ["db lease requeues", count("db.lease_requeues")],
            ["report withdrawals", count("db.report_withdrawals")],
        ],
    ))
    store_state = final_status.get("store", {})
    if store_state:
        tasks_state = store_state.get("tasks", {})
        leases_state = store_state.get("leases", {})
        print("\nfinal /status (queue + lease state at collection time):\n")
        print(render_table(
            ["state", "value"],
            [
                *[[f"tasks {k}", v] for k, v in tasks_state.items()],
                ["queue_out depth", store_state.get("queue_out_total", 0)],
                ["queue_in depth", store_state.get("queue_in", 0)],
                *[[f"leases {k}", v] for k, v in leases_state.items()],
            ],
        ))
    if lost or duplicated:
        print("\nFAIL: results lost or duplicated under chaos")
        return 1
    print("\nOK: zero lost, zero duplicated")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.telemetry.metrics import MetricsRegistry, get_metrics, set_metrics

    # Metrics are always on; tracing stays at the (disabled) default so
    # this also demonstrates the zero-overhead instrumentation path.
    previous = set_metrics(MetricsRegistry())
    try:
        _run_instrumented_workload(args.tasks, args.workers)
        registry = get_metrics()
    finally:
        set_metrics(previous)
    print(f"metrics after {args.tasks} tasks through the service + pool pipeline:\n")
    print(registry.render_text())
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    from repro.telemetry.monitor import run_monitor

    return run_monitor(
        args.url,
        interval=args.interval,
        once=args.once,
        json_mode=args.json,
    )


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.telemetry.journal import load_journal, render_timeline, task_timeline

    records = []
    for path in args.journal:
        try:
            records.extend(load_journal(path))
        except OSError as exc:
            print(f"timeline: cannot read {path}: {exc}", file=sys.stderr)
            return 1
        except ValueError as exc:
            print(f"timeline: {exc}", file=sys.stderr)
            return 1
    timeline = task_timeline(records, args.task_id)
    if not timeline:
        task_ids = sorted({r.task_id for r in records})
        preview = ", ".join(str(t) for t in task_ids[:20])
        if len(task_ids) > 20:
            preview += ", ..."
        print(
            f"timeline: no records for task {args.task_id} "
            f"({len(records)} records, task ids: {preview or 'none'})",
            file=sys.stderr,
        )
        return 1
    roles = sorted({r.role for r in timeline})
    print(
        f"task {args.task_id}: {len(timeline)} lifecycle records across "
        f"{len(roles)} role(s) ({', '.join(roles)})\n"
    )
    print(render_timeline(timeline))
    return 0


def _cmd_stragglers(args: argparse.Namespace) -> int:
    from repro.telemetry.monitor import run_stragglers

    return run_stragglers(
        args.url,
        interval=args.interval,
        once=args.once,
        json_mode=args.json,
    )


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.telemetry.monitor import run_fleet

    return run_fleet(
        args.url,
        interval=args.interval,
        once=args.once,
        json_mode=args.json,
    )


def _cmd_conform(args: argparse.Namespace) -> int:
    from repro.testing.conformance import (
        ACCESS_PATHS,
        ScheduleConfig,
        run_conformance,
    )

    paths = tuple(args.paths.split(","))
    unknown = [p for p in paths if p not in ACCESS_PATHS]
    if unknown:
        print(
            f"conform: unknown path(s) {unknown}; choose from "
            f"{', '.join(ACCESS_PATHS)}",
            file=sys.stderr,
        )
        return 2
    config = ScheduleConfig(steps=args.steps, n_pools=args.pools)
    seeds = range(args.start_seed, args.start_seed + args.seeds)
    print(
        f"conform: {args.seeds} seed(s) starting at {args.start_seed}, "
        f"{args.steps} steps x {len(paths)} path(s) ({','.join(paths)})"
    )

    def show(result) -> None:
        status = "ok" if result.ok else "FAIL"
        print(
            f"  seed {result.seed:>4}  {status:<4} "
            f"{result.operations:>5} ops  {result.tasks:>4} tasks"
        )
        for violation in result.violations:
            print(f"    !! {violation}")

    report = run_conformance(seeds, paths=paths, config=config, on_result=show)
    print(report.summary())
    if not report.ok:
        # Replay recipe: one seed reruns the identical schedule.
        for seed in report.failing_seeds:
            print(
                f"replay: python -m repro conform --seeds 1 "
                f"--start-seed {seed} --steps {args.steps} "
                f"--pools {args.pools} --paths {args.paths}"
            )
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OSPREY reproduction: regenerate the paper's figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, default_tasks: int) -> None:
        p.add_argument("--tasks", type=int, default=default_tasks,
                       help=f"number of tasks (default {default_tasks})")
        p.add_argument("--seed", type=int, default=2023, help="workload seed")

    p = sub.add_parser("fig3", help="Figure 3: utilization vs fetch policy")
    common(p, 750)
    p.set_defaults(fn=_cmd_fig3)

    p = sub.add_parser("fig4", help="Figure 4: federated three-pool workflow")
    common(p, 750)
    p.set_defaults(fn=_cmd_fig4)

    p = sub.add_parser("sweep-batch", help="ablation: batch-size sweep")
    common(p, 400)
    p.set_defaults(fn=_cmd_sweep_batch)

    p = sub.add_parser("sweep-threshold", help="ablation: threshold sweep")
    common(p, 400)
    p.set_defaults(fn=_cmd_sweep_threshold)

    p = sub.add_parser("gpr-ablation", help="ablation: GPR vs no reprioritization")
    common(p, 400)
    p.set_defaults(fn=_cmd_gpr_ablation)

    p = sub.add_parser(
        "trace",
        help="run a traced ME → service → pool workload, export spans",
    )
    p.add_argument("--tasks", type=int, default=25, help="tasks to run (default 25)")
    p.add_argument("--workers", type=int, default=3, help="pool workers (default 3)")
    p.add_argument("--out", default="trace.json",
                   help="Chrome trace_event output path (default trace.json)")
    p.add_argument("--spans", default=None,
                   help="also write raw spans as JSONL to this path")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser(
        "metrics",
        help="run the workload untraced, print the metrics registry",
    )
    p.add_argument("--tasks", type=int, default=25, help="tasks to run (default 25)")
    p.add_argument("--workers", type=int, default=3, help="pool workers (default 3)")
    p.set_defaults(fn=_cmd_metrics)

    p = sub.add_parser(
        "chaos",
        help="run the workload through a fault-injecting proxy, verify no loss",
    )
    p.add_argument("--tasks", type=int, default=40, help="tasks to run (default 40)")
    p.add_argument("--workers", type=int, default=4, help="pool workers (default 4)")
    p.add_argument("--seed", type=int, default=2023, help="chaos seed")
    p.add_argument("--sever-rate", type=float, default=0.02,
                   help="per-chunk probability of severing a connection")
    p.add_argument("--sever-every", type=float, default=0.75,
                   help="seconds between sever-all storms (default 0.75)")
    p.add_argument("--lease", type=float, default=1.0,
                   help="task lease duration in seconds (default 1.0)")
    p.add_argument("--kill-pool", action="store_true",
                   help="kill the pool mid-batch and recover via the lease reaper")
    p.add_argument("--timeout", type=float, default=120.0,
                   help="overall deadline in seconds (default 120)")
    p.set_defaults(fn=_cmd_chaos)

    p = sub.add_parser(
        "monitor",
        help="live terminal view of a running service's /status endpoint",
    )
    p.add_argument("url", help="status server address (host:port or http URL)")
    p.add_argument("--interval", type=float, default=2.0,
                   help="seconds between polls (default 2)")
    p.add_argument("--once", action="store_true",
                   help="take a single snapshot and exit")
    p.add_argument("--json", action="store_true",
                   help="print the raw /status JSON instead of tables")
    p.set_defaults(fn=_cmd_monitor)

    p = sub.add_parser(
        "timeline",
        help="merge flight-recorder journals into one task's lifecycle view",
    )
    p.add_argument("task_id", type=int, help="the eq_task_id to reconstruct")
    p.add_argument(
        "--journal", action="append", required=True, metavar="FILE",
        help="journal JSONL file (repeat for multiple roles)",
    )
    p.set_defaults(fn=_cmd_timeline)

    p = sub.add_parser(
        "stragglers",
        help="live straggler view of a running service's /events endpoint",
    )
    p.add_argument("url", help="status server address (host:port or http URL)")
    p.add_argument("--interval", type=float, default=2.0,
                   help="seconds between polls (default 2)")
    p.add_argument("--once", action="store_true",
                   help="take a single snapshot and exit")
    p.add_argument("--json", action="store_true",
                   help="print the raw /events JSON instead of tables")
    p.set_defaults(fn=_cmd_stragglers)

    p = sub.add_parser(
        "fleet",
        help="live worker-fleet view of a running service's /fleet endpoint",
    )
    p.add_argument("url", help="status server address (host:port or http URL)")
    p.add_argument("--interval", type=float, default=2.0,
                   help="seconds between polls (default 2)")
    p.add_argument("--once", action="store_true",
                   help="take a single snapshot and exit")
    p.add_argument("--json", action="store_true",
                   help="print the raw /fleet JSON instead of tables")
    p.set_defaults(fn=_cmd_fleet)

    p = sub.add_parser(
        "conform",
        help="store conformance fuzzer: seeded schedules vs all access paths",
    )
    p.add_argument("--seeds", type=int, default=25,
                   help="number of consecutive seeds to run (default 25)")
    p.add_argument("--start-seed", type=int, default=0,
                   help="first seed (default 0); use with --seeds 1 to replay")
    p.add_argument("--steps", type=int, default=150,
                   help="schedule length per seed (default 150)")
    p.add_argument("--pools", type=int, default=3,
                   help="logical worker-pool actors (default 3)")
    p.add_argument("--paths", default="memory,sqlite,remote",
                   help="comma-separated access paths (default all three)")
    p.set_defaults(fn=_cmd_conform)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
