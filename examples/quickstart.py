"""Quickstart: submit tasks, run a worker pool, collect results.

The minimal OSPREY loop — the Python side of the paper's Listing 1:
an ME algorithm submits JSON tasks to the EMEWS DB, a worker pool pops
them off the output queue (batch/threshold discipline), executes them,
and reports results to the input queue, where futures pick them up.

Run:  python examples/quickstart.py
      python examples/quickstart.py --trace trace.json

With ``--trace`` the same workload runs end-to-end traced — through a
real EMEWS service on TCP loopback, so the trace shows the wire hop —
and writes a Chrome ``trace_event`` file loadable in Perfetto or
``about:tracing``.
"""

from __future__ import annotations

import argparse
import json

from repro import (
    EQ_STOP,
    PoolConfig,
    PythonTaskHandler,
    ThreadedWorkerPool,
    as_completed,
    init_eqsql,
)


def simulate(params: dict) -> dict:
    """A stand-in simulation: return the square and a 'severity'."""
    x = params["x"]
    return {"y": x * x, "severity": "high" if x * x > 25 else "low"}


def run(eq, pool) -> None:
    # 2. Submit tasks: experiment id, work type, JSON payload, priority.
    futures = eq.submit_tasks(
        "quickstart-exp",
        0,
        [json.dumps({"x": x}) for x in range(10)],
        priority=0,
    )
    print(f"submitted {len(futures)} tasks; output queue: {eq.queue_lengths(0)[0]}")

    # 3. Start the worker pool.
    pool.start()

    # 4. Consume results as they complete (asynchronous API, §V-B).
    for future in as_completed(futures, timeout=30):
        status, payload = future.result(timeout=0)
        result = json.loads(payload)
        print(f"  task {future.eq_task_id}: y={result['y']:>3} severity={result['severity']}")

    # 5. Stop the pool with the EQ_STOP sentinel (drains cleanly).
    stop = eq.submit_task("quickstart-exp", 0, EQ_STOP, priority=-100)
    stop.result(timeout=10, delay=0.05)
    pool.join(timeout=10)
    print(f"pool done: {pool.tasks_completed} completed, {pool.tasks_failed} failed")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="trace the run and write Chrome trace_event JSON to PATH",
    )
    args = parser.parse_args()

    pool_config = PoolConfig(
        work_type=0, n_workers=3, batch_size=3, threshold=1, name="local-pool"
    )

    if args.trace is None:
        # 1. Open the EMEWS DB (SQLite in memory here; pass a file path
        #    for a durable one).
        eq = init_eqsql()
        pool = ThreadedWorkerPool(eq, PythonTaskHandler(simulate), pool_config)
        run(eq, pool)
        eq.close()
        return

    # Traced variant: same loop, but through a real service wire hop,
    # under a process-wide tracer sharing one clock with every component.
    from repro.core.eqsql import EQSQL
    from repro.core.service import TaskService
    from repro.core.service_client import RemoteTaskStore
    from repro.db.sqlite_backend import SqliteTaskStore
    from repro.telemetry.trace_export import (
        render_latency_breakdown,
        save_chrome_trace,
    )
    from repro.telemetry.tracing import Tracer, get_tracer, set_tracer
    from repro.util.clock import SystemClock

    tracer = Tracer(clock=SystemClock(), enabled=True)
    previous = set_tracer(tracer)
    service = TaskService(SqliteTaskStore()).start()
    try:
        host, port = service.address
        remote = RemoteTaskStore(host, port)
        eq = EQSQL(remote, clock=tracer.clock)
        pool = ThreadedWorkerPool(eq, PythonTaskHandler(simulate), pool_config)
        with get_tracer().span("driver.run", component="driver"):
            run(eq, pool)
        eq.close()
    finally:
        service.stop()
        set_tracer(previous)

    events = save_chrome_trace(tracer, args.trace)
    print(
        f"\nwrote {events} trace events ({len(tracer)} spans, "
        f"components: {', '.join(sorted(tracer.components()))}) -> {args.trace}"
    )
    print("\nlatency breakdown:\n")
    print(render_latency_breakdown(tracer))


if __name__ == "__main__":
    main()
