"""Pool launcher: one ``ThreadedWorkerPool(n_workers=2)`` over the wire.

The repo has no ``pool`` CLI, so the benchmark brings its own.  The pool
runs with stock ``PoolConfig`` defaults apart from what the workload
states (``batch_size=32`` on the two sweeps).  It exits when the driver
submits ``EQ_STOP`` (the paper's shutdown convention; SIGTERM is the
fallback) and then prints ``STATS {...}`` with the pool's own counters,
which the driver requires to show no failed task and no lost report.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.core import EQSQL, RemoteTaskStore  # noqa: E402
from repro.pools import PoolConfig, PythonTaskHandler, ThreadedWorkerPool  # noqa: E402

from spans import Recorder, TimedHandler, TimedStore  # noqa: E402
from workloads import N_WORKERS, WORK_TYPE, WORKLOADS, Inputs  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", help="traced run: write this process's spans here")
    args = parser.parse_args()

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())

    workload = WORKLOADS[args.workload]
    inputs = Inputs(workload, args.seed)
    handler = PythonTaskHandler(inputs.handler_fn, json_io=inputs.json_io)
    store = RemoteTaskStore("127.0.0.1", args.port)
    recorder = Recorder() if args.spans else None
    if recorder:
        store = TimedStore(store, recorder, "service_client")
        handler = TimedHandler(handler, recorder)
    config = PoolConfig(work_type=WORK_TYPE, n_workers=N_WORKERS, name="e2e-pool", **workload.pool)
    pool = ThreadedWorkerPool(EQSQL(store), handler, config).start()
    try:
        while pool.is_alive():
            if stop.wait(0.1):
                pool.stop()
        pool.join()
    finally:
        store.close()
        stats = {
            "tasks_completed": pool.tasks_completed,
            "tasks_failed": pool.tasks_failed,
            "reports_lost": pool.reports_lost,
        }
        print("STATS " + json.dumps(stats), flush=True)
        if recorder:
            recorder.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
