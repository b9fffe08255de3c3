"""Integration: the platform's fault-tolerance story end to end.

Three failure modes the paper's architecture must absorb:
1. a worker pool dies mid-run — its tasks are recovered and re-executed;
2. a fabric endpoint goes offline — queued tasks are delivered when it
   returns (fire-and-forget);
3. the database survives a 'process restart' (durable SQLite file) with
   queued work intact.
"""

from __future__ import annotations

import json

from repro.core import EQSQL, as_completed
from repro.core.recovery import recover_pool
from repro.db import SqliteTaskStore
from repro.fabric import CloudBroker, Endpoint, FabricClient, FabricTaskState
from repro.pools import PoolConfig, PythonTaskHandler, ThreadedWorkerPool


def slow_square(d):
    import time

    time.sleep(0.05)
    return {"y": d["x"] ** 2}


def fast_square(d):
    return {"y": d["x"] ** 2}


class TestPoolCrashRecovery:
    def test_abandoned_tasks_recovered_and_completed(self):
        eq = EQSQL(SqliteTaskStore())
        futures = eq.submit_tasks(
            "exp", 0, [json.dumps({"x": i}) for i in range(12)]
        )
        # A pool claims work then "crashes" (abort: abandons owned tasks).
        doomed = ThreadedWorkerPool(
            eq, PythonTaskHandler(slow_square),
            PoolConfig(work_type=0, n_workers=2, batch_size=6, name="doomed"),
        ).start()
        # Let it claim a batch, then kill it without draining.
        while doomed.owned() == 0:
            eq.clock.sleep(0.005)
        doomed.stop(drain=False, timeout=10)

        # Some tasks are stuck RUNNING under the dead pool's name.
        recovered = recover_pool(eq, "exp", "doomed")
        assert recovered >= 1

        # A replacement pool finishes everything.
        replacement = ThreadedWorkerPool(
            eq, PythonTaskHandler(fast_square),
            PoolConfig(work_type=0, n_workers=3, name="replacement"),
        ).start()
        done = list(as_completed(futures, timeout=30, delay=0.01))
        replacement.stop()
        assert len(done) == 12
        for f in done:
            _, payload = f.result(timeout=0)
            x = json.loads(eq.task_info(f.eq_task_id).json_out)["x"]
            assert json.loads(payload) == {"y": x**2}
        eq.close()


class TestEndpointOutage:
    def test_fire_and_forget_across_restart(self):
        broker = CloudBroker()
        client = FabricClient(broker, "tok")
        endpoint = Endpoint(broker, "site", "tok").start()
        endpoint.stop()  # site goes dark

        future = client.submit(fast_square, {"x": 4}, endpoint=endpoint.endpoint_id)
        assert future.state() == FabricTaskState.PENDING

        # Site comes back (same registration) and the task completes.
        revived = Endpoint(
            broker, "site", "tok", endpoint_id=endpoint.endpoint_id
        ).start()
        try:
            assert future.result(timeout=15) == {"y": 16}
        finally:
            revived.stop()


class TestDurableRestart:
    def test_sqlite_queue_survives_reopen(self, tmp_path):
        path = str(tmp_path / "emews.db")
        eq = EQSQL(SqliteTaskStore(path))
        futures = eq.submit_tasks("exp", 0, [json.dumps({"x": i}) for i in range(5)])
        task_ids = [f.eq_task_id for f in futures]
        eq.close()  # "the resource fails"

        # Reattach: all five tasks still queued, same ids, same order.
        eq2 = EQSQL(SqliteTaskStore(path))
        assert eq2.queue_lengths(0)[0] == 5
        assert eq2.store.tasks_for_experiment("exp") == task_ids

        pool = ThreadedWorkerPool(
            eq2, PythonTaskHandler(fast_square),
            PoolConfig(work_type=0, n_workers=2),
        ).start()
        # New futures bound to the surviving ids resolve normally.
        from repro.core.futures import Future

        revived = [Future(eq2, tid, 0) for tid in task_ids]
        done = list(as_completed(revived, timeout=30, delay=0.01))
        pool.stop()
        assert len(done) == 5
        eq2.close()
