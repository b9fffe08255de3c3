"""Tests for the PSI/J-style portable job layer."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.core import EQSQL, as_completed
from repro.db import SqliteTaskStore
from repro.pools import PoolConfig, PythonTaskHandler
from repro.sched import Cluster, ClusterSpec, JobState, Scheduler
from repro.sched.psij import (
    JobSpec,
    LocalSchedulerExecutor,
    managed_pool_job,
)
from repro.util.errors import NotFoundError


@pytest.fixture
def executor():
    scheduler = Scheduler(Cluster(ClusterSpec("c", n_nodes=2)), tick=0.005).start()
    ex = LocalSchedulerExecutor(scheduler, poll=0.005).start()
    yield ex
    ex.stop()
    scheduler.shutdown()


class TestJobSpec:
    def test_defaults(self):
        spec = JobSpec()
        assert spec.nodes == 1 and spec.walltime == 3600.0

    def test_validation(self):
        with pytest.raises(ValueError):
            JobSpec(nodes=0)
        with pytest.raises(ValueError):
            JobSpec(walltime=0)


class TestExecutor:
    def test_submit_and_wait(self, executor):
        handle = executor.submit(JobSpec(name="answer"), lambda: 42)
        assert handle.wait(timeout=10) == JobState.COMPLETED
        assert handle.native.result == 42
        assert handle.spec.name == "answer"

    def test_status_callbacks_fire_on_transitions(self, executor):
        seen: list[JobState] = []
        lock = threading.Lock()
        release = threading.Event()

        def record(_handle, state):
            with lock:
                seen.append(state)

        handle = executor.submit(JobSpec(), release.wait)
        handle.on_status(record)
        # Let it start running...
        deadline = time.time() + 5
        while JobState.RUNNING not in seen and time.time() < deadline:
            time.sleep(0.005)
        release.set()
        handle.wait(timeout=10)
        deadline = time.time() + 5
        while JobState.COMPLETED not in seen and time.time() < deadline:
            time.sleep(0.005)
        assert seen == [JobState.RUNNING, JobState.COMPLETED]

    def test_late_callback_fires_immediately(self, executor):
        handle = executor.submit(JobSpec(), lambda: "done")
        handle.wait(timeout=10)
        got: list[JobState] = []
        handle.on_status(lambda _h, s: got.append(s))
        assert got == [JobState.COMPLETED]

    def test_cancel_pending(self):
        scheduler = Scheduler(
            Cluster(ClusterSpec("c", n_nodes=1)),
            queue_delay=lambda j: 60.0,
            tick=0.005,
        ).start()
        ex = LocalSchedulerExecutor(scheduler, poll=0.005).start()
        try:
            handle = ex.submit(JobSpec(), lambda: None)
            assert handle.cancel()
            assert handle.state == JobState.CANCELLED
        finally:
            ex.stop()
            scheduler.shutdown()

    def test_failure_state_delivered(self, executor):
        handle = executor.submit(JobSpec(), lambda: 1 / 0)
        assert handle.wait(timeout=10) == JobState.FAILED
        assert "ZeroDivisionError" in (handle.native.error or "")

    def test_active_jobs_and_gc(self, executor):
        release = threading.Event()
        handle = executor.submit(JobSpec(), release.wait)
        deadline = time.time() + 5
        while not executor.active_jobs() and time.time() < deadline:
            time.sleep(0.005)
        assert handle in executor.active_jobs()
        release.set()
        handle.wait(timeout=10)
        # The monitor garbage-collects terminal handles once their
        # callbacks have been delivered; wait for that cycle.
        deadline = time.time() + 5
        while time.time() < deadline:
            try:
                executor.job(handle.job_id)
            except NotFoundError:
                break
            time.sleep(0.005)
        assert executor.active_jobs() == []
        with pytest.raises(NotFoundError):
            executor.job(handle.job_id)  # garbage-collected after terminal


class TestManagedPoolJob:
    def test_pool_runs_as_monitored_job_and_terminates(self, executor):
        eq = EQSQL(SqliteTaskStore())
        futures = eq.submit_tasks(
            "exp", 0, [json.dumps({"x": i}) for i in range(8)]
        )
        handle, stop = managed_pool_job(
            executor,
            eq,
            PythonTaskHandler(lambda d: {"y": d["x"] + 1}),
            PoolConfig(work_type=0, n_workers=2, name="managed"),
        )
        done = list(as_completed(futures, timeout=20, delay=0.01))
        assert len(done) == 8
        # Active monitoring sees the pilot job running.
        assert handle.state == JobState.RUNNING
        # Terminate the pool through the portable layer.
        stop()
        assert handle.wait(timeout=10) == JobState.COMPLETED
        assert handle.native.result == 8
        eq.close()
