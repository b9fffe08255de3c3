"""Tests for ME checkpoint/resume (§II-B2c)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import EQSQL
from repro.data import ArtifactManager
from repro.db import SqliteTaskStore
from repro.me import sphere
from repro.me.checkpoint import (
    MECheckpoint,
    drain_resumed,
    latest_checkpoint,
    load_checkpoint,
    resume_futures,
    save_checkpoint,
)
from repro.pools import PoolConfig, PythonTaskHandler, ThreadedWorkerPool
from repro.store import MemoryConnector, Store
from repro.util.errors import InvalidStateError
from repro.util.ids import short_id

WORK_TYPE = 0


@pytest.fixture
def eq():
    eqsql = EQSQL(SqliteTaskStore())
    yield eqsql
    eqsql.close()


@pytest.fixture
def manager():
    name = short_id("ckpt")
    store = Store(name, MemoryConnector(name))
    yield ArtifactManager(store)
    MemoryConnector.drop_space(name)


def start_run(eq, n=10):
    rng = np.random.default_rng(0)
    points = rng.uniform(-2, 2, size=(n, 2))
    futures = eq.submit_tasks(
        "ckpt-exp", WORK_TYPE,
        [json.dumps({"x": list(map(float, p))}) for p in points],
    )
    return points, [f.eq_task_id for f in futures]


class TestCheckpointObject:
    def test_alignment_validation(self):
        with pytest.raises(InvalidStateError):
            MECheckpoint("e", 0, np.zeros((2, 2)), [1])
        with pytest.raises(InvalidStateError):
            MECheckpoint("e", 0, np.zeros((1, 2)), [1], done_task_ids=[1], done_values=[])

    def test_outstanding_and_done_views(self):
        points = np.arange(8.0).reshape(4, 2)
        ckpt = MECheckpoint(
            "e", 0, points, [10, 11, 12, 13],
            done_task_ids=[11, 13], done_values=[1.0, 3.0],
        )
        assert ckpt.n_outstanding == 2
        assert ckpt.outstanding_ids() == [10, 12]
        assert np.array_equal(ckpt.done_X(), points[[1, 3]])
        assert list(ckpt.done_y()) == [1.0, 3.0]


class TestSaveLoad:
    def test_round_trip(self, manager):
        points = np.random.default_rng(1).normal(size=(5, 3))
        ckpt = MECheckpoint("exp", 2, points, [1, 2, 3, 4, 5],
                            done_task_ids=[2], done_values=[0.5])
        record = save_checkpoint(manager, ckpt, tags={"round": 1})
        loaded = load_checkpoint(manager, record.artifact_id)
        assert loaded.exp_id == "exp" and loaded.work_type == 2
        assert np.array_equal(loaded.points, points)
        assert loaded.done_task_ids == [2]

    def test_latest_by_experiment(self, manager):
        points = np.zeros((1, 1))
        save_checkpoint(manager, MECheckpoint("a", 0, points, [1]))
        save_checkpoint(
            manager,
            MECheckpoint("a", 0, points, [1], done_task_ids=[1], done_values=[9.0]),
        )
        save_checkpoint(manager, MECheckpoint("b", 0, points, [1]))
        latest = latest_checkpoint(manager, "a")
        assert latest.done_values == [9.0]


class TestResume:
    def test_results_reported_while_down_are_picked_up(self, eq, manager):
        """The crash-resume story: the ME dies mid-run; pools keep
        working; a new ME process resumes from the checkpoint."""
        points, task_ids = start_run(eq, n=8)
        # ME processes 3 results, checkpoints, then "crashes".
        pool = ThreadedWorkerPool(
            eq,
            PythonTaskHandler(lambda d: {"y": float(sphere(d["x"]))}),
            PoolConfig(work_type=WORK_TYPE, n_workers=2),
        ).start()
        from repro.core import as_completed
        from repro.core.futures import Future

        live = [Future(eq, tid, WORK_TYPE) for tid in task_ids]
        done_ids, done_vals = [], []
        for future in as_completed(live, pop=True, n=3, delay=0.01, timeout=30):
            _, raw = future.result(timeout=0)
            done_ids.append(future.eq_task_id)
            done_vals.append(json.loads(raw)["y"])
        record = save_checkpoint(
            manager,
            MECheckpoint("ckpt-exp", WORK_TYPE, points, task_ids,
                         done_task_ids=done_ids, done_values=done_vals),
        )
        del live  # the ME process is gone

        # ... pools keep completing everything in the meantime ...
        while eq.queue_lengths(WORK_TYPE)[0] > 0 or pool.owned() > 0:
            eq.clock.sleep(0.01)

        # A new process resumes and drains the remaining five.
        resumed = load_checkpoint(manager, record.artifact_id)
        final = drain_resumed(eq, resumed, timeout=30)
        pool.stop()
        assert final.n_outstanding == 0
        assert len(final.done_values) == 8
        # Values are the true objective at the checkpointed points.
        assert np.allclose(
            sorted(final.done_y()),
            sorted(np.asarray(sphere(points))),
            atol=1e-9,
        )

    def test_resume_futures_identity(self, eq):
        points, task_ids = start_run(eq, n=3)
        ckpt = MECheckpoint("ckpt-exp", WORK_TYPE, points, task_ids)
        futures = resume_futures(eq, ckpt)
        assert [f.eq_task_id for f in futures] == task_ids
        # Complete one by hand; the resumed future resolves.
        message = eq.query_task(WORK_TYPE, timeout=0)
        eq.report_task(message["eq_task_id"], WORK_TYPE, '{"y": 1.25}')
        match = [f for f in futures if f.eq_task_id == message["eq_task_id"]][0]
        _, raw = match.result(timeout=1)
        assert json.loads(raw) == {"y": 1.25}
