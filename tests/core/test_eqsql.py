"""Tests for the EQSQL task API (paper Listing 1 semantics)."""

from __future__ import annotations

import json

import pytest

from repro.core import EQSQL, ResultStatus, TaskStatus, init_eqsql
from repro.core.eqsql import TIMEOUT_MESSAGE
from repro.util.clock import VirtualClock


@pytest.fixture
def eq(store):
    eqsql = EQSQL(store)
    yield eqsql


class TestSubmit:
    def test_submit_returns_future(self, eq):
        future = eq.submit_task("exp1", 0, '{"x": 1}')
        assert future.eq_task_id == 1
        assert future.eq_type == 0
        assert future.exp_id == "exp1"
        assert future.status == TaskStatus.QUEUED

    def test_submit_records_creation_time(self, store):
        clock = VirtualClock(100.0)
        eq = EQSQL(store, clock=clock)
        future = eq.submit_task("e", 0, "p")
        assert eq.task_info(future.eq_task_id).time_created == 100.0

    def test_submit_tasks_batch(self, eq):
        futures = eq.submit_tasks("e", 0, ["a", "b", "c"])
        assert [f.eq_task_id for f in futures] == [1, 2, 3]

    def test_submit_with_tag(self, eq):
        future = eq.submit_task("e", 0, "p", tag="round-0")
        assert eq.store.tasks_for_tag("round-0") == [future.eq_task_id]


class TestQueryTask:
    def test_single_task_message_shape(self, eq):
        eq.submit_task("e", 0, '{"x": 1}')
        message = eq.query_task(0, timeout=0)
        assert message == {"type": "work", "eq_task_id": 1, "payload": '{"x": 1}'}

    def test_timeout_message_shape(self, eq):
        message = eq.query_task(0, timeout=0)
        assert message == TIMEOUT_MESSAGE
        assert message == {"type": "status", "payload": "TIMEOUT"}

    def test_multi_task_returns_list(self, eq):
        eq.submit_tasks("e", 0, ["a", "b", "c"])
        messages = eq.query_task(0, n=2, timeout=0)
        assert isinstance(messages, list)
        assert [m["payload"] for m in messages] == ["a", "b"]

    def test_multi_task_partial(self, eq):
        eq.submit_task("e", 0, "only")
        messages = eq.query_task(0, n=5, timeout=0)
        assert len(messages) == 1

    def test_priority_order(self, eq):
        eq.submit_task("e", 0, "low", priority=0)
        eq.submit_task("e", 0, "high", priority=10)
        assert eq.query_task(0, timeout=0)["payload"] == "high"

    def test_worker_pool_recorded(self, eq):
        future = eq.submit_task("e", 0, "p")
        eq.query_task(0, worker_pool="bebop-1", timeout=0)
        assert eq.task_info(future.eq_task_id).worker_pool == "bebop-1"

    def test_blocking_poll_succeeds(self, store):
        # Timeout > 0 with delay: the second poll attempt finds the task.
        import threading

        eq = EQSQL(store)

        def submit_later():
            eq.submit_task("e", 0, "late")

        t = threading.Timer(0.05, submit_later)
        t.start()
        message = eq.query_task(0, delay=0.01, timeout=2.0)
        t.join()
        assert message["payload"] == "late"


class TestQueryTaskBatch:
    def test_respects_policy(self, eq):
        eq.submit_tasks("e", 0, [f"p{i}" for i in range(10)])
        got = eq.query_task_batch(0, batch_size=5, threshold=1, owned=2, timeout=0)
        assert len(got) == 3

    def test_below_threshold_no_query(self, eq):
        eq.submit_tasks("e", 0, ["a", "b"])
        got = eq.query_task_batch(0, batch_size=10, threshold=9, owned=3, timeout=0)
        assert got == []
        # Tasks were not consumed.
        assert eq.queue_lengths(0)[0] == 2

    def test_empty_queue_returns_empty(self, eq):
        got = eq.query_task_batch(0, batch_size=5, threshold=1, owned=0, timeout=0)
        assert got == []


class TestReportAndResult:
    def test_round_trip(self, eq):
        future = eq.submit_task("e", 0, '{"x": 2}')
        message = eq.query_task(0, timeout=0)
        payload = json.loads(message["payload"])
        eq.report_task(message["eq_task_id"], 0, json.dumps({"y": payload["x"] ** 2}))
        status, result = eq.query_result(future.eq_task_id, timeout=0)
        assert status == ResultStatus.SUCCESS
        assert json.loads(result) == {"y": 4}

    def test_result_timeout(self, eq):
        future = eq.submit_task("e", 0, "p")
        status, payload = eq.query_result(future.eq_task_id, timeout=0)
        assert status == ResultStatus.FAILURE
        assert payload == "TIMEOUT"

    def test_result_consumed_once_at_store_level(self, eq):
        future = eq.submit_task("e", 0, "p")
        message = eq.query_task(0, timeout=0)
        eq.report_task(message["eq_task_id"], 0, "r")
        assert eq.query_result(future.eq_task_id, timeout=0)[0] == ResultStatus.SUCCESS
        assert eq.query_result(future.eq_task_id, timeout=0)[0] == ResultStatus.FAILURE


class TestStatusPriorityCancel:
    def test_query_status(self, eq):
        futures = eq.submit_tasks("e", 0, ["a", "b"])
        eq.query_task(0, timeout=0)
        statuses = dict(eq.query_status([f.eq_task_id for f in futures]))
        assert statuses[futures[0].eq_task_id] == TaskStatus.RUNNING
        assert statuses[futures[1].eq_task_id] == TaskStatus.QUEUED

    def test_update_and_query_priorities(self, eq):
        futures = eq.submit_tasks("e", 0, ["a", "b", "c"])
        ids = [f.eq_task_id for f in futures]
        assert eq.update_priorities(ids, [3, 2, 1]) == 3
        assert dict(eq.query_priorities(ids)) == {ids[0]: 3, ids[1]: 2, ids[2]: 1}

    def test_cancel(self, eq):
        futures = eq.submit_tasks("e", 0, ["a", "b"])
        assert eq.cancel_tasks([futures[0].eq_task_id]) == 1
        assert eq.query_task(0, timeout=0)["payload"] == "b"


class TestIntrospection:
    def test_queue_lengths(self, eq):
        eq.submit_tasks("e", 0, ["a", "b"])
        assert eq.queue_lengths() == (2, 0)
        message = eq.query_task(0, timeout=0)
        eq.report_task(message["eq_task_id"], 0, "r")
        assert eq.queue_lengths() == (1, 1)

    def test_are_queues_empty(self, eq):
        assert eq.are_queues_empty()
        future = eq.submit_task("e", 0, "p")
        assert not eq.are_queues_empty()
        message = eq.query_task(0, timeout=0)
        assert eq.are_queues_empty()  # running tasks are in neither queue
        eq.report_task(message["eq_task_id"], 0, "r")
        assert not eq.are_queues_empty()
        future.result(timeout=0)
        assert eq.are_queues_empty()


class TestInit:
    def test_init_memory(self):
        eq = init_eqsql()
        assert eq.store.path == ":memory:"
        eq.submit_task("e", 0, "p")
        assert eq.queue_lengths()[0] == 1
        eq.close()

    def test_init_sqlite_file(self, tmp_path):
        path = str(tmp_path / "tasks.db")
        eq = init_eqsql(path)
        eq.submit_task("e", 0, "p")
        eq.close()
        # Durable: reopen and the task is still queued (fault tolerance).
        eq2 = init_eqsql(path)
        assert eq2.queue_lengths()[0] == 1
        eq2.close()

    def test_context_manager(self):
        with init_eqsql() as eq:
            eq.submit_task("e", 0, "p")
        with pytest.raises(RuntimeError):
            eq.store.create_tasks("e", 0, ["p"])
