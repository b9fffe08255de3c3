"""Backend conformance suite: every TaskStore behaves identically.

Runs against both the memory and sqlite backends via the parametrized
``store`` fixture in conftest.py.
"""

from __future__ import annotations

import pytest

from repro.db.schema import TaskStatus
from repro.util.errors import NotFoundError


def submit(store, n=1, eq_type=0, priority=0, exp_id="exp", tag=None):
    return store.create_tasks(
        exp_id, eq_type, [f"payload-{i}" for i in range(n)], priority=priority, tag=tag
    )


class TestCreate:
    def test_create_returns_increasing_ids(self, store):
        ids = [store.create_tasks("e", 0, [f"p{i}"])[0] for i in range(5)]
        assert ids == sorted(ids)
        assert len(set(ids)) == 5

    def test_create_sets_queued_status(self, store):
        tid = store.create_tasks("e", 0, ["p"], time_created=42.0)[0]
        row = store.get_task(tid)
        assert row.eq_status == TaskStatus.QUEUED
        assert row.json_out == "p"
        assert row.json_in is None
        assert row.time_created == 42.0
        assert row.time_start is None
        assert row.time_stop is None

    def test_batch_create_matches_single(self, store):
        ids = submit(store, 3)
        assert len(ids) == 3
        for i, tid in enumerate(ids):
            assert store.get_task(tid).json_out == f"payload-{i}"

    def test_batch_create_with_priority_list(self, store):
        ids = store.create_tasks("e", 0, ["a", "b"], priority=[2, 7])
        priorities = dict(store.get_priorities(ids))
        assert priorities == {ids[0]: 2, ids[1]: 7}

    def test_batch_create_priority_length_mismatch(self, store):
        with pytest.raises(ValueError):
            store.create_tasks("e", 0, ["a", "b"], priority=[1])

    def test_create_empty_batch(self, store):
        assert store.create_tasks("e", 0, []) == []


class TestPopOut:
    def test_pop_highest_priority_first(self, store):
        ids = store.create_tasks("e", 0, ["lo", "hi", "mid"], priority=[1, 9, 5])
        popped = store.pop_out(0, 3)
        assert [p for _, p in popped] == ["hi", "mid", "lo"]
        assert [t for t, _ in popped] == [ids[1], ids[2], ids[0]]

    def test_equal_priority_pops_fifo(self, store):
        ids = submit(store, 4)
        popped = store.pop_out(0, 4)
        assert [t for t, _ in popped] == ids

    def test_pop_marks_running_and_stamps(self, store):
        (tid,) = submit(store, 1)
        store.pop_out(0, 1, worker_pool="pool-a", now=7.5)
        row = store.get_task(tid)
        assert row.eq_status == TaskStatus.RUNNING
        assert row.time_start == 7.5
        assert row.worker_pool == "pool-a"

    def test_pop_respects_work_type(self, store):
        store.create_tasks("e", 1, ["type1"])
        store.create_tasks("e", 2, ["type2"])
        popped = store.pop_out(1, 5)
        assert [p for _, p in popped] == ["type1"]

    def test_pop_empty_queue(self, store):
        assert store.pop_out(0, 1) == []

    def test_pop_more_than_available(self, store):
        submit(store, 2)
        assert len(store.pop_out(0, 10)) == 2

    def test_pop_zero_or_negative(self, store):
        submit(store, 2)
        assert store.pop_out(0, 0) == []
        assert store.pop_out(0, -3) == []

    def test_popped_task_not_popped_again(self, store):
        submit(store, 1)
        assert len(store.pop_out(0, 1)) == 1
        assert store.pop_out(0, 1) == []

    def test_queue_out_length(self, store):
        submit(store, 3, eq_type=0)
        submit(store, 2, eq_type=1)
        assert store.queue_out_length() == 5
        assert store.queue_out_length(0) == 3
        assert store.queue_out_length(1) == 2
        store.pop_out(0, 2)
        assert store.queue_out_length(0) == 1


class TestReportAndPopIn:
    def test_report_sets_complete(self, store):
        (tid,) = submit(store, 1)
        store.pop_out(0, 1)
        store.report_batch([(tid, 0, '{"y":1}')], now=9.0)
        row = store.get_task(tid)
        assert row.eq_status == TaskStatus.COMPLETE
        assert row.json_in == '{"y":1}'
        assert row.time_stop == 9.0

    def test_report_unknown_task_raises(self, store):
        with pytest.raises(NotFoundError):
            store.report_batch([(999, 0, "r")])

    def test_pop_in_returns_result_once(self, store):
        (tid,) = submit(store, 1)
        store.pop_out(0, 1)
        store.report_batch([(tid, 0, "result")])
        assert store.pop_in_any([tid]) == [(tid, "result")]
        assert store.pop_in_any([tid]) == []  # queue row consumed

    def test_pop_in_before_report(self, store):
        (tid,) = submit(store, 1)
        assert store.pop_in_any([tid]) == []

    def test_pop_in_any_batch(self, store):
        ids = submit(store, 4)
        store.pop_out(0, 4)
        store.report_batch([(ids[1], 0, "r1")])
        store.report_batch([(ids[3], 0, "r3")])
        popped = store.pop_in_any(ids)
        assert popped == [(ids[1], "r1"), (ids[3], "r3")]
        assert store.pop_in_any(ids) == []

    def test_pop_in_any_empty_input(self, store):
        assert store.pop_in_any([]) == []

    def test_pop_in_any_limit(self, store):
        ids = submit(store, 5)
        store.pop_out(0, 5)
        for tid in ids:
            store.report_batch([(tid, 0, f"r{tid}")])
        first = store.pop_in_any(ids, limit=2)
        assert [t for t, _ in first] == ids[:2]
        # The rest stay queued for a later pop.
        rest = store.pop_in_any(ids)
        assert [t for t, _ in rest] == ids[2:]

    def test_pop_in_any_limit_zero(self, store):
        ids = submit(store, 1)
        store.pop_out(0, 1)
        store.report_batch([(ids[0], 0, "r")])
        assert store.pop_in_any(ids, limit=0) == []
        assert store.queue_in_length() == 1

    def test_queue_in_length(self, store):
        ids = submit(store, 3)
        store.pop_out(0, 3)
        for tid in ids:
            store.report_batch([(tid, 0, "r")])
        assert store.queue_in_length() == 3
        store.pop_in_any([ids[0]])
        assert store.queue_in_length() == 2


class TestReportBatch:
    def test_batch_matches_single_reports(self, store):
        ids = submit(store, 3)
        store.pop_out(0, 3)
        store.report_batch([(tid, 0, f"r{tid}") for tid in ids], now=9.0)
        for tid in ids:
            row = store.get_task(tid)
            assert row.eq_status == TaskStatus.COMPLETE
            assert row.json_in == f"r{tid}"
            assert row.time_stop == 9.0
        assert store.pop_in_any(ids) == [(tid, f"r{tid}") for tid in ids]

    def test_empty_batch_is_noop(self, store):
        store.report_batch([])
        assert store.queue_in_length() == 0

    def test_first_write_wins_within_batch(self, store):
        (tid,) = submit(store, 1)
        store.pop_out(0, 1)
        store.report_batch([(tid, 0, "first"), (tid, 0, "second")])
        assert store.get_task(tid).json_in == "first"
        assert store.queue_in_length() == 1

    def test_already_complete_task_is_skipped(self, store):
        (tid,) = submit(store, 1)
        store.pop_out(0, 1)
        store.report_batch([(tid, 0, "original")], now=1.0)
        store.report_batch([(tid, 0, "duplicate")], now=2.0)
        row = store.get_task(tid)
        assert row.json_in == "original"
        assert row.time_stop == 1.0
        assert store.queue_in_length() == 1

    def test_missing_ids_raise_after_applying_rest(self, store):
        ids = submit(store, 2)
        store.pop_out(0, 2)
        with pytest.raises(NotFoundError):
            store.report_batch([(ids[0], 0, "r"), (999, 0, "x"), (ids[1], 0, "r")])
        # Present items were applied: report_batch is a performance
        # primitive, per-item idempotent, not an atomic transaction.
        statuses = dict(store.get_statuses(ids))
        assert statuses[ids[0]] == TaskStatus.COMPLETE
        assert statuses[ids[1]] == TaskStatus.COMPLETE

    def test_withdraws_requeued_copy_from_out_queue(self, store):
        (tid,) = submit(store, 1)
        store.pop_out(0, 1)
        store.requeue(tid)  # a second pool could now claim the task
        assert store.queue_out_length(0) == 1
        store.report_batch([(tid, 0, "r")])
        # The report must pull the stale copy so no one re-runs it.
        assert store.queue_out_length(0) == 0
        assert store.pop_out(0, 1) == []


class TestStatusPriorityCancel:
    def test_get_statuses_batch(self, store):
        ids = submit(store, 3)
        store.pop_out(0, 1)
        statuses = dict(store.get_statuses(ids))
        assert statuses[ids[0]] == TaskStatus.RUNNING
        assert statuses[ids[1]] == TaskStatus.QUEUED

    def test_get_statuses_skips_unknown(self, store):
        ids = submit(store, 1)
        statuses = store.get_statuses([ids[0], 999])
        assert len(statuses) == 1

    def test_get_task_unknown_raises(self, store):
        with pytest.raises(NotFoundError):
            store.get_task(12345)

    def test_update_priorities_changes_pop_order(self, store):
        ids = submit(store, 3)  # all priority 0
        store.update_priorities([ids[2]], 10)
        popped = store.pop_out(0, 3)
        assert [t for t, _ in popped] == [ids[2], ids[0], ids[1]]

    def test_update_priorities_returns_changed_count(self, store):
        ids = submit(store, 3)
        store.pop_out(0, 1)  # ids[0] now running
        assert store.update_priorities(ids, 5) == 2

    def test_update_priorities_sequence(self, store):
        ids = submit(store, 3)
        store.update_priorities(ids, [3, 2, 1])
        assert dict(store.get_priorities(ids)) == {
            ids[0]: 3,
            ids[1]: 2,
            ids[2]: 1,
        }

    def test_update_priorities_length_mismatch(self, store):
        ids = submit(store, 2)
        with pytest.raises(ValueError):
            store.update_priorities(ids, [1, 2, 3])

    def test_get_priorities_omits_popped(self, store):
        ids = submit(store, 2)
        store.pop_out(0, 1)
        assert [t for t, _ in store.get_priorities(ids)] == [ids[1]]

    def test_cancel_queued(self, store):
        ids = submit(store, 3)
        assert store.cancel_tasks(ids[:2]) == 2
        statuses = dict(store.get_statuses(ids))
        assert statuses[ids[0]] == TaskStatus.CANCELED
        assert statuses[ids[2]] == TaskStatus.QUEUED
        assert store.queue_out_length(0) == 1

    def test_cancel_running_is_noop(self, store):
        ids = submit(store, 1)
        store.pop_out(0, 1)
        assert store.cancel_tasks(ids) == 0
        assert store.get_statuses(ids)[0][1] == TaskStatus.RUNNING

    def test_canceled_task_never_pops(self, store):
        ids = submit(store, 2)
        store.cancel_tasks([ids[0]])
        popped = store.pop_out(0, 5)
        assert [t for t, _ in popped] == [ids[1]]

    def test_cancel_empty(self, store):
        assert store.cancel_tasks([]) == 0

    def test_reprioritize_then_cancel(self, store):
        # Lazy-invalidation stress: update then cancel must leave no
        # resurrectable heap entry.
        ids = submit(store, 2)
        store.update_priorities([ids[0]], 100)
        store.cancel_tasks([ids[0]])
        popped = store.pop_out(0, 5)
        assert [t for t, _ in popped] == [ids[1]]


class TestExperimentsAndTags:
    def test_tasks_for_experiment(self, store):
        a = store.create_tasks("exp-a", 0, ["p"])[0]
        b = store.create_tasks("exp-b", 0, ["p"])[0]
        c = store.create_tasks("exp-a", 0, ["p"])[0]
        assert store.tasks_for_experiment("exp-a") == [a, c]
        assert store.tasks_for_experiment("exp-b") == [b]
        assert store.tasks_for_experiment("missing") == []

    def test_tasks_for_tag(self, store):
        a = store.create_tasks("e", 0, ["p"], tag="round-1")[0]
        store.create_tasks("e", 0, ["p"])
        b = store.create_tasks("e", 0, ["p"], tag="round-1")[0]
        assert store.tasks_for_tag("round-1") == [a, b]
        assert store.tasks_for_tag("round-2") == []

    def test_tag_recorded_on_row(self, store):
        tid = store.create_tasks("e", 0, ["p"], tag="t")[0]
        assert store.get_task(tid).tags == ["t"]


class TestMaintenance:
    def test_max_task_id(self, store):
        assert store.max_task_id() == 0
        ids = submit(store, 3)
        assert store.max_task_id() == ids[-1]

    def test_clear(self, store):
        ids = submit(store, 3)
        store.pop_out(0, 1)
        store.report_batch([(ids[0], 0, "r")])
        store.clear()
        assert store.max_task_id() == 0
        assert store.queue_out_length() == 0
        assert store.queue_in_length() == 0
        with pytest.raises(NotFoundError):
            store.get_task(ids[0])

    def test_use_after_close_raises(self, store):
        store.close()
        with pytest.raises(RuntimeError):
            store.create_tasks("e", 0, ["p"])
