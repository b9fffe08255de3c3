"""The store emits the same flight-recorder records at every hop, over
``:memory:`` and over a database file."""

from __future__ import annotations

import pytest

from repro.db import SqliteTaskStore
from repro.telemetry.journal import (
    EV_CANCEL,
    EV_ENQUEUE,
    EV_LEASE_RENEW,
    EV_POP,
    EV_REPORT,
    EV_REQUEUE,
    EV_WITHDRAW,
    ROLE_DB,
    Journal,
)
from repro.util.clock import VirtualClock


@pytest.fixture(params=["memory", "sqlite"])
def journaled_store(request, db_path):
    journal = Journal(clock=VirtualClock())
    store = SqliteTaskStore(db_path(request.param), journal=journal)
    yield store, journal
    store.close()


def events_for(journal: Journal, task_id: int) -> list[str]:
    return [r.event for r in journal.records(task_id=task_id)]


class TestLifecycleEmits:
    def test_happy_path(self, journaled_store):
        store, journal = journaled_store
        (tid,) = store.create_tasks("exp", 0, ["{}"], time_created=1.0)
        ((popped, _),) = store.pop_out(
            0, n=1, worker_pool="p1", now=2.0, lease=30.0
        )
        assert popped == tid
        store.renew_leases([tid], now=10.0, lease=30.0)
        store.report_batch([(tid, 0, "{}")], now=20.0)
        assert events_for(journal, tid) == [
            EV_ENQUEUE, EV_POP, EV_LEASE_RENEW, EV_REPORT,
        ]
        records = journal.records(task_id=tid)
        assert all(r.role == ROLE_DB for r in records)
        assert [r.time for r in records] == [1.0, 2.0, 10.0, 20.0]
        enqueue, pop, renew, report = records
        assert enqueue.work_type == 0
        assert pop.source == "p1"
        assert pop.extra == {"lease": 30.0}
        assert renew.source == "p1"
        assert report.source == "p1"

    def test_single_create_task_emits_enqueue(self, journaled_store):
        store, journal = journaled_store
        tid = store.create_tasks("exp", 2, ["{}"], priority=5, time_created=3.0)[0]
        (record,) = journal.records(task_id=tid)
        assert record.event == EV_ENQUEUE
        assert record.work_type == 2
        assert record.extra == {"exp_id": "exp", "priority": 5}

    def test_lease_expiry_requeue(self, journaled_store):
        store, journal = journaled_store
        (tid,) = store.create_tasks("exp", 0, ["{}"])
        store.pop_out(0, n=1, worker_pool="doomed", now=0.0, lease=1.0)
        assert store.requeue_expired(now=5.0) == [tid]
        events = events_for(journal, tid)
        assert events == [EV_ENQUEUE, EV_POP, EV_REQUEUE]
        requeue = journal.records(task_id=tid)[-1]
        assert requeue.time == 5.0
        assert requeue.source == "doomed"  # which pool lost it

    def test_late_report_withdraws_requeued_copy(self, journaled_store):
        store, journal = journaled_store
        (tid,) = store.create_tasks("exp", 0, ["{}"])
        store.pop_out(0, n=1, worker_pool="slow", now=0.0, lease=1.0)
        store.requeue_expired(now=5.0)
        # The original (slow, not dead) pool reports after the requeue:
        # the queued duplicate must be withdrawn.
        store.report_batch([(tid, 0, "{}")], now=6.0)
        events = events_for(journal, tid)
        assert events == [EV_ENQUEUE, EV_POP, EV_REQUEUE, EV_WITHDRAW, EV_REPORT]

    def test_duplicate_report_emits_nothing(self, journaled_store):
        store, journal = journaled_store
        (tid,) = store.create_tasks("exp", 0, ["{}"])
        store.pop_out(0, n=1, now=0.0)
        store.report_batch([(tid, 0, "{}")], now=1.0)
        n_before = len(journal.records(task_id=tid))
        store.report_batch([(tid, 0, "{}")], now=2.0)  # idempotent no-op
        assert len(journal.records(task_id=tid)) == n_before

    def test_report_batch_emits_per_fresh_item(self, journaled_store):
        store, journal = journaled_store
        ids = store.create_tasks("exp", 0, ["{}"] * 3)
        store.pop_out(0, n=3, now=0.0)
        store.report_batch([(ids[0], 0, "{}")], now=1.0)  # already complete
        store.report_batch([(tid, 0, "{}") for tid in ids], now=2.0)
        # ids[0] deduped; the other two got exactly one report record.
        assert events_for(journal, ids[0]).count(EV_REPORT) == 1
        for tid in ids[1:]:
            assert events_for(journal, tid) == [EV_ENQUEUE, EV_POP, EV_REPORT]

    def test_cancel_emits(self, journaled_store):
        store, journal = journaled_store
        ids = store.create_tasks("exp", 4, ["{}"] * 2)
        assert store.cancel_tasks(ids) == 2
        for tid in ids:
            events = events_for(journal, tid)
            assert events == [EV_ENQUEUE, EV_CANCEL]
            assert journal.records(task_id=tid)[-1].work_type == 4

    def test_renew_skips_non_running(self, journaled_store):
        store, journal = journaled_store
        (tid,) = store.create_tasks("exp", 0, ["{}"])
        # Never popped: renewal must not record a heartbeat.
        assert store.renew_leases([tid], now=1.0, lease=10.0) == 0
        assert EV_LEASE_RENEW not in events_for(journal, tid)


class TestDisabledJournal:
    @pytest.mark.parametrize("flavor", ["memory", "sqlite"])
    def test_disabled_journal_records_nothing(self, flavor, db_path):
        journal = Journal(clock=VirtualClock(), enabled=False)
        store = SqliteTaskStore(db_path(flavor), journal=journal)
        try:
            (tid,) = store.create_tasks("exp", 0, ["{}"])
            store.pop_out(0, n=1, now=0.0, lease=5.0)
            store.requeue_expired(now=10.0)
            store.pop_out(0, n=1, now=11.0)
            store.report_batch([(tid, 0, "{}")], now=12.0)
            assert len(journal) == 0
        finally:
            store.close()
