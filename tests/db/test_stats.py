"""TaskStore.stats() conformance and lease-machinery counters.

The store must report identical queue/lease snapshots for identical
histories, over ``:memory:`` and over a database file — the contract
the monitoring samplers and the ``/status`` endpoint depend on.
"""

from __future__ import annotations

from repro.db import SqliteTaskStore
from repro.telemetry.metrics import MetricsRegistry

EMPTY_STATS = {
    "tasks": {"queued": 0, "running": 0, "complete": 0, "canceled": 0, "total": 0},
    "queue_out": {},
    "queue_out_total": 0,
    "queue_in": 0,
    "leases": {"active": 0, "expired": 0, "unleased_running": 0},
}


class TestStatsConformance:
    def test_empty_store(self, store):
        assert store.stats() == EMPTY_STATS

    def test_counts_by_status_and_type(self, store):
        store.create_tasks("exp", 0, ["{}"] * 3)
        store.create_tasks("exp", 5, ["{}"] * 2)
        popped = store.pop_out(0, n=2, now=1.0)
        store.report_batch([(popped[0][0], 0, "{}")])
        stats = store.stats(now=1.0)
        assert stats["tasks"] == {
            "queued": 3, "running": 1, "complete": 1, "canceled": 0, "total": 5,
        }
        # Work-type keys are strings: the JSON wire format is the contract.
        assert stats["queue_out"] == {"0": 1, "5": 2}
        assert stats["queue_out_total"] == 3
        assert stats["queue_in"] == 1

    def test_lease_split_active_vs_expired(self, store):
        store.create_tasks("exp", 0, ["{}"] * 3)
        store.pop_out(0, n=1, now=0.0, lease=10.0)   # expires at 10
        store.pop_out(0, n=1, now=0.0, lease=100.0)  # expires at 100
        store.pop_out(0, n=1, now=0.0)               # unleased

        stats = store.stats(now=5.0)
        assert stats["leases"] == {
            "active": 2, "expired": 0, "unleased_running": 1,
        }
        stats = store.stats(now=50.0)
        assert stats["leases"] == {
            "active": 1, "expired": 1, "unleased_running": 1,
        }
        stats = store.stats(now=500.0)
        assert stats["leases"] == {
            "active": 0, "expired": 2, "unleased_running": 1,
        }

    def test_reported_task_leaves_lease_counts(self, store):
        store.create_tasks("exp", 0, ["{}"])
        popped = store.pop_out(0, n=1, now=0.0, lease=10.0)
        store.report_batch([(popped[0][0], 0, "{}")])
        stats = store.stats(now=5.0)
        assert stats["leases"] == {
            "active": 0, "expired": 0, "unleased_running": 0,
        }
        assert stats["tasks"]["complete"] == 1

    def test_backends_agree(self, db_path):
        """The same history yields byte-identical stats on both kinds of
        database."""

        def drive(store):
            store.create_tasks("exp", 1, ["{}"] * 4)
            store.create_tasks("exp", 2, ["{}"] * 2)
            popped = store.pop_out(1, n=2, now=0.0, lease=20.0)
            store.report_batch([(popped[0][0], 1, "{}")])
            store.pop_out(2, n=1, now=1.0)
            return store.stats(now=30.0)

        memory, sqlite = SqliteTaskStore(db_path("memory")), SqliteTaskStore(db_path("sqlite"))
        try:
            assert drive(memory) == drive(sqlite)
        finally:
            memory.close()
            sqlite.close()


class TestQueueDepthUnderChurn:
    """Depth gauges count live queue rows through reprioritization and
    cancellation churn."""

    def test_depth_gauges_ignore_dead_entries(self, store):
        ids = store.create_tasks("exp", 0, ["{}"] * 6)
        store.update_priorities(ids, 5)
        store.cancel_tasks(ids[:2])
        assert store.queue_out_length(0) == 4
        assert store.queue_out_length() == 4
        assert store.stats()["queue_out"] == {"0": 4}
        assert store.stats()["queue_out_total"] == 4


class TestLeaseCounters:
    def test_renewals_counted(self, db_path):
        for kind in ("memory", "sqlite"):
            reg = MetricsRegistry()
            s = SqliteTaskStore(db_path(kind), metrics=reg)
            s.create_tasks("exp", 0, ["{}"] * 2)
            popped = s.pop_out(0, n=2, now=0.0, lease=10.0)
            ids = [task_id for task_id, _ in popped]
            s.renew_leases(ids, now=1.0, lease=10.0)
            s.renew_leases(ids, now=2.0, lease=10.0)
            assert reg.get("db.lease_renewals").value == 4, kind
            s.close()

    def test_requeues_counted(self, db_path):
        for kind in ("memory", "sqlite"):
            reg = MetricsRegistry()
            s = SqliteTaskStore(db_path(kind), metrics=reg)
            s.create_tasks("exp", 0, ["{}"] * 3)
            s.pop_out(0, n=2, now=0.0, lease=5.0)
            requeued = s.requeue_expired(now=100.0)
            assert len(requeued) == 2, kind
            assert reg.get("db.lease_requeues").value == 2, kind
            s.close()

    def test_report_withdrawal_counted(self, db_path):
        """A reaped task whose original report lands late: the requeued
        copy is withdrawn, and the withdrawal is counted."""
        for kind in ("memory", "sqlite"):
            reg = MetricsRegistry()
            s = SqliteTaskStore(db_path(kind), metrics=reg)
            s.create_tasks("exp", 0, ["{}"])
            popped = s.pop_out(0, n=1, now=0.0, lease=5.0)
            task_id = popped[0][0]
            s.requeue_expired(now=100.0)  # back on the queue
            s.report_batch([(task_id, 0, "{}")])   # original worker reports anyway
            assert reg.get("db.report_withdrawals").value == 1, kind
            # And the withdrawn copy is really gone.
            assert s.stats()["queue_out_total"] == 0, kind
            s.close()

    def test_plain_report_not_counted_as_withdrawal(self, db_path):
        for kind in ("memory", "sqlite"):
            reg = MetricsRegistry()
            s = SqliteTaskStore(db_path(kind), metrics=reg)
            s.create_tasks("exp", 0, ["{}"])
            popped = s.pop_out(0, n=1, now=0.0)
            s.report_batch([(popped[0][0], 0, "{}")])
            assert reg.get("db.report_withdrawals").value == 0, kind
            s.close()
