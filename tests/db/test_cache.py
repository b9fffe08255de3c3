"""Cross-backend result-cache parity (ISSUE 10 satellite).

One parametrized module holds every backend to the same cache
contract — sqlite over ``:memory:`` and over a file, and remote
through a live TaskService —
covering hit/miss, TTL expiry-on-get, last-write-wins puts, LRU
eviction at capacity, stats, and persistence across sqlite reopen.
The EQSQL-level tests then cover the submit-path integration: cache
modes, already-completed futures on hit, single-flight coalescing
(including the lease-expiry/requeue interleaving), and report-time
population through both the single and batch report paths.
"""

from __future__ import annotations

import pytest

from repro.core.constants import ResultStatus, TaskStatus
from repro.core.eqsql import EQSQL
from repro.core.futures import as_completed
from repro.db import SqliteTaskStore
from repro.telemetry.metrics import MetricsRegistry
from repro.util.clock import VirtualClock
from repro.util.serialization import cache_key

CAPACITY = 4


@pytest.fixture(params=["memory", "sqlite", "remote"])
def cache_store(request, tmp_path):
    """A fresh capacity-bounded store on each access path: embedded over
    ``:memory:``, embedded over a database file, and remote through a
    live TaskService."""
    registry = MetricsRegistry()
    path = str(tmp_path / "emews.db") if request.param == "sqlite" else ":memory:"
    backend = SqliteTaskStore(path, metrics=registry, cache_capacity=CAPACITY)
    if request.param == "remote":
        from repro.core.service import TaskService
        from repro.core.service_client import RemoteTaskStore

        service = TaskService(backend, port=0, metrics=registry).start()
        host, port = service.address
        client = RemoteTaskStore(host, port, metrics=MetricsRegistry())
        yield client
        client.close()
        service.stop()
    else:
        yield backend
    backend.close()


class TestCacheParity:
    def test_miss_then_hit(self, cache_store):
        assert cache_store.cache_get("k", now=1.0) is None
        cache_store.cache_put("k", 0, '{"r": 1}', now=1.0)
        assert cache_store.cache_get("k", now=2.0) == '{"r": 1}'
        stats = cache_store.cache_stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["inserts"] == 1
        assert stats["entries"] == 1
        assert stats["capacity"] == CAPACITY

    def test_put_is_last_write_wins(self, cache_store):
        cache_store.cache_put("k", 0, "old", now=1.0)
        cache_store.cache_put("k", 0, "new", now=2.0)
        assert cache_store.cache_get("k", now=3.0) == "new"
        assert cache_store.cache_stats()["entries"] == 1

    def test_ttl_expiry_on_get_counts_a_miss(self, cache_store):
        cache_store.cache_put("k", 0, "r", now=0.0, ttl=10.0)
        assert cache_store.cache_get("k", now=9.0) == "r"
        assert cache_store.cache_get("k", now=10.0) is None  # expiry <= now
        stats = cache_store.cache_stats()
        assert stats["misses"] == 1
        assert stats["entries"] == 0

    def test_no_ttl_never_expires(self, cache_store):
        cache_store.cache_put("k", 0, "r", now=0.0)
        assert cache_store.cache_get("k", now=1e9) == "r"

    def test_overwrite_refreshes_ttl(self, cache_store):
        cache_store.cache_put("k", 0, "r1", now=0.0, ttl=5.0)
        cache_store.cache_put("k", 0, "r2", now=4.0, ttl=5.0)
        assert cache_store.cache_get("k", now=6.0) == "r2"

    def test_lru_eviction_at_capacity(self, cache_store):
        for i in range(CAPACITY):
            cache_store.cache_put(f"k{i}", 0, f"r{i}", now=float(i))
        # Touch k0 so k1 becomes the least-recently-used entry.
        assert cache_store.cache_get("k0", now=10.0) == "r0"
        cache_store.cache_put("overflow", 0, "r", now=11.0)
        stats = cache_store.cache_stats()
        assert stats["entries"] == CAPACITY
        assert stats["evictions"] == 1
        assert cache_store.cache_get("k1", now=12.0) is None  # evicted
        assert cache_store.cache_get("k0", now=12.0) == "r0"  # survived

    def test_eviction_order_is_use_order_not_insert_order(self, cache_store):
        for i in range(CAPACITY):
            cache_store.cache_put(f"k{i}", 0, "r", now=0.0)
        for i in range(CAPACITY - 1, -1, -1):  # reverse-touch
            cache_store.cache_get(f"k{i}", now=1.0)
        cache_store.cache_put("new", 0, "r", now=2.0)
        # k3 was touched first in the reverse pass, so it is the LRU.
        assert cache_store.cache_get(f"k{CAPACITY - 1}", now=3.0) is None
        assert cache_store.cache_get("k0", now=3.0) == "r"

    def test_clear_empties_the_cache(self, cache_store):
        cache_store.cache_put("k", 0, "r", now=0.0)
        cache_store.clear()
        assert cache_store.cache_stats()["entries"] == 0
        assert cache_store.cache_get("k", now=1.0) is None


class TestSqlitePersistence:
    def test_cache_survives_reopen_including_lru_counter(self, tmp_path):
        path = str(tmp_path / "cache.db")
        store = SqliteTaskStore(
            path, metrics=MetricsRegistry(), cache_capacity=CAPACITY
        )
        for i in range(CAPACITY):
            store.cache_put(f"k{i}", 0, f"r{i}", now=float(i))
        store.cache_get("k0", now=10.0)  # k0 most recently used
        store.close()

        store = SqliteTaskStore(
            path, metrics=MetricsRegistry(), cache_capacity=CAPACITY
        )
        assert store.cache_get("k2", now=11.0) == "r2"
        # The resumed use counter keeps LRU order coherent: the next
        # overflow evicts k1 (never touched), not k0 or k2.
        store.cache_put("new", 0, "r", now=12.0)
        assert store.cache_get("k1", now=13.0) is None
        assert store.cache_get("k0", now=13.0) == "r0"
        store.close()

    def test_old_file_without_cache_table_migrates(self, tmp_path):
        import sqlite3

        path = str(tmp_path / "old.db")
        # A pre-cache schema: the migration replays the DDL on open, so
        # simply dropping the table simulates an old database file.
        store = SqliteTaskStore(path, metrics=MetricsRegistry())
        store.close()
        conn = sqlite3.connect(path)
        conn.execute("DROP TABLE eq_task_cache")
        conn.commit()
        conn.close()
        store = SqliteTaskStore(path, metrics=MetricsRegistry())
        store.cache_put("k", 0, "r", now=0.0)
        assert store.cache_get("k", now=1.0) == "r"
        store.close()


class TestSubmitPathCache:
    def _eqsql(self, ttl=None):
        registry = MetricsRegistry()
        store = SqliteTaskStore(metrics=registry, cache_capacity=16)
        clock = VirtualClock()
        return (
            EQSQL(store, clock=clock, metrics=registry, cache_ttl=ttl),
            store,
            clock,
            registry,
        )

    def _run_one(self, eq, store, result='{"out": 1}'):
        """Pop the single queued task and report ``result`` for it."""
        popped = store.pop_out(0, 1, worker_pool="w", now=eq.clock.now())
        assert len(popped) == 1
        eq.report_task(popped[0][0], 0, result)
        return popped[0][0]

    def test_invalid_mode_rejected(self):
        eq, store, _clock, _reg = self._eqsql()
        with pytest.raises(ValueError):
            eq.submit_task("e", 0, "{}", cache="write")
        eq.close()

    def test_off_mode_never_consults_the_cache(self):
        eq, store, _clock, _reg = self._eqsql()
        store.cache_put(cache_key(0, '{"x": 1}'), 0, "cached", now=0.0)
        future = eq.submit_task("e", 0, '{"x": 1}')
        assert future._result is None
        assert store.cache_stats()["hits"] == 0
        eq.close()

    def test_hit_returns_completed_future_without_a_task(self):
        eq, store, _clock, _reg = self._eqsql()
        store.cache_put(cache_key(0, '{"x": 1}'), 0, "cached", now=0.0)
        future = eq.submit_task("e", 0, '{"x": 1}', cache="read")
        assert future.done()
        assert future.status == TaskStatus.COMPLETE
        assert future.result(timeout=0) == (ResultStatus.SUCCESS, "cached")
        assert future.eq_task_id < 0  # synthetic id, no store row
        assert store.queue_out_length(0) == 0
        eq.close()

    def test_hit_is_invariant_to_payload_key_order(self):
        eq, store, _clock, _reg = self._eqsql()
        store.cache_put(cache_key(0, '{"a": 1, "b": 2}'), 0, "cached", now=0.0)
        future = eq.submit_task("e", 0, '{"b": 2, "a": 1}', cache="read")
        assert future._result == "cached"
        eq.close()

    def test_readwrite_populates_on_report(self):
        eq, store, _clock, _reg = self._eqsql()
        future = eq.submit_task("e", 0, '{"x": 1}', cache="readwrite")
        self._run_one(eq, store)
        # Populated at report time, before any retrieval.
        assert store.cache_stats()["inserts"] == 1
        assert future.result(timeout=0) == (ResultStatus.SUCCESS, '{"out": 1}')
        # A later identical submission is a pure cache hit.
        hit = eq.submit_task("e", 0, '{"x": 1}', cache="read")
        assert hit._result == '{"out": 1}'
        assert store.queue_out_length(0) == 0
        eq.close()

    def test_read_mode_does_not_populate(self):
        eq, store, _clock, _reg = self._eqsql()
        future = eq.submit_task("e", 0, '{"x": 1}', cache="read")
        self._run_one(eq, store)
        assert future.result(timeout=0)[0] == ResultStatus.SUCCESS
        assert store.cache_stats()["inserts"] == 0
        eq.close()

    def test_populates_through_batch_report_path(self):
        eq, store, _clock, _reg = self._eqsql()
        f1 = eq.submit_task("e", 0, '{"x": 1}', cache="readwrite")
        f2 = eq.submit_task("e", 0, '{"x": 2}', cache="readwrite")
        popped = store.pop_out(0, 2, worker_pool="w", now=0.0)
        eq.report_tasks([(tid, 0, f'{{"res": {tid}}}') for tid, _ in popped])
        assert store.cache_stats()["inserts"] == 2
        assert f1.result(timeout=0)[0] == ResultStatus.SUCCESS
        assert f2.result(timeout=0)[0] == ResultStatus.SUCCESS
        eq.close()

    def test_inflight_duplicate_coalesces(self):
        eq, store, _clock, registry = self._eqsql()
        f1 = eq.submit_task("e", 0, '{"x": 1}', cache="readwrite")
        f2 = eq.submit_task("e", 0, '{"x": 1}', cache="readwrite")
        assert f2.eq_task_id == f1.eq_task_id
        assert registry.counter("cache.coalesce").value == 1
        assert store.queue_out_length(0) == 1  # single task row
        self._run_one(eq, store)
        # One popped result resolves both futures; queues fully drain.
        done = list(as_completed([f1, f2], timeout=0))
        assert len(done) == 2
        assert f1._result == f2._result == '{"out": 1}'
        assert eq.are_queues_empty()
        eq.close()

    def test_batch_dedups_within_and_against_inflight(self):
        eq, store, _clock, registry = self._eqsql()
        leader = eq.submit_task("e", 0, '{"x": 1}', cache="readwrite")
        futures = eq.submit_tasks(
            "e", 0, ['{"x": 1}', '{"x": 2}', '{"x": 2}'], cache="readwrite"
        )
        assert futures[0].eq_task_id == leader.eq_task_id  # vs in-flight
        assert futures[1].eq_task_id == futures[2].eq_task_id  # in-batch
        assert store.queue_out_length(0) == 2  # x=1 and x=2 only
        assert registry.counter("cache.coalesce").value == 2
        eq.close()

    @pytest.mark.parametrize("hits", ["misses", "all_hits"])
    @pytest.mark.parametrize(
        "priority, error",
        [([5], ValueError), ([1, 2, 3, 4], ValueError), ([1, "2", 3], TypeError)],
        ids=["short", "long", "non_int"],
    )
    @pytest.mark.parametrize("cache", ["off", "read", "readwrite"])
    def test_batch_priority_validated_in_every_mode(
        self, cache, priority, error, hits
    ):
        # The cached modes send only misses to the store (none at all
        # when every payload hits), so EQSQL must check the whole
        # sequence itself, exactly as the store does in "off" mode.
        eq, store, _clock, _reg = self._eqsql()
        payloads = ['{"x": 1}', '{"x": 2}', '{"x": 3}']
        if hits == "all_hits":
            for payload in payloads:
                store.cache_put(cache_key(0, payload), 0, "cached", now=0.0)
        with pytest.raises(error):
            eq.submit_tasks("e", 0, payloads, priority=priority, cache=cache)
        assert store.queue_out_length(0) == 0
        eq.close()

    def test_coalesced_task_survives_lease_expiry_requeue(self):
        """The ISSUE's adversarial interleaving: the original lease of a
        coalesced task expires, the reaper requeues it, a second pool
        executes it, and the late first report is a no-op — both
        futures still resolve exactly once, with the first-written
        result, and the cache holds that same result."""
        eq, store, clock, _reg = self._eqsql()
        f1 = eq.submit_task("e", 0, '{"x": 1}', cache="readwrite")
        f2 = eq.submit_task("e", 0, '{"x": 1}', cache="readwrite")
        tid = f1.eq_task_id

        # Pool A claims under a lease, then stalls past expiry.
        popped = store.pop_out(0, 1, worker_pool="A", now=0.0, lease=5.0)
        assert popped[0][0] == tid
        clock.advance(10.0)
        assert store.requeue_expired(now=clock.now()) == [tid]

        # Pool B re-pops and reports first: its result wins.
        popped = store.pop_out(0, 1, worker_pool="B", now=clock.now(), lease=5.0)
        assert popped[0][0] == tid
        eq.report_task(tid, 0, '{"by": "B"}')
        # Pool A's late report is absorbed (first-write-wins).
        eq.report_task(tid, 0, '{"by": "A"}')

        done = list(as_completed([f1, f2], timeout=0))
        assert len(done) == 2
        assert f1._result == f2._result == '{"by": "B"}'
        assert eq.are_queues_empty()
        # The cache holds the winning result only.
        stats = store.cache_stats()
        assert stats["inserts"] == 1
        hit = eq.submit_task("e", 0, '{"x": 1}', cache="read")
        assert hit._result == '{"by": "B"}'
        eq.close()

    def test_cancel_drops_the_flight(self):
        eq, store, _clock, _reg = self._eqsql()
        f1 = eq.submit_task("e", 0, '{"x": 1}', cache="readwrite")
        assert eq.cancel_tasks([f1.eq_task_id]) == 1
        # A fresh identical submission must not coalesce onto the
        # canceled task — it gets a new row.
        f2 = eq.submit_task("e", 0, '{"x": 1}', cache="readwrite")
        assert f2.eq_task_id != f1.eq_task_id
        self._run_one(eq, store)
        assert f2.result(timeout=0)[0] == ResultStatus.SUCCESS
        eq.close()

    def test_ttl_flows_from_eqsql_config(self):
        eq, store, clock, _reg = self._eqsql(ttl=10.0)
        future = eq.submit_task("e", 0, '{"x": 1}', cache="readwrite")
        self._run_one(eq, store)
        assert future.result(timeout=0)[0] == ResultStatus.SUCCESS
        clock.advance(5.0)
        assert eq.submit_task("e", 0, '{"x": 1}', cache="read")._result is not None
        clock.advance(6.0)  # past the 10 s TTL
        stale = eq.submit_task("e", 0, '{"x": 1}', cache="read")
        assert stale._result is None  # miss: a real task was created
        assert stale.eq_task_id > 0
        eq.close()


class TestRemoteSubmitPathCache:
    def test_pop_time_population_when_reporter_is_remote(self):
        """Distributed topology: the reporting process is not the
        submitting process, so report-time population cannot see the
        flight — the submit side populates when the result lands."""
        from repro.core.service import TaskService
        from repro.core.service_client import RemoteTaskStore

        registry = MetricsRegistry()
        backend = SqliteTaskStore(metrics=registry, cache_capacity=16)
        service = TaskService(backend, port=0, metrics=registry).start()
        host, port = service.address
        me_client = RemoteTaskStore(host, port, metrics=MetricsRegistry())
        pool_client = RemoteTaskStore(host, port, metrics=MetricsRegistry())
        me = EQSQL(me_client, metrics=MetricsRegistry())
        try:
            future = me.submit_task("e", 0, '{"x": 1}', cache="readwrite")
            popped = pool_client.pop_out(0, 1, worker_pool="w", now=0.0)
            # The pool-side report: a different store handle entirely.
            pool_client.report_batch([(popped[0][0], 0, '{"res": 7}')], now=1.0)
            assert future.result(timeout=5.0) == (
                ResultStatus.SUCCESS, '{"res": 7}'
            )
            assert backend.cache_stats()["inserts"] == 1
            hit = me.submit_task("e", 0, '{"x": 1}', cache="read")
            assert hit._result == '{"res": 7}'
        finally:
            me.close()
            pool_client.close()
            service.stop()
            backend.close()
