"""Pure-Python in-memory EMEWS DB backend.

Implements the :class:`repro.db.backend.TaskStore` contract with plain
dictionaries and per-work-type binary heaps.  This backend is the engine
under the discrete-event simulations (hundreds of thousands of queue
operations per scenario) so the hot paths — pop, report, reprioritize —
are O(log n).

Priority pops use lazy invalidation: reprioritizing or canceling a task
marks its current heap entry stale and (for reprioritize) pushes a fresh
entry; stale entries are discarded when they surface at the heap top.
This is the standard heapq decrease-key idiom and keeps update_priorities
O(k log n) for k tasks rather than O(n) heap rebuilds — the operation the
paper's GPR loop performs on up to 700 tasks at a time.
"""

from __future__ import annotations

import heapq
import threading
import time
from collections.abc import Iterable, Mapping, Sequence

from repro.db.backend import TaskStore, normalize_priorities, normalize_profiles
from repro.db.schema import TaskRow, TaskStatus
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
    get_journal,
)
from repro.telemetry.metrics import MetricsRegistry, get_metrics
from repro.util.errors import NotFoundError


class _HeapEntry:
    """One output-queue heap entry; ``alive`` is cleared on invalidation."""

    __slots__ = ("eq_task_id", "priority", "alive")

    def __init__(self, eq_task_id: int, priority: int) -> None:
        self.eq_task_id = eq_task_id
        self.priority = priority
        self.alive = True

    def sort_key(self) -> tuple[int, int]:
        # heapq is a min-heap: negate priority for highest-first; break
        # ties by ascending task id, matching the SQL backends'
        # ORDER BY eq_priority DESC, eq_task_id ASC.
        return (-self.priority, self.eq_task_id)

    def __lt__(self, other: "_HeapEntry") -> bool:
        return self.sort_key() < other.sort_key()


class MemoryTaskStore(TaskStore):
    """In-memory implementation of the EMEWS DB."""

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        journal: Journal | None = None,
        *,
        cache_capacity: int = 512,
    ) -> None:
        registry = metrics if metrics is not None else get_metrics()
        # Flight recorder: resolved per call when not injected, so a
        # later configure_journal() is picked up (tracer discipline).
        self._journal = journal
        self._m_lease_renewals = registry.counter(
            "db.lease_renewals", "task leases extended by a heartbeat"
        )
        self._m_lease_requeues = registry.counter(
            "db.lease_requeues", "expired-lease tasks requeued by a reaper sweep"
        )
        self._m_report_withdrawals = registry.counter(
            "db.report_withdrawals",
            "requeued copies withdrawn because the original report landed",
        )
        self._m_cache_hit = registry.counter(
            "cache.hit", "result-cache lookups answered from the cache"
        )
        self._m_cache_miss = registry.counter(
            "cache.miss", "result-cache lookups that found nothing live"
        )
        self._m_cache_insert = registry.counter(
            "cache.insert", "result-cache entries written"
        )
        self._m_cache_evict = registry.counter(
            "cache.evict", "result-cache entries evicted by the LRU bound"
        )
        self._lock = threading.RLock()
        self._tasks: dict[int, TaskRow] = {}
        self._exp_tasks: dict[str, list[int]] = {}
        self._tag_tasks: dict[str, list[int]] = {}
        # Output queue: one heap per work type plus an id -> live-entry
        # map used for reprioritization and cancellation.  Queue depths
        # (queue_out_length, stats) always derive from the live-entry
        # map, never from heap lengths, so lazily-deleted entries can
        # never leak into the gauges sqlite computes from real rows.
        self._out_heaps: dict[int, list[_HeapEntry]] = {}
        self._out_entries: dict[int, _HeapEntry] = {}
        # Dead (invalidated, not yet popped) entries per heap.  Under
        # heavy reprioritization — the paper's GPR loop rewrites up to
        # 700 priorities per cycle — dead entries would otherwise
        # accumulate without bound until each one surfaces at the heap
        # top; compaction rebuilds a heap once the dead outnumber the
        # live.
        self._out_dead: dict[int, int] = {}
        # Input queue: id -> work type, insertion-ordered (dicts preserve
        # insertion order, giving in-queue FIFO for diagnostics).
        self._in_queue: dict[int, int] = {}
        # Long-poll plumbing: one condition per work type for the output
        # queue (a pool waiting on type 3 must not wake for type 5) plus
        # one for the whole input queue.  All conditions share the store
        # lock, so notify points are exactly the mutation sites and a
        # woken waiter re-checks state under the same critical section.
        self._out_conds: dict[int, threading.Condition] = {}
        # Latest enqueue time (create or reaper requeue) per work type: a
        # pop that had to wait is stamped no earlier, so it never
        # predates the write that woke it.
        self._out_marks: dict[int, float] = {}
        self._in_cond = threading.Condition(self._lock)
        # Bumped by wake_waiters(); wait loops capture it on entry and
        # give up (return empty) the moment it moves — the shutdown wake.
        self._wake_epoch = 0
        # Content-addressed result cache: key -> [eq_type, result,
        # expiry, last_used].  ``last_used`` is a per-store monotonic
        # use counter (not a timestamp) so LRU order is total and
        # identical under wall-clock and virtual time; eviction scans
        # for the minimum, which is fine at the capacities involved.
        if cache_capacity < 1:
            raise ValueError(f"cache_capacity must be >= 1, got {cache_capacity}")
        self._cache_capacity = cache_capacity
        self._cache: dict[str, list] = {}
        self._cache_use = 0
        self._cache_hits = 0
        self._cache_misses = 0
        self._cache_inserts = 0
        self._cache_evictions = 0
        self._next_id = 1
        self._closed = False

    # -- internal helpers --------------------------------------------------

    def _jrnl(self) -> Journal:
        return self._journal if self._journal is not None else get_journal()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("store is closed")

    def _alloc_id(self) -> int:
        value = self._next_id
        self._next_id += 1
        return value

    def _out_cond(self, eq_type: int) -> threading.Condition:
        """The per-work-type output-queue condition (call under the lock)."""
        cond = self._out_conds.get(eq_type)
        if cond is None:
            cond = self._out_conds[eq_type] = threading.Condition(self._lock)
        return cond

    def _enqueue_out(
        self, eq_task_id: int, eq_type: int, priority: int, at: float | None = None
    ) -> None:
        entry = _HeapEntry(eq_task_id, priority)
        if at is not None:
            self._out_marks[eq_type] = max(self._out_marks.get(eq_type, at), at)
        self._out_entries[eq_task_id] = entry
        heapq.heappush(self._out_heaps.setdefault(eq_type, []), entry)
        # Wake pop_out long-polls for this work type.  Covers every path
        # that makes a task claimable: create_tasks, requeue, and the
        # reaper's requeue_expired all funnel through here.
        cond = self._out_conds.get(eq_type)
        if cond is not None:
            cond.notify_all()

    _COMPACT_FLOOR = 64

    def _note_dead(self, eq_type: int) -> None:
        """Account one lazily-invalidated heap entry; compact if dead > live.

        Call under the lock, after clearing ``entry.alive`` on an entry
        that stays in its heap (reprioritize, cancel, report-withdraw).
        The rebuild is amortized O(1) per invalidation: it only fires
        once dead entries outnumber live ones (and the heap is past a
        small floor), and resets the dead count to zero.
        """
        dead = self._out_dead.get(eq_type, 0) + 1
        heap = self._out_heaps.get(eq_type, [])
        if len(heap) >= self._COMPACT_FLOOR and dead * 2 > len(heap):
            heap[:] = [e for e in heap if e.alive]
            heapq.heapify(heap)
            self._out_dead[eq_type] = 0
        else:
            self._out_dead[eq_type] = dead

    def _insert_task(
        self,
        exp_id: str,
        eq_type: int,
        payload: str,
        priority: int,
        tag: str | None,
        time_created: float,
    ) -> int:
        eq_task_id = self._alloc_id()
        row = TaskRow(
            eq_task_id=eq_task_id,
            eq_task_type=eq_type,
            eq_status=TaskStatus.QUEUED,
            json_out=payload,
            time_created=time_created,
            eq_priority=priority,
        )
        if tag is not None:
            row.tags.append(tag)
            self._tag_tasks.setdefault(tag, []).append(eq_task_id)
        self._tasks[eq_task_id] = row
        self._exp_tasks.setdefault(exp_id, []).append(eq_task_id)
        self._enqueue_out(eq_task_id, eq_type, priority, time_created)
        journal = self._jrnl()
        if journal.enabled:
            journal.emit(
                EV_ENQUEUE, eq_task_id, role=ROLE_DB, work_type=eq_type,
                time=time_created, extra={"exp_id": exp_id, "priority": priority},
            )
        return eq_task_id

    # -- task creation -----------------------------------------------------

    def create_tasks(
        self,
        exp_id: str,
        eq_type: int,
        payloads: Sequence[str],
        *,
        priority: int | Sequence[int] = 0,
        tag: str | None = None,
        time_created: float = 0.0,
    ) -> list[int]:
        priorities = normalize_priorities(len(payloads), priority)
        with self._lock:
            self._check_open()
            return [
                self._insert_task(exp_id, eq_type, p, pr, tag, time_created)
                for p, pr in zip(payloads, priorities)
            ]

    # -- output queue --------------------------------------------------------

    def pop_out(
        self,
        eq_type: int,
        n: int = 1,
        *,
        worker_pool: str = "default",
        now: float = 0.0,
        lease: float | None = None,
        wait: float | None = None,
    ) -> list[tuple[int, str]]:
        if n < 1:
            return []
        if wait is None or wait <= 0:
            with self._lock:
                self._check_open()
                return self._pop_out_locked(eq_type, n, worker_pool, now, lease)
        # Long-poll: wait on the per-type condition until work arrives,
        # the deadline passes, or wake_waiters() bumps the epoch.  The
        # deadline is wall-clock — the store has no injected clock, and
        # a *bounded real block* is the contract the service relies on.
        deadline = time.monotonic() + wait
        with self._lock:
            self._check_open()
            cond = self._out_cond(eq_type)
            epoch = self._wake_epoch
            while True:
                popped = self._pop_out_locked(eq_type, n, worker_pool, now, lease)
                if popped:
                    return popped
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self._wake_epoch != epoch:
                    return []
                cond.wait(remaining)
                self._check_open()
                now = max(now, self._out_marks.get(eq_type, now))

    def _pop_out_locked(
        self,
        eq_type: int,
        n: int,
        worker_pool: str,
        now: float,
        lease: float | None,
    ) -> list[tuple[int, str]]:
        heap = self._out_heaps.get(eq_type)
        popped: list[tuple[int, str]] = []
        while heap and len(popped) < n:
            entry = heapq.heappop(heap)
            if not entry.alive:
                dead = self._out_dead.get(eq_type, 0)
                if dead > 0:
                    self._out_dead[eq_type] = dead - 1
                continue
            del self._out_entries[entry.eq_task_id]
            row = self._tasks[entry.eq_task_id]
            row.eq_status = TaskStatus.RUNNING
            row.time_start = now
            row.worker_pool = worker_pool
            row.lease_expiry = None if lease is None else now + lease
            popped.append((entry.eq_task_id, row.json_out))
        journal = self._jrnl()
        if journal.enabled and popped:
            for eq_task_id, _ in popped:
                journal.emit(
                    EV_POP, eq_task_id, role=ROLE_DB, work_type=eq_type,
                    time=now, source=worker_pool,
                    extra=None if lease is None else {"lease": lease},
                )
        return popped

    def queue_out_length(self, eq_type: int | None = None) -> int:
        with self._lock:
            if eq_type is None:
                return len(self._out_entries)
            return sum(
                1
                for entry in self._out_entries.values()
                if self._tasks[entry.eq_task_id].eq_task_type == eq_type
            )

    # -- input queue ----------------------------------------------------------

    def report_batch(
        self,
        reports: Sequence[tuple[int, int, str]],
        *,
        now: float = 0.0,
        profiles: Mapping[int, dict] | None = None,
    ) -> None:
        # One lock acquisition for the whole batch.  First write wins,
        # so a retried or duplicate report neither overwrites the result
        # nor enqueues a second input-queue row.
        profile_by_id = normalize_profiles(profiles)
        with self._lock:
            self._check_open()
            missing: list[int] = []
            withdrawals = 0
            journal = self._jrnl()
            recording = journal.enabled
            for eq_task_id, eq_type, result in reports:
                row = self._tasks.get(eq_task_id)
                if row is None:
                    missing.append(eq_task_id)
                    continue
                if row.eq_status == TaskStatus.COMPLETE:
                    continue  # idempotent duplicate
                row.json_in = result
                row.eq_status = TaskStatus.COMPLETE
                row.time_stop = now
                row.lease_expiry = None
                # If the task was requeued (lease expiry racing a slow
                # pool's report), withdraw the queued copy: the result
                # is in, so re-execution would only waste a worker — and
                # a re-claim would flip the row back to RUNNING, breaking
                # the invariant that the output queue holds only QUEUED
                # tasks.
                entry = self._out_entries.pop(eq_task_id, None)
                if entry is not None:
                    entry.alive = False
                    self._note_dead(row.eq_task_type)
                    withdrawals += 1
                    if recording:
                        journal.emit(
                            EV_WITHDRAW, eq_task_id, role=ROLE_DB,
                            work_type=eq_type, time=now,
                        )
                self._in_queue[eq_task_id] = eq_type
                self._in_cond.notify_all()  # wake pop_in_any long-polls
                if recording:
                    profile = profile_by_id.get(eq_task_id)
                    journal.emit(
                        EV_REPORT, eq_task_id, role=ROLE_DB, work_type=eq_type,
                        time=now, source=row.worker_pool or "",
                        extra={"profile": profile} if profile else None,
                    )
            if withdrawals:
                self._m_report_withdrawals.inc(withdrawals)
        if missing:
            raise NotFoundError(f"no task(s) with id(s) {missing}")

    def pop_in_any(
        self,
        eq_task_ids: Iterable[int],
        limit: int | None = None,
        *,
        wait: float | None = None,
    ) -> list[tuple[int, str]]:
        ids = list(eq_task_ids)
        if wait is None or wait <= 0:
            with self._lock:
                self._check_open()
                return self._pop_in_any_locked(ids, limit)
        deadline = time.monotonic() + wait
        with self._lock:
            self._check_open()
            epoch = self._wake_epoch
            while True:
                results = self._pop_in_any_locked(ids, limit)
                if results:
                    return results
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self._wake_epoch != epoch:
                    return []
                self._in_cond.wait(remaining)
                self._check_open()

    def _pop_in_any_locked(
        self, eq_task_ids: Sequence[int], limit: int | None
    ) -> list[tuple[int, str]]:
        results: list[tuple[int, str]] = []
        for eq_task_id in eq_task_ids:
            if limit is not None and len(results) >= limit:
                break
            if eq_task_id in self._in_queue:
                del self._in_queue[eq_task_id]
                json_in = self._tasks[eq_task_id].json_in
                results.append((eq_task_id, json_in if json_in is not None else ""))
        return results

    def queue_in_length(self) -> int:
        with self._lock:
            return len(self._in_queue)

    # -- status / priority / cancellation --------------------------------------

    def get_task(self, eq_task_id: int) -> TaskRow:
        with self._lock:
            self._check_open()
            row = self._tasks.get(eq_task_id)
            if row is None:
                raise NotFoundError(f"no task with id {eq_task_id}")
            # Return a copy: callers must not mutate store state directly.
            return TaskRow(
                eq_task_id=row.eq_task_id,
                eq_task_type=row.eq_task_type,
                eq_status=row.eq_status,
                worker_pool=row.worker_pool,
                json_out=row.json_out,
                json_in=row.json_in,
                time_created=row.time_created,
                time_start=row.time_start,
                time_stop=row.time_stop,
                lease_expiry=row.lease_expiry,
                eq_priority=row.eq_priority,
                tags=list(row.tags),
            )

    def get_statuses(self, eq_task_ids: Sequence[int]) -> list[tuple[int, TaskStatus]]:
        with self._lock:
            return [
                (tid, self._tasks[tid].eq_status)
                for tid in eq_task_ids
                if tid in self._tasks
            ]

    def get_priorities(self, eq_task_ids: Sequence[int]) -> list[tuple[int, int]]:
        with self._lock:
            out: list[tuple[int, int]] = []
            for tid in eq_task_ids:
                entry = self._out_entries.get(tid)
                if entry is not None:
                    out.append((tid, entry.priority))
            return out

    def update_priorities(
        self, eq_task_ids: Sequence[int], priorities: int | Sequence[int]
    ) -> int:
        values = normalize_priorities(len(eq_task_ids), priorities)
        with self._lock:
            self._check_open()
            changed = 0
            for tid, priority in zip(eq_task_ids, values):
                entry = self._out_entries.get(tid)
                if entry is None:
                    continue  # already popped, complete, or canceled
                entry.alive = False
                row = self._tasks[tid]
                row.eq_priority = priority  # keep the sticky copy in sync
                self._enqueue_out(tid, row.eq_task_type, priority)
                self._note_dead(row.eq_task_type)
                changed += 1
            return changed

    def cancel_tasks(self, eq_task_ids: Sequence[int]) -> int:
        with self._lock:
            self._check_open()
            canceled: list[TaskRow] = []
            journal = self._jrnl()
            for tid in eq_task_ids:
                entry = self._out_entries.pop(tid, None)
                if entry is None:
                    continue
                entry.alive = False
                row = self._tasks[tid]
                row.eq_status = TaskStatus.CANCELED
                self._note_dead(row.eq_task_type)
                canceled.append(row)
            if journal.enabled:
                # Ascending id order regardless of caller order, matching
                # the SQL backend (conformance compares traces verbatim).
                for row in sorted(canceled, key=lambda r: r.eq_task_id):
                    journal.emit(
                        EV_CANCEL, row.eq_task_id, role=ROLE_DB,
                        work_type=row.eq_task_type,
                    )
            return len(canceled)

    def requeue(self, eq_task_id: int, *, priority: int | None = None) -> bool:
        with self._lock:
            self._check_open()
            row = self._tasks.get(eq_task_id)
            if row is None:
                raise NotFoundError(f"no task with id {eq_task_id}")
            if row.eq_status != TaskStatus.RUNNING:
                return False
            self._requeue_row(row, priority)
            return True

    def _requeue_row(
        self, row: TaskRow, priority: int | None, *, now: float | None = None
    ) -> None:
        """Move a RUNNING row back to QUEUED (call under the lock).

        ``priority=None`` restores the row's sticky ``eq_priority``; an
        explicit value wins and becomes the new sticky priority.
        """
        effective = row.eq_priority if priority is None else priority
        row.eq_priority = effective
        previous_pool = row.worker_pool
        row.eq_status = TaskStatus.QUEUED
        row.worker_pool = None
        row.time_start = None
        row.lease_expiry = None
        self._enqueue_out(row.eq_task_id, row.eq_task_type, effective, now)
        journal = self._jrnl()
        if journal.enabled:
            journal.emit(
                EV_REQUEUE, row.eq_task_id, role=ROLE_DB,
                work_type=row.eq_task_type, time=now,
                source=previous_pool or "",
                extra={"priority": effective},
            )

    # -- leases ------------------------------------------------------------------

    def renew_leases(
        self, eq_task_ids: Sequence[int], *, now: float, lease: float
    ) -> int:
        with self._lock:
            self._check_open()
            renewed = 0
            journal = self._jrnl()
            seen: set[int] = set()
            for tid in eq_task_ids:
                # Duplicate ids renew (and count) once, matching the SQL
                # backend's per-row UPDATE semantics — a pool that popped
                # the same task twice across a requeue still holds one
                # lease.
                if tid in seen:
                    continue
                seen.add(tid)
                row = self._tasks.get(tid)
                if row is None or row.eq_status != TaskStatus.RUNNING:
                    continue
                row.lease_expiry = now + lease
                renewed += 1
                if journal.enabled:
                    journal.emit(
                        EV_LEASE_RENEW, tid, role=ROLE_DB,
                        work_type=row.eq_task_type, time=now,
                        source=row.worker_pool or "",
                    )
            if renewed:
                self._m_lease_renewals.inc(renewed)
            return renewed

    def requeue_expired(
        self, *, now: float, priority: int | None = None
    ) -> list[int]:
        with self._lock:
            self._check_open()
            expired = [
                row
                for row in self._tasks.values()
                if row.eq_status == TaskStatus.RUNNING
                and row.lease_expiry is not None
                and row.lease_expiry <= now
            ]
            # Ascending id order, matching the SQL backend's ORDER BY —
            # the conformance harness compares the two byte-for-byte.
            expired.sort(key=lambda r: r.eq_task_id)
            for row in expired:
                self._requeue_row(row, priority, now=now)
            if expired:
                self._m_lease_requeues.inc(len(expired))
            return [row.eq_task_id for row in expired]

    # -- monitoring ---------------------------------------------------------------

    def stats(self, *, now: float = 0.0) -> dict:
        with self._lock:
            self._check_open()
            by_status = dict.fromkeys(TaskStatus, 0)
            active = expired = unleased = 0
            for row in self._tasks.values():
                by_status[row.eq_status] += 1
                if row.eq_status == TaskStatus.RUNNING:
                    if row.lease_expiry is None:
                        unleased += 1
                    elif row.lease_expiry > now:
                        active += 1
                    else:
                        expired += 1
            queue_out: dict[str, int] = {}
            for entry in self._out_entries.values():
                key = str(self._tasks[entry.eq_task_id].eq_task_type)
                queue_out[key] = queue_out.get(key, 0) + 1
            return {
                "tasks": {
                    **{s.label(): n for s, n in by_status.items()},
                    "total": len(self._tasks),
                },
                "queue_out": queue_out,
                "queue_out_total": len(self._out_entries),
                "queue_in": len(self._in_queue),
                "leases": {
                    "active": active,
                    "expired": expired,
                    "unleased_running": unleased,
                },
            }

    # -- result cache -------------------------------------------------------------

    def cache_get(self, cache_key: str, *, now: float = 0.0) -> str | None:
        with self._lock:
            self._check_open()
            entry = self._cache.get(cache_key)
            if entry is not None:
                expiry = entry[2]
                if expiry is not None and expiry <= now:
                    # TTL lapsed: the entry is dead, drop it on touch.
                    del self._cache[cache_key]
                    entry = None
            if entry is None:
                self._cache_misses += 1
                self._m_cache_miss.inc()
                return None
            self._cache_use += 1
            entry[3] = self._cache_use
            self._cache_hits += 1
            self._m_cache_hit.inc()
            return entry[1]

    def cache_put(
        self,
        cache_key: str,
        eq_type: int,
        result: str,
        *,
        now: float = 0.0,
        ttl: float | None = None,
    ) -> None:
        with self._lock:
            self._check_open()
            self._cache_use += 1
            expiry = None if ttl is None else now + ttl
            self._cache[cache_key] = [eq_type, result, expiry, self._cache_use]
            self._cache_inserts += 1
            self._m_cache_insert.inc()
            while len(self._cache) > self._cache_capacity:
                victim = min(self._cache, key=lambda k: self._cache[k][3])
                del self._cache[victim]
                self._cache_evictions += 1
                self._m_cache_evict.inc()

    def cache_stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._cache),
                "capacity": self._cache_capacity,
                "hits": self._cache_hits,
                "misses": self._cache_misses,
                "inserts": self._cache_inserts,
                "evictions": self._cache_evictions,
            }

    # -- experiment / tag queries ------------------------------------------------

    def tasks_for_experiment(self, exp_id: str) -> list[int]:
        with self._lock:
            return list(self._exp_tasks.get(exp_id, []))

    def tasks_for_tag(self, tag: str) -> list[int]:
        with self._lock:
            return list(self._tag_tasks.get(tag, []))

    # -- maintenance ----------------------------------------------------------------

    def max_task_id(self) -> int:
        with self._lock:
            return max(self._tasks, default=0)

    def clear(self) -> None:
        with self._lock:
            self._tasks.clear()
            self._exp_tasks.clear()
            self._tag_tasks.clear()
            self._out_heaps.clear()
            self._out_entries.clear()
            self._out_dead.clear()
            self._in_queue.clear()
            self._cache.clear()
            self._next_id = 1

    def wake_waiters(self) -> None:
        """Unblock every long-poll now; woken waits return empty."""
        with self._lock:
            self._wake_epoch += 1
            for cond in self._out_conds.values():
                cond.notify_all()
            self._in_cond.notify_all()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            # Blocked long-polls must not sleep out their deadline against
            # a closed store: wake them so they hit _check_open and raise.
            for cond in self._out_conds.values():
                cond.notify_all()
            self._in_cond.notify_all()
