"""Reference model of the :class:`~repro.db.backend.TaskStore` contract.

A deliberately naive, obviously-correct shadow implementation: plain
dicts, linear scans, explicit sorts.  The schedule engine runs every
operation against a real backend *and* this model and compares the
results — so the model is the executable specification the three access
paths are held to.  Nothing here is optimized; divergence from a real
backend is a conformance violation in the backend (or, rarely, a spec
bug to settle here first).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.db.schema import TaskStatus


class ModelTask:
    """Model state for one task."""

    __slots__ = (
        "eq_task_id",
        "eq_task_type",
        "status",
        "priority",
        "worker_pool",
        "lease_expiry",
        "payload",
        "result",
    )

    def __init__(self, eq_task_id: int, eq_task_type: int, priority: int,
                 payload: str) -> None:
        self.eq_task_id = eq_task_id
        self.eq_task_type = eq_task_type
        self.status = TaskStatus.QUEUED
        self.priority = priority
        self.worker_pool: str | None = None
        self.lease_expiry: float | None = None
        self.payload = payload
        self.result: str | None = None


class ModelStore:
    """Executable specification of the store contract.

    A task is on the output queue iff its status is QUEUED (creation
    enqueues; pop, cancel, and report-withdraw dequeue; requeue
    re-enqueues).  The input queue is an ordered id list.  Pop order is
    ``priority DESC, eq_task_id ASC``; batch operations preserve caller
    id order exactly as the SQL backend does.
    """

    def __init__(self, cache_capacity: int = 512) -> None:
        self.tasks: dict[int, ModelTask] = {}
        self.in_queue: list[int] = []
        self._next_id = 1
        # Result cache spec (mirrors TaskStore.cache_get/cache_put):
        # key -> [eq_type, result, expiry, last_used]; LRU order is a
        # per-store monotonic use counter, never wall time.
        self._cache_capacity = cache_capacity
        self._cache: dict[str, list] = {}
        self._cache_use = 0
        self._cache_hits = 0
        self._cache_misses = 0
        self._cache_inserts = 0
        self._cache_evictions = 0

    # -- creation ---------------------------------------------------------

    def create_tasks(
        self, eq_type: int, payloads: Sequence[str], priorities: Sequence[int]
    ) -> list[int]:
        ids = []
        for payload, priority in zip(payloads, priorities):
            tid = self._next_id
            self._next_id += 1
            self.tasks[tid] = ModelTask(tid, eq_type, priority, payload)
            ids.append(tid)
        return ids

    # -- output queue -----------------------------------------------------

    def _queued(self, eq_type: int | None = None) -> list[ModelTask]:
        return [
            t for t in self.tasks.values()
            if t.status == TaskStatus.QUEUED
            and (eq_type is None or t.eq_task_type == eq_type)
        ]

    def pop_out(
        self,
        eq_type: int,
        n: int,
        *,
        worker_pool: str,
        now: float,
        lease: float | None,
    ) -> list[tuple[int, str]]:
        candidates = sorted(
            self._queued(eq_type), key=lambda t: (-t.priority, t.eq_task_id)
        )[:n]
        for task in candidates:
            task.status = TaskStatus.RUNNING
            task.worker_pool = worker_pool
            task.lease_expiry = None if lease is None else now + lease
        return [(t.eq_task_id, t.payload) for t in candidates]

    def queue_out_length(self, eq_type: int | None = None) -> int:
        return len(self._queued(eq_type))

    # -- input queue ------------------------------------------------------

    def report_one(self, eq_task_id: int, result: str) -> str:
        """Apply one report; returns 'applied', 'duplicate', or 'missing'.

        First write wins; a requeued (QUEUED-again) copy is withdrawn
        from the output queue by virtue of the status change.  Mirrors
        the backends: any non-COMPLETE row accepts a result — including
        a CANCELED one whose cancellation raced a slow pool's report.
        """
        task = self.tasks.get(eq_task_id)
        if task is None:
            return "missing"
        if task.status == TaskStatus.COMPLETE:
            return "duplicate"
        task.result = result
        task.status = TaskStatus.COMPLETE
        task.lease_expiry = None
        self.in_queue.append(eq_task_id)
        return "applied"

    def pop_in_any(
        self, eq_task_ids: Sequence[int], limit: int | None = None
    ) -> list[tuple[int, str]]:
        waiting = set(self.in_queue)
        popped: list[tuple[int, str]] = []
        for tid in eq_task_ids:
            if limit is not None and len(popped) >= limit:
                break
            if tid in waiting:
                waiting.discard(tid)
                self.in_queue.remove(tid)
                result = self.tasks[tid].result
                popped.append((tid, result if result is not None else ""))
        return popped

    def queue_in_length(self) -> int:
        return len(self.in_queue)

    # -- status / priority / cancellation ---------------------------------

    def get_statuses(
        self, eq_task_ids: Sequence[int]
    ) -> list[tuple[int, TaskStatus]]:
        return [
            (tid, self.tasks[tid].status)
            for tid in eq_task_ids
            if tid in self.tasks
        ]

    def get_priorities(self, eq_task_ids: Sequence[int]) -> list[tuple[int, int]]:
        return [
            (tid, self.tasks[tid].priority)
            for tid in eq_task_ids
            if tid in self.tasks and self.tasks[tid].status == TaskStatus.QUEUED
        ]

    def update_priorities(
        self, eq_task_ids: Sequence[int], priorities: Sequence[int]
    ) -> int:
        changed = 0
        for tid, priority in zip(eq_task_ids, priorities):
            task = self.tasks.get(tid)
            if task is None or task.status != TaskStatus.QUEUED:
                continue
            task.priority = priority
            changed += 1
        return changed

    def cancel_tasks(self, eq_task_ids: Sequence[int]) -> int:
        canceled = 0
        for tid in eq_task_ids:
            task = self.tasks.get(tid)
            if task is None or task.status != TaskStatus.QUEUED:
                continue
            task.status = TaskStatus.CANCELED
            canceled += 1
        return canceled

    # -- leases -----------------------------------------------------------

    def renew_leases(
        self, eq_task_ids: Sequence[int], *, now: float, lease: float
    ) -> int:
        renewed = 0
        seen: set[int] = set()
        for tid in eq_task_ids:
            if tid in seen:
                continue  # duplicate ids renew once (one lease per task)
            seen.add(tid)
            task = self.tasks.get(tid)
            if task is None or task.status != TaskStatus.RUNNING:
                continue
            task.lease_expiry = now + lease
            renewed += 1
        return renewed

    def requeue_expired(
        self, *, now: float, priority: int | None = None
    ) -> list[int]:
        expired = sorted(
            (
                t for t in self.tasks.values()
                if t.status == TaskStatus.RUNNING
                and t.lease_expiry is not None
                and t.lease_expiry <= now
            ),
            key=lambda t: t.eq_task_id,
        )
        for task in expired:
            task.priority = task.priority if priority is None else priority
            task.status = TaskStatus.QUEUED
            task.worker_pool = None
            task.lease_expiry = None
        return [t.eq_task_id for t in expired]

    # -- result cache -----------------------------------------------------

    def cache_get(self, cache_key: str, *, now: float = 0.0) -> str | None:
        entry = self._cache.get(cache_key)
        if entry is not None:
            expiry = entry[2]
            if expiry is not None and expiry <= now:
                del self._cache[cache_key]
                entry = None
        if entry is None:
            self._cache_misses += 1
            return None
        self._cache_use += 1
        entry[3] = self._cache_use
        self._cache_hits += 1
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
        self._cache_use += 1
        expiry = None if ttl is None else now + ttl
        self._cache[cache_key] = [eq_type, result, expiry, self._cache_use]
        self._cache_inserts += 1
        while len(self._cache) > self._cache_capacity:
            victim = min(self._cache, key=lambda k: self._cache[k][3])
            del self._cache[victim]
            self._cache_evictions += 1

    def cache_stats(self) -> dict:
        return {
            "entries": len(self._cache),
            "capacity": self._cache_capacity,
            "hits": self._cache_hits,
            "misses": self._cache_misses,
            "inserts": self._cache_inserts,
            "evictions": self._cache_evictions,
        }

    # -- monitoring -------------------------------------------------------

    def stats(self, *, now: float) -> dict:
        by_status = dict.fromkeys(TaskStatus, 0)
        active = expired = unleased = 0
        for task in self.tasks.values():
            by_status[task.status] += 1
            if task.status == TaskStatus.RUNNING:
                if task.lease_expiry is None:
                    unleased += 1
                elif task.lease_expiry > now:
                    active += 1
                else:
                    expired += 1
        queue_out: dict[str, int] = {}
        for task in self._queued():
            key = str(task.eq_task_type)
            queue_out[key] = queue_out.get(key, 0) + 1
        return {
            "tasks": {
                **{s.label(): n for s, n in by_status.items()},
                "total": len(self.tasks),
            },
            "queue_out": queue_out,
            "queue_out_total": len(self._queued()),
            "queue_in": len(self.in_queue),
            "leases": {
                "active": active,
                "expired": expired,
                "unleased_running": unleased,
            },
        }
