"""Deterministic schedule engine for store conformance runs.

A seeded PRNG interleaves *logical* concurrent actors — submitters,
worker pools (pop / renew / report, including a slow pool whose lease
lapses mid-run), a lease reaper, a reprioritizer, a canceller, the
ME-side collector, and a long-poll *waiter* (blocking ``wait=`` pops
that must return instantly over satisfiable state, wake on the one
write they watch, or expire empty) — into one operation sequence
executed step-by-step against a real store and the
:class:`~.model.ModelStore` reference in lockstep.  Time comes from an injected
:class:`~repro.util.clock.VirtualClock` the engine advances itself.

Because every operation's observable result is verified against the
model *before* the next PRNG draw, the random stream — and therefore the
entire schedule — is a pure function of the seed: any violation replays
byte-for-byte from ``ScheduleEngine(store, seed=...)``.  The verified
results are also appended to a JSON-ready history list, which the runner
compares across access paths for byte-for-byte equivalence.

The schedule deliberately generates the races the lease/requeue design
exists to resolve: pools stop renewing, the clock jumps past lease
expiry, the reaper requeues, another pool re-pops, and the original
slow pool reports late — exercising exactly-once report, withdraw, and
priority restoration on every seed.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.db.backend import TaskStore
from repro.db.schema import TaskStatus
from repro.testing.conformance.model import ModelStore
from repro.util.clock import VirtualClock

#: Wake-branch wait bound (real seconds).  Event-driven: the wait ends
#: when the watched write lands, never by running this out — it only
#: bounds how long a *lost* wakeup can hang the engine before the join
#: below turns it into a violation.
_WAITER_WAIT = 10.0
#: Expiry-branch wait (real seconds, actually slept by the store).
_WAITER_EXPIRE = 0.02
#: Real pause giving the helper thread a chance to block before the
#: engine performs the wakeup write.  Best effort only — if the write
#: still wins the race, the wait returns immediately with the same
#: result, so the schedule stays deterministic either way.
_WAITER_SETTLE = 0.005
#: Hard bound on joining the helper thread before declaring the wakeup
#: lost (a store that never notifies its waiters).
_WAITER_JOIN = 30.0


#: One payload or result in ``_BULK_EVERY`` — picked by step or task id,
#: never by a PRNG draw, so seed schedules replay unchanged — is padded
#: past the wire's attachment threshold (4 096 characters) with
#: non-ASCII text, raw newlines and, past that threshold, a lone
#: surrogate, so every access path also carries frames with
#: attachments (create, pop, report, collect, cache) and the decoder
#: meets a surrogate wherever a read boundary falls.
_BULK_EVERY = 4
_BULK_PAD = ",\n".join(['"résumé 😀 → ∑"'] * 300 + ['"\ud800"'])  # 4 803 characters


def _bulk(text: str, key: int) -> str:
    """``text`` (a JSON object), or for every ``_BULK_EVERY``-th ``key``
    the same object grown past 4 KiB by a ``pad`` array."""
    if key % _BULK_EVERY:
        return text
    return text[:-1] + ', "pad": [\n' + _BULK_PAD + "\n]}"


#: Ops of :data:`repro.core.ops.OPS` that no actor drives, each with the
#: reason that is acceptable.  Everything else must be called by some
#: schedule (``tests/testing/test_conformance_fuzzer.py`` checks), so a
#: new RPC cannot ship without either an actor or a line here.
UNDRIVEN_OPS: dict[str, str] = {
    "requeue": "manual recovery; the reaper actor drives requeue_expired",
    "tasks_for_experiment": "read-only index query, no queue semantics",
    "tasks_for_tag": "read-only index query, no queue semantics",
    "max_task_id": "reattach helper; ids are verified on every create",
    "clear": "would erase the state the schedule is verifying",
    "ping": "connection handshake, exercised by every remote-path run",
    "telemetry": "fleet heartbeat; never touches task state",
}


class ConformanceViolation(AssertionError):
    """A store's observable behavior diverged from the reference model."""

    def __init__(self, seed: int, step: int, op: str, detail: str) -> None:
        super().__init__(
            f"seed {seed} step {step} op {op!r}: {detail}"
        )
        self.seed = seed
        self.step = step
        self.op = op
        self.detail = detail


@dataclass
class ScheduleConfig:
    """Knobs for one conformance schedule."""

    steps: int = 150
    n_pools: int = 3
    work_types: tuple[int, ...] = (0, 1)
    lease: float = 5.0
    max_priority: int = 10
    exp_id: str = "exp-conform"
    #: Probability a pop is unleased (never reaped) — the pre-lease mode.
    unleased_fraction: float = 0.1
    #: Result-cache capacity, deliberately tiny so the schedule reaches
    #: LRU eviction; the runner must build stores with the same value
    #: or eviction order diverges from the model.
    cache_capacity: int = 8
    #: Distinct cache keys the cacher draws from — larger than the
    #: capacity so overwrites, misses, and evictions all occur.
    cache_keys: int = 12
    #: Relative weights of the actor operations.
    weights: dict[str, int] = field(
        default_factory=lambda: {
            "submit": 18,
            "pop": 22,
            "report": 16,
            "renew": 8,
            "reap": 7,
            "reprioritize": 9,
            "cancel": 5,
            "collect": 7,
            "check": 6,
            "jump": 4,
            "waiter": 5,
            "cacher": 7,
        }
    )


class _PoolActor:
    """Model-side state of one logical worker pool."""

    __slots__ = ("name", "held")

    def __init__(self, name: str) -> None:
        self.name = name
        # Held ids are not removed on requeue — the pool does not know
        # it was reaped, which is precisely the race being tested.
        self.held: list[int] = []


class ScheduleEngine:
    """Run one seeded schedule against a store, verifying each step."""

    def __init__(
        self,
        store: TaskStore,
        seed: int,
        config: ScheduleConfig | None = None,
        clock: VirtualClock | None = None,
    ) -> None:
        self.store = store
        self.seed = seed
        self.config = config if config is not None else ScheduleConfig()
        self.clock = clock if clock is not None else VirtualClock()
        self.model = ModelStore(cache_capacity=self.config.cache_capacity)
        self.rng = random.Random(seed)
        self.history: list[list[Any]] = []
        self.pools = [
            _PoolActor(f"pool-{i}") for i in range(self.config.n_pools)
        ]
        self._ops = sorted(self.config.weights)
        self._weights = [self.config.weights[op] for op in self._ops]
        self._step = 0

    # -- verification ------------------------------------------------------

    def _fail(self, op: str, detail: str) -> None:
        raise ConformanceViolation(self.seed, self._step, op, detail)

    def _verify(self, op: str, got: Any, want: Any) -> None:
        if got != want:
            self._fail(op, f"store returned {got!r}, model expects {want!r}")

    def _record(self, op: str, *fields: Any) -> None:
        self.history.append([self._step, op, *fields])

    # -- actor operations --------------------------------------------------

    def _op_submit(self) -> None:
        rng = self.rng
        count = rng.randint(1, 3)
        eq_type = rng.choice(self.config.work_types)
        priorities = [
            rng.randint(0, self.config.max_priority) for _ in range(count)
        ]
        payloads = [
            _bulk(f'{{"step": {self._step}, "i": {i}}}', self._step + i)
            for i in range(count)
        ]
        now = self.clock.now()
        got = self.store.create_tasks(
            self.config.exp_id, eq_type, payloads,
            priority=priorities, time_created=now,
        )
        want = self.model.create_tasks(eq_type, payloads, priorities)
        self._verify("submit", list(got), want)
        self._record("submit", eq_type, priorities, want)

    def _op_pop(self) -> None:
        rng = self.rng
        pool = rng.choice(self.pools)
        eq_type = rng.choice(self.config.work_types)
        n = rng.randint(1, 3)
        leased = rng.random() >= self.config.unleased_fraction
        lease = self.config.lease if leased else None
        now = self.clock.now()
        got = self.store.pop_out(
            eq_type, n, worker_pool=pool.name, now=now, lease=lease
        )
        want = self.model.pop_out(
            eq_type, n, worker_pool=pool.name, now=now, lease=lease
        )
        self._verify("pop", [list(p) for p in got], [list(p) for p in want])
        pool.held.extend(tid for tid, _ in want)
        self._record("pop", pool.name, eq_type, n, leased,
                     [tid for tid, _ in want])

    def _op_report(self) -> None:
        """One pool reports: a ``report_batch`` of one held result, or
        of up to three (mixed work types, and — when the pool re-popped
        its own requeued task — the same id twice), each item verified
        against the model's single-report semantics.  Some
        batches are a ``report_pop``: the same reports, then a refill of
        0–3 tasks verified as the model's ``pop_out``."""
        rng = self.rng
        candidates = [p for p in self.pools if p.held]
        if not candidates:
            return
        pool = rng.choice(candidates)
        draw = rng.random()
        batched = draw < 0.4
        fused = draw < 0.15
        count = rng.randint(1, min(3, len(pool.held))) if batched else 1
        reports = []
        for _ in range(count):
            tid = pool.held.pop(rng.randrange(len(pool.held)))
            reports.append((
                tid, self.model.tasks[tid].eq_task_type,
                _bulk(f'{{"task": {tid}, "by": "{pool.name}"}}', tid),
            ))
        now = self.clock.now()
        if fused:
            eq_type = rng.choice(self.config.work_types)
            n = rng.randint(0, 3)
            leased = rng.random() >= self.config.unleased_fraction
            lease = self.config.lease if leased else None
            got = self.store.report_pop(
                reports, eq_type, n, worker_pool=pool.name, now=now, lease=lease
            )
        else:  # a lone report too: one-element batch
            self.store.report_batch(reports, now=now)
        for tid, _eq_type, result in reports:
            outcome = self.model.report_one(tid, result)
            if outcome == "missing":
                self._fail("report", f"model lost task {tid}")
            self._record("report", pool.name, tid, outcome, batched)
        if fused:
            want = self.model.pop_out(
                eq_type, n, worker_pool=pool.name, now=now, lease=lease
            )
            self._verify(
                "report_pop", [list(p) for p in got], [list(p) for p in want]
            )
            pool.held.extend(tid for tid, _ in want)
            self._record("refill", pool.name, eq_type, n, leased,
                         [tid for tid, _ in want])

    def _op_renew(self) -> None:
        rng = self.rng
        candidates = [p for p in self.pools if p.held]
        if not candidates:
            return
        pool = rng.choice(candidates)
        ids = sorted(pool.held)
        now = self.clock.now()
        got = self.store.renew_leases(ids, now=now, lease=self.config.lease)
        want = self.model.renew_leases(ids, now=now, lease=self.config.lease)
        self._verify("renew", got, want)
        self._record("renew", pool.name, ids, want)

    def _op_reap(self) -> None:
        now = self.clock.now()
        got = self.store.requeue_expired(now=now)
        want = self.model.requeue_expired(now=now)
        self._verify("reap", list(got), want)
        self._record("reap", want)

    def _op_reprioritize(self) -> None:
        rng = self.rng
        known = sorted(self.model.tasks)
        if not known:
            return
        ids = sorted(rng.sample(known, min(len(known), rng.randint(1, 5))))
        priorities = [
            rng.randint(0, self.config.max_priority) for _ in ids
        ]
        got = self.store.update_priorities(ids, priorities)
        want = self.model.update_priorities(ids, priorities)
        self._verify("reprioritize", got, want)
        self._record("reprioritize", ids, priorities, want)

    def _op_cancel(self) -> None:
        rng = self.rng
        known = sorted(self.model.tasks)
        if not known:
            return
        ids = sorted(rng.sample(known, min(len(known), rng.randint(1, 3))))
        got = self.store.cancel_tasks(ids)
        want = self.model.cancel_tasks(ids)
        self._verify("cancel", got, want)
        self._record("cancel", ids, want)

    def _op_collect(self) -> None:
        rng = self.rng
        known = sorted(self.model.tasks)
        if not known:
            return
        ids = rng.sample(known, min(len(known), rng.randint(1, 8)))
        limit = rng.choice([None, 1, 2, 4])
        got = self.store.pop_in_any(ids, limit=limit)
        want = self.model.pop_in_any(ids, limit=limit)
        self._verify(
            "collect", [list(p) for p in got], [list(p) for p in want]
        )
        self._record("collect", ids, limit, [tid for tid, _ in want])

    def _op_check(self) -> None:
        """One read-only probe, verified against the model."""
        rng = self.rng
        probe = rng.choice(
            ["stats", "lengths", "statuses", "priorities", "task"]
        )
        now = self.clock.now()
        if probe == "stats":
            self._verify("check:stats", self.store.stats(now=now),
                         self.model.stats(now=now))
            self._record("check", "stats")
        elif probe == "lengths":
            eq_type = rng.choice((None,) + self.config.work_types)
            got = [
                self.store.queue_out_length(eq_type),
                self.store.queue_in_length(),
            ]
            want = [
                self.model.queue_out_length(eq_type),
                self.model.queue_in_length(),
            ]
            self._verify("check:lengths", got, want)
            self._record("check", "lengths", eq_type, want)
        else:
            known = sorted(self.model.tasks)
            if not known:
                return
            ids = sorted(rng.sample(known, min(len(known), 6)))
            if probe == "statuses":
                got = [
                    [tid, int(status)]
                    for tid, status in self.store.get_statuses(ids)
                ]
                want = [
                    [tid, int(status)]
                    for tid, status in self.model.get_statuses(ids)
                ]
                self._verify("check:statuses", got, want)
                self._record("check", "statuses", ids, want)
            elif probe == "priorities":
                got = [list(p) for p in self.store.get_priorities(ids)]
                want = [list(p) for p in self.model.get_priorities(ids)]
                self._verify("check:priorities", got, want)
                self._record("check", "priorities", ids, want)
            else:  # one full task row, incl. the sticky priority
                tid = rng.choice(known)
                row = self.store.get_task(tid)
                task = self.model.tasks[tid]
                got = [
                    int(row.eq_status), row.eq_priority, row.worker_pool,
                    row.lease_expiry, row.json_in,
                ]
                want = [
                    int(task.status), task.priority, task.worker_pool,
                    task.lease_expiry, task.result,
                ]
                self._verify("check:task", got, want)
                self._record("check", "task", tid, want)

    def _op_waiter(self) -> None:
        """Long-poll waits in all three shapes: immediate, wake, expiry.

        Exercises the blocking ``wait=`` path of ``pop_out`` and
        ``pop_in_any`` against the model.  A wait over satisfiable state
        must return instantly; a wait over empty state must be woken by
        the one write it watches (run in a helper thread so the engine
        thread can perform that write); a short wait over state nobody
        writes must expire empty.  Branch selection depends only on
        engine/model state — identical across access paths — so the PRNG
        stream, and hence the schedule, stays a pure function of the
        seed.  Helper threads only *call* the store; every verification
        happens on the engine thread after join, and the thread is
        always joined before the op returns so no background activity
        leaks into later steps.
        """
        rng = self.rng
        if rng.random() < 0.6:
            self._waiter_out(rng)
        else:
            self._waiter_in(rng)

    def _waiter_out(self, rng: random.Random) -> None:
        pool = rng.choice(self.pools)
        eq_type = rng.choice(self.config.work_types)
        n = rng.randint(1, 2)
        leased = rng.random() >= self.config.unleased_fraction
        lease = self.config.lease if leased else None
        priority = rng.randint(0, self.config.max_priority)
        now = self.clock.now()
        if self.model.queue_out_length(eq_type) > 0:
            # Immediate: a wait over claimable work must not block.
            got = self.store.pop_out(
                eq_type, n, worker_pool=pool.name, now=now, lease=lease,
                wait=_WAITER_WAIT,
            )
            want = self.model.pop_out(
                eq_type, n, worker_pool=pool.name, now=now, lease=lease
            )
            self._verify(
                "waiter:pop_out", [list(p) for p in got],
                [list(p) for p in want],
            )
            pool.held.extend(tid for tid, _ in want)
            self._record("waiter", "out-immediate", pool.name, eq_type, n,
                         leased, [tid for tid, _ in want])
            return
        if rng.random() < 0.3:
            # Expiry: an empty queue outlasts a short wait.
            got = self.store.pop_out(
                eq_type, n, worker_pool=pool.name, now=now, lease=lease,
                wait=_WAITER_EXPIRE,
            )
            self._verify("waiter:pop_out", [list(p) for p in got], [])
            self._record("waiter", "out-expire", pool.name, eq_type, n,
                         leased)
            return
        # Wake: block a helper thread on the empty queue, then create
        # the task that must wake it.
        outcome: list[Any] = []

        def blocked_pop() -> None:
            try:
                outcome.append(("ok", self.store.pop_out(
                    eq_type, n, worker_pool=pool.name, now=now, lease=lease,
                    wait=_WAITER_WAIT,
                )))
            except BaseException as exc:
                outcome.append(("raised", exc))

        thread = threading.Thread(
            target=blocked_pop, name="conformance-waiter"
        )
        thread.start()
        time.sleep(_WAITER_SETTLE)
        payload = _bulk(f'{{"step": {self._step}, "waiter": true}}', self._step)
        got_ids = self.store.create_tasks(
            self.config.exp_id, eq_type, [payload],
            priority=[priority], time_created=now,
        )
        want_ids = self.model.create_tasks(eq_type, [payload], [priority])
        self._verify("waiter:create", list(got_ids), want_ids)
        thread.join(_WAITER_JOIN)
        if thread.is_alive():
            self._fail("waiter:pop_out", "blocked pop_out missed its wakeup")
        kind, value = outcome[0]
        if kind == "raised":
            self._fail("waiter:pop_out", f"blocked pop_out raised {value!r}")
        want = self.model.pop_out(
            eq_type, n, worker_pool=pool.name, now=now, lease=lease
        )
        self._verify(
            "waiter:pop_out", [list(p) for p in value],
            [list(p) for p in want],
        )
        pool.held.extend(tid for tid, _ in want)
        self._record("waiter", "out-wake", pool.name, eq_type, n, leased,
                     want_ids, [tid for tid, _ in want])

    def _waiter_in(self, rng: random.Random) -> None:
        model = self.model
        if model.in_queue:
            # Immediate: at least one watched result is already queued.
            known = sorted(model.tasks)
            ids = rng.sample(known, min(len(known), rng.randint(1, 8)))
            if not any(tid in model.in_queue for tid in ids):
                # Re-aim one probe slot at a queued result so the wait
                # cannot block the engine thread.
                ids[rng.randrange(len(ids))] = rng.choice(model.in_queue)
            limit = rng.choice([None, 1, 2, 4])
            got = self.store.pop_in_any(ids, limit=limit, wait=_WAITER_WAIT)
            want = model.pop_in_any(ids, limit=limit)
            self._verify(
                "waiter:pop_in", [list(p) for p in got],
                [list(p) for p in want],
            )
            self._record("waiter", "in-immediate", ids, limit,
                         [tid for tid, _ in want])
            return
        candidates = [
            (pool, tid)
            for pool in self.pools
            for tid in pool.held
            if model.tasks[tid].status != TaskStatus.COMPLETE
        ]
        if not candidates:
            # Nothing queued and nothing reportable: expiry shape.
            known = sorted(model.tasks)
            if not known:
                return
            ids = sorted(rng.sample(known, min(len(known), 3)))
            got = self.store.pop_in_any(ids, wait=_WAITER_EXPIRE)
            self._verify("waiter:pop_in", [list(p) for p in got], [])
            self._record("waiter", "in-expire", ids)
            return
        # Wake: block a helper thread watching one held task, then
        # report that task's result from the engine thread.
        pool, tid = candidates[rng.randrange(len(candidates))]
        pool.held.remove(tid)
        eq_type = model.tasks[tid].eq_task_type
        result = _bulk(
            f'{{"task": {tid}, "by": "{pool.name}", "waiter": true}}', tid
        )
        now = self.clock.now()
        outcome: list[Any] = []

        def blocked_collect() -> None:
            try:
                outcome.append(
                    ("ok", self.store.pop_in_any([tid], wait=_WAITER_WAIT))
                )
            except BaseException as exc:
                outcome.append(("raised", exc))

        thread = threading.Thread(
            target=blocked_collect, name="conformance-waiter"
        )
        thread.start()
        time.sleep(_WAITER_SETTLE)
        self.store.report_batch([(tid, eq_type, result)], now=now)
        report_outcome = model.report_one(tid, result)
        if report_outcome == "missing":
            self._fail("waiter:pop_in", f"model lost task {tid}")
        thread.join(_WAITER_JOIN)
        if thread.is_alive():
            self._fail(
                "waiter:pop_in", "blocked pop_in_any missed its wakeup"
            )
        kind, value = outcome[0]
        if kind == "raised":
            self._fail(
                "waiter:pop_in", f"blocked pop_in_any raised {value!r}"
            )
        want = model.pop_in_any([tid])
        self._verify(
            "waiter:pop_in", [list(p) for p in value],
            [list(p) for p in want],
        )
        self._record("waiter", "in-wake", pool.name, tid, report_outcome)

    def _op_cacher(self) -> None:
        """Result-cache ops interleaved with every task-state actor.

        Draws gets and puts over a key universe larger than the cache
        capacity, with a TTL mix spanning the clock jumps, so hits,
        misses, overwrites, TTL expiry, and LRU eviction all occur and
        are verified against the model — including
        ``cache_stats()`` verbatim, proving memoization is invisible to
        the exactly-once and priority invariants the other actors check.
        """
        rng = self.rng
        key = f"ck-{rng.randrange(self.config.cache_keys)}"
        now = self.clock.now()
        if rng.random() < 0.5:
            got = self.store.cache_get(key, now=now)
            want = self.model.cache_get(key, now=now)
            self._verify("cacher:get", got, want)
            self._record("cacher", "get", key,
                         "miss" if want is None else "hit")
        else:
            eq_type = rng.choice(self.config.work_types)
            result = _bulk(f'{{"cached": "{key}", "step": {self._step}}}', self._step)
            # None = immortal; short TTLs die on the next step's tick,
            # long ones only across a lease-sized clock jump.
            ttl = rng.choice(
                [None, 0.01, self.config.lease, 10 * self.config.lease]
            )
            self.store.cache_put(key, eq_type, result, now=now, ttl=ttl)
            self.model.cache_put(key, eq_type, result, now=now, ttl=ttl)
            self._record("cacher", "put", key,
                         "none" if ttl is None else ttl)
        self._verify("cacher:stats", self.store.cache_stats(),
                     self.model.cache_stats())

    def _op_jump(self) -> None:
        """Jump the clock far enough to expire un-renewed leases."""
        dt = self.config.lease * self.rng.uniform(1.0, 1.5)
        self.clock.advance(dt)
        self._record("jump", round(dt, 6))

    # -- driver ------------------------------------------------------------

    def run(self) -> list[list[Any]]:
        """Execute the schedule; returns the verified history.

        Raises :class:`ConformanceViolation` at the first divergence
        from the model (the history up to that point is preserved on
        ``self.history`` for diagnosis).  Ends with a full final-state
        audit so drift that never surfaced through a probed operation is
        still caught.
        """
        for step in range(self.config.steps):
            self._step = step
            # Strictly monotonic time: every step ticks a small amount,
            # so journal timestamps totally order within a run.
            self.clock.advance(self.rng.uniform(0.001, 0.05))
            op = self.rng.choices(self._ops, weights=self._weights, k=1)[0]
            getattr(self, f"_op_{op}")()  # every weight names an actor method
        self._step = self.config.steps
        self._final_audit()
        return self.history

    def _final_audit(self) -> None:
        """Compare the complete final state against the model."""
        now = self.clock.now()
        self._verify("final:stats", self.store.stats(now=now),
                     self.model.stats(now=now))
        ids = sorted(self.model.tasks)
        got_status = [
            [tid, int(status)] for tid, status in self.store.get_statuses(ids)
        ]
        want_status = [
            [tid, int(status)] for tid, status in self.model.get_statuses(ids)
        ]
        self._verify("final:statuses", got_status, want_status)
        got_prio = [list(p) for p in self.store.get_priorities(ids)]
        want_prio = [list(p) for p in self.model.get_priorities(ids)]
        self._verify("final:priorities", got_prio, want_prio)
        self._verify("final:cache", self.store.cache_stats(),
                     self.model.cache_stats())
        self._record("final", want_status, want_prio)
