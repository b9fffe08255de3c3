"""Blocking long-poll (``wait=``) semantics of the store.

The contract under test (see ``TaskStore.pop_out``/``pop_in_any``):
a wait over satisfiable state returns immediately; a wait over empty
state blocks until the one write it watches lands, the deadline passes,
or ``wake_waiters``/``close`` interrupts it.  Wait deadlines are real
wall-clock time — these tests measure elapsed ``time.monotonic`` and
use generous bounds so they stay robust under CI load.
"""

from __future__ import annotations

import inspect
import threading
import time

import pytest

from repro.db import SqliteTaskStore

# Every test here asserts wall-clock bounds; on a badly loaded machine
# they can exceed even generous ceilings, so the whole module carries
# the ``timing`` marker (deselect with ``-m 'not timing'``).
pytestmark = pytest.mark.timing

#: A wait long enough that only an event-driven wake can explain an
#: early return, short enough that a missed wakeup fails fast.
WAIT = 5.0
#: Generous ceiling for "returned instantly / on the wake" under load.
PROMPT = 3.0
#: Deadline for the "must NOT wake" shapes: long enough that the lower
#: bound below has margin over scheduler jitter in both directions.
NO_WAKE_WAIT = 0.5
#: Minimum elapsed proving a no-wake wait really ran its deadline out.
NO_WAKE_FLOOR = 0.4
#: How long a helper thread may take to start waiting under load.
PARK_DEADLINE = 10.0


def _claim(store, eq_type=0, n=1, wait=None):
    return store.pop_out(eq_type, n, worker_pool="w", now=1.0, wait=wait)


def _until_waiting(store):
    """Return once a long-poll waits on ``store``'s wait registry.

    The registry counts a wait once its first claim found nothing, in
    the same hold of the store lock, so a write after this returns is
    one the wait must see (as the service tests poll ``service.waiters``).
    """
    deadline = time.monotonic() + PARK_DEADLINE
    while store.waits.waiters < 1:
        assert time.monotonic() < deadline, "the call never waited"
        time.sleep(0.001)


class _BlockedCall:
    """Run one store call in a helper thread; join and return result."""

    def __init__(self, fn):
        self.outcome = []
        self.thread = threading.Thread(
            target=lambda: self.outcome.append(self._guard(fn))
        )
        self.started = time.monotonic()
        self.thread.start()

    @staticmethod
    def _guard(fn):
        try:
            return ("ok", fn())
        except BaseException as exc:  # re-raised on the test thread
            return ("raised", exc)

    def join(self, timeout=WAIT + PROMPT):
        self.thread.join(timeout)
        assert not self.thread.is_alive(), "blocked call never returned"
        self.elapsed = time.monotonic() - self.started
        kind, value = self.outcome[0]
        if kind == "raised":
            raise value
        return value


class TestPopOutWait:
    def test_returns_immediately_when_work_is_queued(self, store):
        [tid] = store.create_tasks("e", 0, ["p"], time_created=0.0)
        t0 = time.monotonic()
        assert _claim(store, wait=WAIT) == [(tid, "p")]
        assert time.monotonic() - t0 < PROMPT

    def test_zero_wait_is_nonblocking(self, store):
        t0 = time.monotonic()
        assert _claim(store, wait=0) == []
        assert time.monotonic() - t0 < PROMPT

    def test_empty_queue_expires_after_the_deadline(self, store):
        t0 = time.monotonic()
        assert _claim(store, wait=0.05) == []
        elapsed = time.monotonic() - t0
        assert 0.04 <= elapsed < PROMPT

    def test_wakes_on_create(self, store):
        blocked = _BlockedCall(lambda: _claim(store, wait=WAIT))
        _until_waiting(store)
        [tid] = store.create_tasks("e", 0, ["p"], time_created=0.0)
        assert blocked.join() == [(tid, "p")]
        assert blocked.elapsed < PROMPT

    def test_wakes_on_requeue_expired(self, store):
        [tid] = store.create_tasks("e", 0, ["p"], time_created=0.0)
        assert store.pop_out(0, 1, worker_pool="dead", now=1.0, lease=2.0)
        blocked = _BlockedCall(lambda: _claim(store, wait=WAIT))
        _until_waiting(store)
        assert store.requeue_expired(now=10.0) == [tid]
        assert blocked.join() == [(tid, "p")]
        assert blocked.elapsed < PROMPT

    @pytest.mark.parametrize("woken_by", ["create", "requeue_expired"])
    def test_woken_pop_is_stamped_no_earlier_than_its_wake(self, store, woken_by):
        # The poll began at now=1.0; the write that woke it happened at
        # t=10.0.  The claim (time_start, lease, journal) must not
        # predate that write, or the lease would be short by the wait.
        if woken_by == "requeue_expired":
            [tid] = store.create_tasks("e", 0, ["p"], time_created=0.0)
            assert store.pop_out(0, 1, worker_pool="dead", now=0.5, lease=2.0)
        blocked = _BlockedCall(lambda: store.pop_out(
            0, 1, worker_pool="w", now=1.0, lease=3.0, wait=WAIT
        ))
        _until_waiting(store)
        if woken_by == "create":
            [tid] = store.create_tasks("e", 0, ["p"], time_created=10.0)
        else:
            assert store.requeue_expired(now=10.0) == [tid]
        assert blocked.join() == [(tid, "p")]
        row = store.get_task(tid)
        assert (row.time_start, row.lease_expiry) == (10.0, 13.0)
        # A pop that did not wait keeps the caller's stamp.
        [other] = store.create_tasks("e", 0, ["q"], time_created=20.0)
        assert store.pop_out(0, 1, worker_pool="w", now=15.0, wait=WAIT)
        assert store.get_task(other).time_start == 15.0

    def test_does_not_wake_for_another_work_type(self, store):
        blocked = _BlockedCall(
            lambda: _claim(store, eq_type=0, wait=NO_WAKE_WAIT)
        )
        _until_waiting(store)
        store.create_tasks("e", 1, ["other"], time_created=0.0)
        assert blocked.join() == []
        # The type-1 create must not have ended the type-0 wait early.
        assert blocked.elapsed >= NO_WAKE_FLOOR

    def test_wake_waiters_interrupts_with_empty(self, store):
        blocked = _BlockedCall(lambda: _claim(store, wait=WAIT))
        _until_waiting(store)
        store.wake_waiters()
        assert blocked.join() == []
        assert blocked.elapsed < PROMPT

    def test_close_interrupts_with_error(self, store):
        blocked = _BlockedCall(lambda: _claim(store, wait=WAIT))
        _until_waiting(store)
        store.close()
        with pytest.raises(RuntimeError):
            blocked.join()
        assert blocked.elapsed < PROMPT


class TestPopInAnyWait:
    @pytest.fixture
    def running(self, store):
        [tid] = store.create_tasks("e", 0, ["p"], time_created=0.0)
        assert _claim(store)
        return store, tid

    def test_returns_immediately_when_result_is_in(self, running):
        store, tid = running
        store.report_batch([(tid, 0, "r")], now=2.0)
        t0 = time.monotonic()
        assert store.pop_in_any([tid], wait=WAIT) == [(tid, "r")]
        assert time.monotonic() - t0 < PROMPT

    def test_empty_expires_after_the_deadline(self, running):
        store, tid = running
        t0 = time.monotonic()
        assert store.pop_in_any([tid], wait=0.05) == []
        assert 0.04 <= time.monotonic() - t0 < PROMPT

    def test_wakes_on_report(self, running):
        store, tid = running
        blocked = _BlockedCall(lambda: store.pop_in_any([tid], wait=WAIT))
        _until_waiting(store)
        store.report_batch([(tid, 0, "r")], now=2.0)
        assert blocked.join() == [(tid, "r")]
        assert blocked.elapsed < PROMPT

    def test_wakes_on_report_batch(self, running):
        store, tid = running
        blocked = _BlockedCall(lambda: store.pop_in_any([tid], wait=WAIT))
        _until_waiting(store)
        store.report_batch([(tid, 0, "r")], now=2.0)
        assert blocked.join() == [(tid, "r")]
        assert blocked.elapsed < PROMPT

    def test_does_not_wake_for_unwatched_task(self, store):
        ids = store.create_tasks("e", 0, ["a", "b"], time_created=0.0)
        store.pop_out(0, 2, worker_pool="w", now=1.0)
        blocked = _BlockedCall(
            lambda: store.pop_in_any([ids[0]], wait=NO_WAKE_WAIT)
        )
        _until_waiting(store)
        store.report_batch([(ids[1], 0, "other")], now=2.0)
        assert blocked.join() == []
        assert blocked.elapsed >= NO_WAKE_FLOOR

    def test_wake_waiters_interrupts_with_empty(self, running):
        store, tid = running
        blocked = _BlockedCall(lambda: store.pop_in_any([tid], wait=WAIT))
        _until_waiting(store)
        store.wake_waiters()
        assert blocked.join() == []
        assert blocked.elapsed < PROMPT


class TestCrossProcessDegradedMode:
    """Two sqlite handles on one file share no condvars: the waiter's
    internal re-poll (every ``WAIT_POLL`` seconds) must find foreign
    writes."""

    def test_waiter_discovers_foreign_create(self, tmp_path):
        path = str(tmp_path / "shared.db")
        reader = SqliteTaskStore(path)
        writer = SqliteTaskStore(path)
        try:
            blocked = _BlockedCall(lambda: _claim(reader, wait=WAIT))
            _until_waiting(reader)
            [tid] = writer.create_tasks("e", 0, ["p"], time_created=0.0)
            assert blocked.join() == [(tid, "p")]
            assert blocked.elapsed < PROMPT
        finally:
            reader.close()
            writer.close()

    def test_waiter_discovers_foreign_report(self, tmp_path):
        path = str(tmp_path / "shared.db")
        reader = SqliteTaskStore(path)
        writer = SqliteTaskStore(path)
        try:
            [tid] = writer.create_tasks("e", 0, ["p"], time_created=0.0)
            assert _claim(writer)
            blocked = _BlockedCall(
                lambda: reader.pop_in_any([tid], wait=WAIT)
            )
            _until_waiting(reader)
            writer.report_batch([(tid, 0, "r")], now=2.0)
            assert blocked.join() == [(tid, "r")]
            assert blocked.elapsed < PROMPT
        finally:
            reader.close()
            writer.close()


def _wait_default(op):
    return inspect.signature(op).parameters["wait"].default


class TestCapabilityFlag:
    """There is no capability flag any more.  Every store honours
    ``wait`` (the classes above) and may return early and empty, so
    callers have nothing to consult: ``wait`` in the signature of both
    pops is the whole advertisement."""

    def test_real_backends_advertise_wait(self, store):
        assert not hasattr(store, "supports_wait")
        assert _wait_default(store.pop_out) is None
        assert _wait_default(store.pop_in_any) is None

    def test_base_contract_defaults_to_no_wait(self):
        from repro.core.service_client import RemoteTaskStore
        from repro.db.backend import TaskStore
        from repro.testing.chaos import FlakyTaskStore

        # A pop without ``wait`` never blocks, in the contract and over
        # the wire.  FlakyTaskStore forwards its arguments untouched.
        for cls in (TaskStore, RemoteTaskStore):
            assert _wait_default(cls.pop_out) is None, cls.__name__
            assert _wait_default(cls.pop_in_any) is None, cls.__name__
        for cls in (TaskStore, RemoteTaskStore, FlakyTaskStore):
            assert not hasattr(cls, "supports_wait"), cls.__name__

    def test_memory_store_flag(self):
        s = SqliteTaskStore(":memory:")
        try:
            assert not hasattr(s, "supports_wait")
            # Without ``wait`` an empty pop returns at once.
            t0 = time.monotonic()
            assert _claim(s) == []
            assert s.pop_in_any([1], limit=1) == []
            assert time.monotonic() - t0 < PROMPT
        finally:
            s.close()
