"""Who waits for which write: a store's one long-poll mechanism.

A :class:`WaitRegistry` belongs to one store and shares its lock.  The
store's write sites name what each write made claimable (a work type
queued, or ids reported), and each waiter the write can satisfy turns
*due*.  A blocking in-process ``pop_out``/``pop_in_any(wait=)`` sleeps
in :meth:`WaitRegistry.wait`; the :class:`~repro.core.service.TaskService`
registers each parked remote long-poll with a callback that queues its
re-try.  A write through another connection to the database file passes
no write site: a waiting consumer calls :meth:`WaitRegistry.poll`, one
``PRAGMA data_version`` read per :data:`WAIT_POLL`, and every waiter is
due only if it moved.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Iterable
from typing import Any

#: Seconds between ``data_version`` reads while anyone waits.
WAIT_POLL = 0.05


class Waiter:
    """A fetch of ``eq_type`` (``ids`` None) or a collect of ``ids``.

    ``on_due(waiter)`` runs on the writing thread, under the store lock,
    when ``due`` turns true; the consumer clears it before its re-try.
    ``mark`` is the latest enqueue time of the writes that woke a fetch:
    its claim is stamped no earlier.
    """

    __slots__ = ("on_due", "eq_type", "ids", "due", "mark")

    def __init__(
        self,
        on_due: Callable[[Waiter], None],
        eq_type: int | None = None,
        ids: Iterable[int] | None = None,
    ) -> None:
        self.on_due = on_due
        self.eq_type = eq_type
        self.ids = None if ids is None else frozenset(ids)
        self.due = False
        self.mark: float | None = None


class WaitRegistry:
    """The waiters of one store.  ``data_version`` reads the pragma on
    the store's connection (None: nothing else writes the store)."""

    def __init__(
        self, lock: Any = None, data_version: Callable[[], int] | None = None
    ) -> None:
        self.lock = lock if lock is not None else threading.RLock()
        self._cond = threading.Condition(self.lock)
        self._data_version = data_version
        self._version = data_version() if data_version is not None else 0
        self._poll_at = 0.0
        self._waiters: dict[Waiter, None] = {}  # registration order
        self._epoch = 0
        self._closed = False

    @property
    def waiters(self) -> int:
        return len(self._waiters)

    def add(self, waiter: Waiter) -> None:
        with self.lock:
            self._waiters[waiter] = None

    def discard(self, waiter: Waiter) -> None:
        with self.lock:
            self._waiters.pop(waiter, None)

    # The write sites call these in the writing transaction: a woken
    # claim needs the lock, so it sees the commit.

    def queued(self, eq_type: int, at: float | None = None) -> None:
        for waiter in self._waiters:
            if waiter.ids is None and waiter.eq_type == eq_type:
                if at is not None and (waiter.mark is None or at > waiter.mark):
                    waiter.mark = at
                self._set_due(waiter)

    def reported(self, ids: Iterable[int]) -> None:
        if self._waiters:
            delivered = set(ids)
            for waiter in self._waiters:
                if waiter.ids is not None and not waiter.ids.isdisjoint(delivered):
                    self._set_due(waiter)

    @staticmethod
    def _set_due(waiter: Waiter) -> None:
        if not waiter.due:
            waiter.due = True
            waiter.on_due(waiter)

    def poll(self) -> None:
        """Every waiter is due if another connection committed since the
        last ``data_version`` read (at most one per :data:`WAIT_POLL`)."""
        now = time.monotonic()
        if now < self._poll_at:
            return
        with self.lock:
            self._poll_at = now + WAIT_POLL
            if self._data_version is not None and not self._closed:
                version = self._data_version()
                if version != self._version:
                    self._version = version
                    for waiter in self._waiters:
                        self._set_due(waiter)

    def wait(
        self,
        claim: Callable[[float | None], list[Any]],
        timeout: float,
        *,
        eq_type: int | None = None,
        ids: Iterable[int] | None = None,
    ) -> list[Any]:
        """``claim(mark)`` now, then after each write that can satisfy
        the wait, until it returns something; ``[]`` after ``timeout``
        seconds or a :meth:`wake_all`, ``RuntimeError`` on close."""
        deadline = time.monotonic() + timeout
        with self.lock:
            result = claim(None)
            if result:
                return result
            waiter = Waiter(lambda _: self._cond.notify_all(), eq_type, ids)
            self._waiters[waiter] = None
            epoch = self._epoch
            try:
                while True:
                    if waiter.due:
                        waiter.due = False
                        result = claim(waiter.mark)
                        if result:
                            return result
                    left = deadline - time.monotonic()
                    if left <= 0 or self._epoch != epoch:
                        return []
                    if not self._cond.wait(min(left, WAIT_POLL)):
                        self.poll()
                    if self._closed:
                        raise RuntimeError("store is closed")
            finally:
                del self._waiters[waiter]

    def wake_all(self) -> None:
        """End every blocking :meth:`wait` now, empty; parked service
        requests (other clients' long-polls) stay."""
        with self.lock:
            self._epoch += 1
            self._cond.notify_all()

    def close(self) -> None:
        """Blocking waits raise ``RuntimeError``; polls stop."""
        with self.lock:
            self._closed = True
            self.wake_all()
