"""Futures and asynchronous collection operations (paper §V-B).

A :class:`Future` encapsulates the asynchronous execution of a task:
it is created by ``EQSQL.submit_task`` and offers status queries,
non-blocking result checks, cancellation, and reprioritization.

The module-level functions operate on *collections* of futures —
``as_completed`` yields futures as their results land, ``pop_completed``
removes and returns the first completed future, ``update_priority``
re-prioritizes a batch — and, as the paper emphasizes, perform **batch**
operations on the EMEWS DB rather than iterating per-future.  Together
they are the substrate for asynchronous ME algorithms (Fig 2).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING

from repro.core.constants import ResultStatus, TaskStatus
from repro.util.backoff import DecorrelatedJitter
from repro.util.errors import TimeoutError_

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.eqsql import EQSQL


class Future:
    """Handle to one submitted task.

    The result payload is cached on first retrieval — whether via
    :meth:`result` or a batch pop through :func:`as_completed` — because
    popping the input queue consumes the DB row.
    """

    def __init__(
        self,
        eqsql: "EQSQL",
        eq_task_id: int,
        eq_type: int,
        exp_id: str | None = None,
        tag: str | None = None,
    ) -> None:
        self.eqsql = eqsql
        self.eq_task_id = eq_task_id
        self.eq_type = eq_type
        self.exp_id = exp_id
        self.tag = tag
        self._result: str | None = None
        self._cancelled = False

    def __repr__(self) -> str:
        return (
            f"Future(eq_task_id={self.eq_task_id}, eq_type={self.eq_type}, "
            f"status={self.status.label()})"
        )

    # -- result ---------------------------------------------------------------

    def _set_result(self, result: str) -> None:
        """Cache a result delivered by a batch pop."""
        self._result = result

    def result(
        self, delay: float = 0.5, timeout: float = 2.0
    ) -> tuple[ResultStatus, str]:
        """The task's result, polling up to ``timeout`` seconds.

        Returns ``(SUCCESS, payload)`` once available (cached
        thereafter), ``(FAILURE, 'TIMEOUT')`` if polling expires.
        """
        if self._result is not None:
            return (ResultStatus.SUCCESS, self._result)
        status, payload = self.eqsql.query_result(
            self.eq_task_id, delay=delay, timeout=timeout
        )
        if status == ResultStatus.SUCCESS:
            self._result = payload
        return (status, payload)

    # -- status ------------------------------------------------------------------

    @property
    def status(self) -> TaskStatus:
        """The task's current database status."""
        if self._cancelled:
            return TaskStatus.CANCELED
        if self._result is not None:
            # A cached result is definitive — and cache-hit futures hold
            # a synthetic id with no database row to consult.
            return TaskStatus.COMPLETE
        statuses = self.eqsql.query_status([self.eq_task_id])
        if not statuses:
            raise ValueError(f"task {self.eq_task_id} not found")
        status = statuses[0][1]
        if status == TaskStatus.CANCELED:
            self._cancelled = True
        return status

    def done(self) -> bool:
        """True when the task is complete or canceled."""
        if self._result is not None or self._cancelled:
            return True
        return self.status in (TaskStatus.COMPLETE, TaskStatus.CANCELED)

    @property
    def cancelled(self) -> bool:
        """True when the task was canceled before running."""
        return self._cancelled or self.status == TaskStatus.CANCELED

    def cancel(self) -> bool:
        """Cancel the task if it is still queued; returns success.

        The cached cancelled flag reflects *store truth*: it is set only
        when the store actually cancelled the id (or independently
        reports it CANCELED), never merely because cancellation was
        attempted.  Cancelling an already-RUNNING task therefore returns
        False and the future keeps tracking the live status — the pool
        may still report a result.
        """
        if self._cancelled:
            return True
        if self.eqsql.cancel_tasks([self.eq_task_id]) == 1:
            self._cancelled = True
            return True
        # count == 0 is ambiguous: the task may be RUNNING/COMPLETE (not
        # cancellable) — or already CANCELED, by another actor or by a
        # first attempt whose response was lost and retried.  Consult
        # the store rather than guessing either way.
        statuses = self.eqsql.query_status([self.eq_task_id])
        if statuses and statuses[0][1] == TaskStatus.CANCELED:
            self._cancelled = True
            return True
        return False

    # -- priority -----------------------------------------------------------------

    @property
    def priority(self) -> int | None:
        """The task's output-queue priority; None once popped."""
        priorities = self.eqsql.query_priorities([self.eq_task_id])
        return priorities[0][1] if priorities else None

    @priority.setter
    def priority(self, value: int) -> None:
        self.eqsql.update_priorities([self.eq_task_id], value)


# -- collection operations ----------------------------------------------------------


def _drain_completed(
    futures: Sequence[Future],
    limit: int | None = None,
    wait: float | None = None,
) -> list[Future]:
    """One batch DB pop: collect futures whose results just landed.

    ``limit`` bounds consumption: popping a result removes it from the
    input queue, so a caller that will only yield k more futures must
    not strip results it would merely cache — a crash would lose them,
    defeating checkpoint/resume.  ``wait`` long-polls a wait-capable
    store: the pop blocks server-side up to that many seconds and
    returns the instant any watched result lands.
    """
    pending = [f for f in futures if f._result is None and not f._cancelled]
    if not pending:
        return []
    eqsql = pending[0].eqsql
    by_id = {f.eq_task_id: f for f in pending}
    tracer = eqsql.tracer
    t0 = eqsql.clock.now() if tracer.enabled else 0.0
    popped = eqsql.pop_completed_ids(list(by_id), limit=limit, wait=wait)
    if popped:
        # Only drains that actually landed results are interesting;
        # empty polls would swamp the trace at one span per delay tick.
        tracer.add_span(
            "futures.drain",
            "eqsql",
            t0,
            eqsql.clock.now(),
            parent=tracer.current_context(),
            attrs={"watched": len(pending), "landed": len(popped)},
        )
    landed: list[Future] = []
    for eq_task_id, result in popped:
        future = by_id[eq_task_id]
        future._set_result(result)
        landed.append(future)
    return landed


def as_completed(
    futures: list[Future],
    pop: bool = False,
    n: int | None = None,
    delay: float = 0.5,
    timeout: float | None = None,
) -> Iterator[Future]:
    """Yield futures as they complete (paper §V-B).

    Creates a generator that yields up to ``n`` futures (all of them when
    ``n`` is None) in completion order, polling the EMEWS DB in *batch*
    — one query covers every watched future.  With ``pop=True`` each
    yielded future is removed from the input list, supporting the
    pop-as-you-go pattern of Listing 2.

    Each batch query long-polls server-side, so results are yielded at
    RPC latency; ``delay`` only paces the decorrelated-jittered retry
    after a query returns early and empty.  ``timeout=0`` remains
    strictly non-blocking: one query, without ``wait``.

    Raises :class:`repro.util.errors.TimeoutError_` when ``timeout``
    expires before the requested number of futures completes.  Futures
    canceled along the way are skipped (they will never complete).
    """
    if not futures:
        return
    from repro.core.eqsql import WAIT_RPC_CAP

    eqsql = futures[0].eqsql
    clock = eqsql.clock
    deadline = clock.deadline(timeout)
    backoff: DecorrelatedJitter | None = None
    yielded = 0
    target = len(futures) if n is None else min(n, len(futures))
    # Keyed by object identity, not eq_task_id: coalesced duplicates
    # (single-flight cache submissions) share one task id but are
    # distinct futures, and each must be yielded once.
    seen: set[int] = set()
    while True:
        # Results cached before this iteration (by a prior drain or an
        # out-of-band .result() call) count as completed immediately.
        ready = [
            f
            for f in list(futures)
            if id(f) not in seen and f._result is not None
        ]
        for future in ready:
            seen.add(id(future))
            if pop:
                futures.remove(future)
            yielded += 1
            yield future
            if yielded >= target:
                return
        remaining = [
            f
            for f in futures
            if id(f) not in seen and f._result is None and not f._cancelled
        ]
        if not remaining:
            return  # everything else was canceled or already yielded
        wait: float | None = WAIT_RPC_CAP
        if deadline is not None:
            left = deadline - clock.now()
            wait = min(left, WAIT_RPC_CAP) if left > 0 else None
        if not _drain_completed(remaining, limit=target - yielded, wait=wait):
            if clock.expired(deadline):
                raise TimeoutError_(
                    f"as_completed: {yielded}/{target} futures after timeout"
                )
            if backoff is None:
                # Long-polls do the real waiting; this sleep only paces
                # retries after an early-empty wait (server cap, shutdown
                # wake) so it starts much shorter than ``delay``.
                backoff = DecorrelatedJitter(min(delay, 0.05))
            clock.sleep(backoff.next())


def pop_completed(
    futures: list[Future], delay: float = 0.5, timeout: float | None = None
) -> Future:
    """Remove and return the first completed future from ``futures``.

    Polls until one completes; raises TimeoutError_ on expiry.
    """
    for future in as_completed(
        futures, pop=True, n=1, delay=delay, timeout=timeout
    ):
        return future
    raise TimeoutError_("pop_completed: no completable futures")


def update_priority(
    futures: Sequence[Future], new_priority: int | Sequence[int]
) -> int:
    """Batch-update the priorities of queued futures.

    ``new_priority`` is a single value for all futures or a sequence
    aligned with them.  Returns how many tasks were actually updated
    (futures already popped by a pool are skipped, per §IV-D).
    """
    if not futures:
        return 0
    eqsql = futures[0].eqsql
    ids = [f.eq_task_id for f in futures]
    return eqsql.update_priorities(ids, new_priority)


def cancel_futures(futures: Sequence[Future]) -> int:
    """Batch-cancel queued futures; returns the number canceled."""
    if not futures:
        return 0
    eqsql = futures[0].eqsql
    ids = [f.eq_task_id for f in futures]
    canceled = eqsql.cancel_tasks(ids)
    if canceled:
        canceled_ids = {
            tid
            for tid, status in eqsql.query_status(ids)
            if status == TaskStatus.CANCELED
        }
        for future in futures:
            if future.eq_task_id in canceled_ids:
                future._cancelled = True
    return canceled
