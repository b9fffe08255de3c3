"""The :class:`TaskStore` contract that every EMEWS DB backend implements.

The store exposes the row-level operations the EQSQL task API (paper §V)
is built from.  All mutating operations are atomic with respect to one
another; the queue-pop operation in particular combines
select-highest-priority, delete-from-queue, and mark-running into one
critical section, which is what makes multiple concurrently polling
worker pools safe (paper §IV-D: pools equitably share one output queue).

Timestamps are passed *in* by the caller (ultimately from a
:class:`repro.util.clock.Clock`) rather than read from the engine, so
identical logic runs under wall-clock and virtual time.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable, Mapping, Sequence

from repro.db.schema import TaskRow, TaskStatus
from repro.db.waits import WaitRegistry


def normalize_profiles(
    profiles: Mapping[int, dict] | Mapping[str, dict] | None,
) -> dict[int, dict]:
    """Int-key the batch profile map.

    JSON object keys are strings, so a ``profiles`` mapping that
    crossed the wire arrives keyed by ``"17"`` rather than ``17``;
    entries whose keys cannot be int-coerced are dropped (telemetry is
    best-effort, never a reason to fail a report).
    """
    if not profiles:
        return {}
    out: dict[int, dict] = {}
    for key, value in profiles.items():
        try:
            out[int(key)] = value
        except (TypeError, ValueError):
            continue
    return out


class TaskStore(ABC):
    """Abstract EMEWS DB backend.

    Implementations must be safe for use from multiple threads.

    Every store honours ``wait`` on :meth:`pop_out` / :meth:`pop_in_any`,
    and may always return early and empty; callers retry until their own
    deadline.
    """

    #: Who waits for which write (:mod:`repro.db.waits`), for a store
    #: whose writes land here; a :class:`~repro.core.service.TaskService`
    #: parks its long-polls on it.  ``None`` for a store that forwards
    #: its calls elsewhere (:class:`~repro.core.RemoteTaskStore`).
    waits: WaitRegistry | None = None

    # -- task creation ---------------------------------------------------

    @abstractmethod
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
        """Insert tasks and enqueue them on the output queue, in one
        transaction; returns the newly allocated integer task ids in
        ``payloads`` order.

        Each row is created with status QUEUED; its (id, type, priority)
        triple goes into ``emews_queue_out``; the experiment link and
        optional tag rows are written in the same transaction.
        ``priority`` (one value for all, or one per payload) is also
        recorded on the task row itself (``TaskRow.eq_priority``) so it
        survives the pop that deletes the queue row — fault-recovery
        requeues restore it by default.
        """

    # -- output queue (ME -> worker pools) --------------------------------

    @abstractmethod
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
        """Atomically pop up to ``n`` tasks of ``eq_type`` for execution.

        Pops in (priority DESC, task id ASC) order; each popped task is
        deleted from the output queue, marked RUNNING, stamped with
        ``now`` as its start time, and assigned to ``worker_pool``.
        Returns ``(eq_task_id, json_out)`` pairs; an empty list when no
        matching tasks are queued (callers poll).

        ``lease`` (seconds) stamps ``lease_expiry = now + lease`` on each
        popped row; the pool must renew via :meth:`renew_leases` before
        expiry or a lease reaper may requeue the task.  ``None`` pops
        the task unleased (never reaped), the pre-lease behavior.

        ``wait`` (real seconds) is the long-poll bound: when no matching
        task is queued, the store blocks up to ``wait`` and returns the
        moment work arrives (create or requeue), rather than an immediate
        empty list.  ``None``/``<= 0`` preserves the non-blocking behavior
        exactly.  The wait is measured on the wall clock regardless of
        any injected virtual clock, and popped rows are stamped with the
        caller-provided ``now`` captured before the wait — raised, for a
        pop that had to wait, to the latest enqueue time (a create's
        ``time_created`` or a :meth:`requeue_expired` ``now``) among the
        writes that woke it, so a claim never predates the write that
        woke it and its lease is not shortened by the wait.  The
        store may return early and empty (a server cap, a
        :meth:`wake_waiters` wake-up, a wrapper that drops ``wait``);
        callers treat an empty list as "try again or give up".
        """

    @abstractmethod
    def queue_out_length(self, eq_type: int | None = None) -> int:
        """Number of queued tasks (optionally restricted to one type)."""

    # -- input queue (worker pools -> ME) ---------------------------------

    @abstractmethod
    def report_batch(
        self,
        reports: Sequence[tuple[int, int, str]],
        *,
        now: float = 0.0,
        profiles: Mapping[int, dict] | None = None,
    ) -> None:
        """Record results: for each ``(eq_task_id, eq_type, result)``
        triple in ``reports``, set ``json_in``, mark COMPLETE, stamp the
        stop time ``now``, clear any lease, and push (id, type) onto
        ``emews_queue_in`` — in one critical section / transaction (one
        RPC and one commit per batch, not per task).

        First write wins: reporting an already-COMPLETE task — or an id
        a second time within the batch — is a no-op (no overwrite, no
        duplicate input-queue row).  If the task was requeued (a lease
        expiry racing a slow pool), the queued copy is withdrawn: the
        result is in, so re-execution would only waste a worker.  This
        makes a report safe to retry over a lossy connection and
        absorbs the duplicate execution that follows a lease-expiry
        requeue of a task whose original pool was slow rather than dead.

        The batch is a *performance* primitive, not an atomicity one:
        items are individually idempotent, so a retried batch — or a
        batch replayed after a partial failure — converges to the same
        state.  Unknown ids raise :class:`repro.util.errors.NotFoundError`
        naming them; known ids in the same batch may or may not have
        been applied when it raises (retrying the whole batch is safe).

        ``profiles`` optionally maps task id to the executing pool's
        :class:`repro.telemetry.profiling.TaskProfile` dict (ids may
        arrive as strings after a JSON round-trip; backends normalize);
        backends attach it to the journal's report event and otherwise
        ignore it.
        """

    def report_pop(
        self,
        reports: Sequence[tuple[int, int, str]],
        eq_type: int,
        n: int,
        *,
        worker_pool: str = "default",
        now: float = 0.0,
        lease: float | None = None,
        profiles: Mapping[int, dict] | None = None,
    ) -> list[tuple[int, str]]:
        """Record results, then claim up to ``n`` tasks: one store
        operation for a busy pool's flush and the refill it frees.

        Exactly :meth:`report_batch` (``reports``, ``now``,
        ``profiles``) followed by a non-blocking :meth:`pop_out`
        (``eq_type``, ``n``, ``worker_pool``, ``now``, ``lease``);
        returns the pop's ``(eq_task_id, json_out)`` pairs, ``[]`` when
        ``n < 1``.  If the report raises, nothing is claimed.

        Not idempotent as a whole — a re-sent call reports harmlessly
        but claims again — so a caller that loses the answer must treat
        the claim as lost (a leased claim is reaped; an unleased one
        waits for ``recover_pool``, as after any lost ``pop_out``).
        """
        self.report_batch(reports, now=now, profiles=profiles)
        if n < 1:
            return []
        return self.pop_out(
            eq_type, n, worker_pool=worker_pool, now=now, lease=lease
        )

    @abstractmethod
    def pop_in_any(
        self,
        eq_task_ids: Iterable[int],
        limit: int | None = None,
        *,
        wait: float | None = None,
    ) -> list[tuple[int, str]]:
        """Pop listed tasks currently on the input queue (up to ``limit``).

        Batch primitive behind ``as_completed`` / ``pop_completed``
        (paper §V-B: "these functions typically perform batch operations
        on the EMEWS DB").  Returns ``(eq_task_id, json_in)`` pairs;
        results beyond ``limit`` stay queued for a later pop.

        ``wait`` long-polls as in :meth:`pop_out`: when none of the
        listed tasks are on the input queue, the store blocks up to
        ``wait`` real seconds and wakes the instant a report lands, or
        returns early and empty.  ``None``/``<= 0`` is the immediate
        non-blocking form.
        """

    @abstractmethod
    def queue_in_length(self) -> int:
        """Number of results waiting on the input queue."""

    # -- status / priority / cancellation ---------------------------------

    @abstractmethod
    def get_task(self, eq_task_id: int) -> TaskRow:
        """Fetch the full task row; raises NotFoundError if absent."""

    @abstractmethod
    def get_statuses(self, eq_task_ids: Sequence[int]) -> list[tuple[int, TaskStatus]]:
        """Statuses for a batch of ids (unknown ids are omitted)."""

    @abstractmethod
    def get_priorities(self, eq_task_ids: Sequence[int]) -> list[tuple[int, int]]:
        """Current output-queue priorities; ids not queued are omitted."""

    @abstractmethod
    def update_priorities(
        self, eq_task_ids: Sequence[int], priorities: int | Sequence[int]
    ) -> int:
        """Re-prioritize queued tasks; returns how many rows changed.

        Tasks that have already been popped (running/complete) are
        silently skipped — exactly the paper's semantics, where
        oversubscribed pools make popped tasks "ineligible for
        reprioritization or cancellation".  Updated rows also refresh
        the sticky ``TaskRow.eq_priority`` so a later fault-recovery
        requeue restores the *updated* priority, not the submit one.
        """

    @abstractmethod
    def cancel_tasks(self, eq_task_ids: Sequence[int]) -> int:
        """Cancel tasks still on the output queue; returns count canceled.

        Canceled tasks are removed from the output queue and marked
        CANCELED.  Running or complete tasks are not affected.
        """

    @abstractmethod
    def requeue(self, eq_task_id: int, *, priority: int | None = None) -> bool:
        """Return a RUNNING task to the output queue (fault recovery).

        Resets the row to QUEUED, clears its worker pool, start time and
        lease, and re-inserts it into ``emews_queue_out``.  ``priority``
        defaults to ``None`` — *restore the task's current sticky
        priority* (``TaskRow.eq_priority``: the submit priority as last
        adjusted by ``update_priorities``), so fault recovery does not
        demote tasks the ME promoted.  An explicit integer overrides the
        sticky value and becomes the task's new current priority.
        Returns False (and changes nothing) unless the task is RUNNING.
        The check-and-requeue is one atomic operation, so a racing
        report can never be overwritten: whichever lands first wins
        and the loser is a no-op.
        """

    # -- leases (fault recovery) -------------------------------------------

    @abstractmethod
    def renew_leases(
        self, eq_task_ids: Sequence[int], *, now: float, lease: float
    ) -> int:
        """Extend the leases of RUNNING tasks to ``now + lease``.

        The worker-pool heartbeat: ids that are no longer RUNNING (they
        completed, were canceled, or were already reaped and requeued)
        are skipped.  Returns how many leases were renewed; duplicate
        ids renew (and count) once — one lease per task.  Idempotent —
        safe to retry over a lossy connection.
        """

    @abstractmethod
    def requeue_expired(
        self, *, now: float, priority: int | None = None
    ) -> list[int]:
        """Requeue every RUNNING task whose lease expired before ``now``.

        The lease-reaper primitive: atomically moves each expired task
        back to QUEUED (clearing pool, start time, and lease) and
        re-inserts it into the output queue.  ``priority=None`` (the
        default) restores each task's own sticky priority — see
        :meth:`requeue`; an explicit integer pins every requeued task to
        that priority.  Unleased RUNNING tasks are never touched.
        Returns the requeued ids in ascending id order.
        """

    # -- experiment / tag queries ------------------------------------------

    @abstractmethod
    def tasks_for_experiment(self, exp_id: str) -> list[int]:
        """All task ids linked to an experiment, in creation order."""

    @abstractmethod
    def tasks_for_tag(self, tag: str) -> list[int]:
        """All task ids carrying a tag, in creation order."""

    # -- monitoring --------------------------------------------------------

    @abstractmethod
    def stats(self, *, now: float = 0.0) -> dict:
        """One consistent snapshot of queue and lease state.

        The monitoring primitive behind samplers and the ``/status``
        endpoint: everything an operator needs to judge "is the queue
        draining, are pools starving, are leases expiring" in a single
        store round trip.  Returns a JSON-ready dict::

            {
              "tasks":   {"queued": n, "running": n, "complete": n,
                          "canceled": n, "total": n},
              "queue_out":       {"<eq_type>": n, ...},   # per work type
              "queue_out_total": n,
              "queue_in":        n,
              "leases":  {"active": n, "expired": n,
                          "unleased_running": n},
            }

        ``queue_out`` keys are *strings* (work types cross JSON
        boundaries).  ``now`` splits leased RUNNING tasks into active
        (``lease_expiry > now``) and expired (reapable) counts.
        """

    # -- maintenance -------------------------------------------------------

    @abstractmethod
    def max_task_id(self) -> int:
        """Highest allocated task id (0 when empty); used on reattach."""

    @abstractmethod
    def clear(self) -> None:
        """Delete all rows from all tables."""

    def wake_waiters(self) -> None:
        """End every long-poll this store object has in flight now; each
        returns empty.

        Shutdown hook: a pool calls it on its store when stopping, so a
        fetcher blocked in a wait unblocks at once.  A store ends its
        blocking in-process waits; a :class:`~repro.core.RemoteTaskStore`
        half-closes the connections its waits ride, and the service drops
        a parked request whose client closed.  Long-polls parked by a
        service for other clients are untouched.  No-op by default.
        """

    @abstractmethod
    def close(self) -> None:
        """Release the backend's resources; further use is an error."""

    # -- context manager sugar ----------------------------------------------

    def __enter__(self) -> "TaskStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def normalize_priorities(
    count: int, priority: int | Sequence[int]
) -> list[int]:
    """Expand a scalar-or-sequence priority argument to ``count`` values.

    Shared validation for batch create/update across backends: a scalar
    applies to every task; a sequence must match ``count`` exactly.
    """
    if isinstance(priority, int):
        return [priority] * count
    values = list(priority)
    if len(values) != count:
        raise ValueError(
            f"priority sequence length {len(values)} != task count {count}"
        )
    for v in values:
        if not isinstance(v, int):
            raise TypeError(f"priorities must be integers, got {type(v).__name__}")
    return values
