"""Task flight recorder: a per-task lifecycle journal across roles.

Aggregate metrics (PR 1/3) answer "how is the system doing?"; spans
answer "how long did this operation take?".  Neither answers the
forensic question operators of federated executors actually ask — *what
exactly happened to task 4711?* — because that requires every hop of a
single task's lifecycle, in order, across roles.  funcX and UniFaaS
both lean on per-task state timelines to debug exactly this.  The
journal records one :class:`JournalRecord` per hop — submit, enqueue,
pop (lease), fetch, run start/end, lease renewal, requeue, report,
withdraw, cancel, collect — each carrying the emitting *role* (``me``,
``service``, ``db``, ``pool``), the task id, the work type, the trace
id when known, and an injected-clock timestamp.

Design constraints (the PR 1 discipline):

- **Near-zero cost when disabled.**  :meth:`Journal.emit` returns
  immediately on a disabled journal, and every instrumented call site
  guards with ``journal.enabled`` so no record, dict, or timestamp is
  built.  The global default journal starts disabled.
- **Lock-free hot path when enabled.**  Records append to a pending
  list (``list.append`` is one atomic bytecode under the GIL) and fold
  into the bounded ring under the lock only when the buffer fills or a
  reader asks — the pending-buffer pattern of
  :mod:`repro.telemetry.metrics`.
- **Bounded memory.**  The ring keeps the most recent ``capacity``
  records; older ones are dropped (counted in :attr:`Journal.dropped`)
  or, with ``spill_path`` set, appended to a JSONL file first so the
  full history survives the ring.

Timeline reconstruction (:func:`merge_timeline`) merges journals from
multiple roles into one causally-ordered lifecycle view.  Roles on
different hosts have skewed clocks, so the merge never reorders records
*within* a role — each role's records stay in emission (sequence-number)
order and the merge only uses timestamps to interleave *across* roles.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import deque
from collections.abc import Iterable, Sequence
from typing import IO, Any

from repro.util.clock import Clock, SystemClock

# -- the one event vocabulary -------------------------------------------------
#
# Every lifecycle emitter names hops from this set.

EV_SUBMIT = "submit"            #: ME handed the task to the store
EV_ENQUEUE = "enqueue"          #: DB inserted the task into the output queue
EV_POP = "pop"                  #: DB popped (leased) the task to a pool
EV_FETCH = "fetch"              #: pool received the task off the wire
EV_RUN_START = "run_start"      #: worker began executing the payload
EV_RUN_END = "run_end"          #: handler returned (or raised)
EV_LEASE_RENEW = "lease_renew"  #: heartbeat extended the task's lease
EV_REQUEUE = "requeue"          #: RUNNING task moved back to QUEUED
EV_REPORT = "report"            #: result landed on the input queue
EV_WITHDRAW = "withdraw"        #: requeued copy withdrawn by a late report
EV_CANCEL = "cancel"            #: queued task canceled
EV_COLLECT = "collect"          #: ME popped the result off the input queue

#: Lifecycle precedence, used only as a tie-break when two roles stamp
#: the same timestamp: a submit sorts before the enqueue it caused.
EVENT_ORDER: dict[str, int] = {
    EV_SUBMIT: 0,
    EV_ENQUEUE: 1,
    EV_POP: 2,
    EV_FETCH: 3,
    EV_RUN_START: 4,
    EV_LEASE_RENEW: 5,
    EV_RUN_END: 6,
    EV_REQUEUE: 7,
    EV_REPORT: 8,
    EV_WITHDRAW: 9,
    EV_CANCEL: 10,
    EV_COLLECT: 11,
}

#: Well-known roles (free-form strings are accepted).
ROLE_ME = "me"
ROLE_SERVICE = "service"
ROLE_DB = "db"
ROLE_POOL = "pool"

#: Pending-buffer size at which hot-path emits fold into the ring.
_FLUSH_AT = 256


class JournalRecord:
    """One hop of one task's lifecycle.

    ``seq`` is a per-journal monotonic sequence number: within a single
    journal (one role, one process) it totally orders records even when
    timestamps collide or the emitting clock is skewed.  ``extra``
    carries hop-specific detail (worker pool, lease seconds, failure
    flags) and is None for the common bare record.
    """

    __slots__ = ("seq", "time", "role", "event", "task_id", "work_type",
                 "trace_id", "source", "extra")

    def __init__(
        self,
        seq: int,
        time: float,
        role: str,
        event: str,
        task_id: int,
        work_type: int = -1,
        trace_id: str = "",
        source: str = "",
        extra: dict[str, Any] | None = None,
    ) -> None:
        self.seq = seq
        self.time = time
        self.role = role
        self.event = event
        self.task_id = task_id
        self.work_type = work_type
        self.trace_id = trace_id
        self.source = source
        self.extra = extra

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (the JSONL spill / ``/events`` wire format)."""
        record: dict[str, Any] = {
            "seq": self.seq,
            "time": self.time,
            "role": self.role,
            "event": self.event,
            "task_id": self.task_id,
            "work_type": self.work_type,
        }
        if self.trace_id:
            record["trace_id"] = self.trace_id
        if self.source:
            record["source"] = self.source
        if self.extra:
            record["extra"] = self.extra
        return record

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "JournalRecord":
        return cls(
            seq=int(data["seq"]),
            time=float(data["time"]),
            role=str(data["role"]),
            event=str(data["event"]),
            task_id=int(data["task_id"]),
            work_type=int(data.get("work_type", -1)),
            trace_id=str(data.get("trace_id", "")),
            source=str(data.get("source", "")),
            extra=data.get("extra"),
        )

    def __repr__(self) -> str:
        return (
            f"JournalRecord(seq={self.seq}, t={self.time:.6f}, "
            f"{self.role}.{self.event}, task={self.task_id})"
        )


class Journal:
    """Bounded, thread-safe flight recorder for one process/role set.

    Parameters
    ----------
    clock:
        Fallback time source for records emitted without an explicit
        timestamp.  Emitters that already hold a timestamp from their
        own injected clock (the DB's ``now=``, the pool's fetch time)
        pass it through so one run shares one timebase.
    enabled:
        Starts the journal recording.  A disabled journal's ``emit`` is
        a single attribute check — leave instrumentation inline.
    capacity:
        Ring size: the most recent ``capacity`` records are kept in
        memory; older records are dropped (counted) or spilled.
    spill_path:
        When set, records evicted from the pending buffer are appended
        to this JSONL file *before* ring eviction can drop them, so the
        file holds the complete history regardless of ring size.
    """

    def __init__(
        self,
        clock: Clock | None = None,
        enabled: bool = True,
        capacity: int = 65_536,
        spill_path: str | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"journal capacity must be >= 1, got {capacity}")
        self._clock = clock if clock is not None else SystemClock()
        self._enabled = enabled
        self._capacity = capacity
        self._ring: deque[JournalRecord] = deque(maxlen=capacity)
        self._pending: list[JournalRecord] = []
        self._seq = itertools.count(1)
        self._lock = threading.Lock()
        self._spill_path = spill_path
        self._spill_file: IO[str] | None = None
        self.dropped = 0

    # -- state ------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    @property
    def clock(self) -> Clock:
        return self._clock

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def spill_path(self) -> str | None:
        return self._spill_path

    # -- recording --------------------------------------------------------

    def emit(
        self,
        event: str,
        task_id: int,
        *,
        role: str,
        work_type: int = -1,
        trace_id: str = "",
        source: str = "",
        time: float | None = None,
        extra: dict[str, Any] | None = None,
    ) -> JournalRecord | None:
        """Record one lifecycle hop; returns the record (None if disabled).

        Hot-path discipline: no lock is taken unless the pending buffer
        is full.  ``time=None`` stamps with the journal's clock;
        emitters holding a timestamp from their own injected clock pass
        it explicitly.
        """
        if not self._enabled:
            return None
        record = JournalRecord(
            seq=next(self._seq),
            time=self._clock.now() if time is None else time,
            role=role,
            event=event,
            task_id=task_id,
            work_type=work_type,
            trace_id=trace_id,
            source=source,
            extra=extra,
        )
        pending = self._pending
        pending.append(record)
        if len(pending) >= _FLUSH_AT:
            with self._lock:
                self._fold()
        return record

    def _fold(self) -> None:
        """Fold pending records into the ring (call under the lock).

        Consumes a fixed prefix so emits racing the fold are kept for
        the next one.  Spill happens here — amortized over the buffer,
        never on the emit path.
        """
        pending = self._pending
        n = len(pending)
        if not n:
            return
        chunk = pending[:n]
        del pending[:n]
        if self._spill_path is not None:
            if self._spill_file is None:
                self._spill_file = open(self._spill_path, "a")
            for record in chunk:
                self._spill_file.write(json.dumps(record.to_dict()) + "\n")
        overflow = len(self._ring) + n - self._capacity
        if overflow > 0:
            self.dropped += overflow
        self._ring.extend(chunk)

    # -- inspection -------------------------------------------------------

    def records(self, task_id: int | None = None) -> list[JournalRecord]:
        """A seq-ordered snapshot of the ring (optionally one task's)."""
        with self._lock:
            self._fold()
            records = list(self._ring)
        if task_id is not None:
            records = [r for r in records if r.task_id == task_id]
        records.sort(key=lambda r: r.seq)
        return records

    def tail(self, since_seq: int = 0) -> list[JournalRecord]:
        """Records with ``seq > since_seq``, seq-ordered — the streaming
        consumer's incremental read (straggler detector, ``/events``)."""
        with self._lock:
            self._fold()
            records = [r for r in self._ring if r.seq > since_seq]
        records.sort(key=lambda r: r.seq)
        return records

    def last_seq(self) -> int:
        """The highest sequence number folded so far (0 when empty)."""
        with self._lock:
            self._fold()
            return max((r.seq for r in self._ring), default=0)

    def __len__(self) -> int:
        with self._lock:
            self._fold()
            return len(self._ring)

    # -- maintenance ------------------------------------------------------

    def flush(self) -> None:
        """Fold pending records and flush the spill file to disk."""
        with self._lock:
            self._fold()
            if self._spill_file is not None:
                self._spill_file.flush()

    def clear(self) -> None:
        """Drop all in-memory records (the spill file is untouched)."""
        with self._lock:
            self._pending.clear()
            self._ring.clear()
            self.dropped = 0

    def close(self) -> None:
        """Flush and close the spill file (idempotent)."""
        with self._lock:
            self._fold()
            if self._spill_file is not None:
                self._spill_file.close()
                self._spill_file = None

    def save_jsonl(self, path: str) -> int:
        """Write the current ring to ``path`` as JSONL; returns count."""
        records = self.records()
        with open(path, "w") as f:
            for record in records:
                f.write(json.dumps(record.to_dict()) + "\n")
        return len(records)


# -- loading ------------------------------------------------------------------


def load_journal(path: str) -> list[JournalRecord]:
    """Read a JSONL journal file (spill or :meth:`Journal.save_jsonl`).

    Blank lines are skipped; a malformed line raises — a truncated final
    line from a crashed process is the one tolerated defect (ignored).
    """
    records: list[JournalRecord] = []
    with open(path) as f:
        lines = f.readlines()
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(JournalRecord.from_dict(json.loads(line)))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            if i == len(lines) - 1:
                continue  # torn final write from a crashed process
            raise ValueError(f"{path}:{i + 1}: malformed journal line") from None
    return records


# -- timeline reconstruction --------------------------------------------------


def merge_timeline(records: Iterable[JournalRecord]) -> list[JournalRecord]:
    """Merge records from any number of roles into one lifecycle view.

    Guarantees:

    - Records of the same role never reorder: each role's stream stays
      in sequence-number (emission) order, whatever its timestamps say.
      This is the clock-skew tolerance — a role with a skewed clock
      keeps its internal causality.
    - Across roles, the merge repeatedly takes the role whose *next*
      record has the earliest timestamp (ties broken by lifecycle
      precedence, then role name), which interleaves well-synchronized
      roles in true time order.
    """
    streams: dict[str, list[JournalRecord]] = {}
    for record in records:
        streams.setdefault(record.role, []).append(record)
    for stream in streams.values():
        stream.sort(key=lambda r: r.seq)
    heads = {role: 0 for role in streams}
    merged: list[JournalRecord] = []
    while heads:
        best_role = min(
            heads,
            key=lambda role: (
                streams[role][heads[role]].time,
                EVENT_ORDER.get(streams[role][heads[role]].event, 99),
                role,
            ),
        )
        merged.append(streams[best_role][heads[best_role]])
        heads[best_role] += 1
        if heads[best_role] >= len(streams[best_role]):
            del heads[best_role]
    return merged


def task_timeline(
    records: Iterable[JournalRecord], task_id: int
) -> list[JournalRecord]:
    """One task's merged lifecycle from a mixed record stream."""
    return merge_timeline(r for r in records if r.task_id == task_id)


def render_timeline(records: Sequence[JournalRecord]) -> str:
    """Human-readable timeline table: relative time, delta, role, hop.

    Times are shown relative to the first record; ``dt`` is the gap to
    the previous record (where a straggler's stall is visible at a
    glance).
    """
    from repro.telemetry.report import render_table

    if not records:
        return "(no records)"
    t0 = records[0].time
    rows = []
    previous = t0
    for record in records:
        detail = ""
        if record.extra:
            detail = " ".join(f"{k}={v}" for k, v in sorted(record.extra.items()))
        rows.append(
            [
                f"{record.time - t0:+.6f}",
                f"{record.time - previous:+.6f}",
                record.role,
                record.event,
                record.source,
                record.trace_id,
                detail,
            ]
        )
        previous = record.time
    return render_table(
        ["t (s)", "dt (s)", "role", "event", "source", "trace", "detail"], rows
    )


# -- global default journal ---------------------------------------------------

#: The process-wide default journal.  Disabled out of the box so that
#: all inline emit points are a single attribute check until a run opts
#: in (the same discipline as the default tracer).
_global_journal = Journal(enabled=False)
_global_lock = threading.Lock()


def get_journal() -> Journal:
    """The process-wide default journal."""
    return _global_journal


def set_journal(journal: Journal) -> Journal:
    """Install ``journal`` as the default; returns the previous one."""
    global _global_journal
    with _global_lock:
        previous = _global_journal
        _global_journal = journal
        return previous


def configure_journal(
    clock: Clock | None = None,
    enabled: bool = True,
    capacity: int = 65_536,
    spill_path: str | None = None,
) -> Journal:
    """Create and install a fresh default journal; returns it.

    Share the ``clock`` instance with the components under observation
    (EQSQL, pools, the service) so every hop timestamp in the run comes
    from one timebase; roles in other processes keep their own clocks
    and rely on the merge's skew tolerance.
    """
    journal = Journal(
        clock=clock, enabled=enabled, capacity=capacity, spill_path=spill_path
    )
    set_journal(journal)
    return journal
