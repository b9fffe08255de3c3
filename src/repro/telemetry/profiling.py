"""Per-task resource profiling: wall/CPU time and memory attribution.

The straggler detector (``repro.telemetry.anomaly``) sees only
wall-clock intervals, which cannot distinguish a task that is *slow*
(pegging a core on a hard input) from one that is *stuck* (blocked on
I/O, a lock, or a dead dependency).  This module closes that gap at the
source: worker pools wrap each task execution in a
:class:`ProfileHandle` whose :meth:`~ProfileHandle.finish` produces a
:class:`TaskProfile` — wall seconds (``time.perf_counter`` delta),
thread CPU seconds (``time.thread_time`` delta), the process max-RSS
delta (``resource.getrusage``), and an optional tracemalloc allocation
peak.  Profiles are plain dicts on the wire: they ride ``report_batch`` /
``report_pop`` payloads (absent field = no profile, so old clients
and servers interoperate) and land in the journal's ``run_end`` extra.

Two portability gates keep the module import-safe everywhere:

- ``resource`` is POSIX-only; where it is missing, RSS fields are
  ``None`` and everything else still works.
- Live cross-thread CPU reads use ``/proc/self/task/<tid>/stat``
  (Linux).  ``time.thread_time`` only measures the *calling* thread, so
  a telemetry heartbeat thread snapshotting a busy worker needs the
  procfs path; elsewhere the live ``cpu_seconds`` is ``None`` and the
  cpu-vs-wall classification degrades to "unknown" rather than lying.

``ru_maxrss`` is a process-wide high-water mark, so per-task deltas are
attribution hints, not exact charges: concurrent tasks in one process
can only *grow* the watermark, and the task running when it grows gets
the delta.  That is exactly the "which work type is the memory hog"
signal fleet aggregation needs, at getrusage cost.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any

try:  # POSIX only; Windows runs with RSS fields disabled.
    import resource as _resource
except ImportError:  # pragma: no cover - platform dependent
    _resource = None  # type: ignore[assignment]

#: Divisor turning ``ru_maxrss`` into kilobytes: Linux reports KB,
#: macOS reports bytes.
_MAXRSS_TO_KB = 1024 if sys.platform == "darwin" else 1

#: Clock ticks per second for /proc stat CPU fields (Linux).
try:
    _CLK_TCK = os.sysconf("SC_CLK_TCK")
except (AttributeError, ValueError, OSError):  # pragma: no cover
    _CLK_TCK = 100

#: Whether per-thread CPU time is readable across threads on this host.
_PROC_TASK_STAT = os.path.isdir("/proc/self/task")


def max_rss_kb() -> float | None:
    """Process max-RSS high-water mark in KB (``None`` off-POSIX)."""
    if _resource is None:
        return None
    return _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss / _MAXRSS_TO_KB


def thread_cpu_seconds(native_tid: int) -> float | None:
    """CPU seconds (user+system) consumed by one OS thread of this
    process, readable from *any* thread.

    Parses ``/proc/self/task/<tid>/stat`` fields 14/15 (utime, stime in
    clock ticks).  Returns ``None`` anywhere the procfs layout is
    unavailable or the thread has exited — callers must treat the live
    CPU signal as best-effort.
    """
    if not _PROC_TASK_STAT:
        return None
    try:
        with open(f"/proc/self/task/{native_tid}/stat", "rb") as f:
            data = f.read()
    except OSError:
        return None
    # comm may contain spaces/parens; fields are positional after the
    # closing paren of field 2.
    rparen = data.rfind(b")")
    if rparen < 0:
        return None
    fields = data[rparen + 2 :].split()
    try:
        utime, stime = int(fields[11]), int(fields[12])
    except (IndexError, ValueError):
        return None
    return (utime + stime) / _CLK_TCK


@dataclass
class TaskProfile:
    """Resource usage of one task execution, JSON-ready via ``to_dict``.

    ``max_rss_delta_kb`` is the growth of the process high-water mark
    during the task (0.0 when the watermark did not move, ``None``
    where ``resource`` is unavailable); ``alloc_peak_kb`` is the
    tracemalloc peak over the task, only when memory profiling was on.
    """

    task_id: int
    work_type: int
    wall_seconds: float
    cpu_seconds: float
    max_rss_kb: float | None = None
    max_rss_delta_kb: float | None = None
    alloc_peak_kb: float | None = None
    failed: bool = False

    @property
    def cpu_fraction(self) -> float:
        """CPU seconds per wall second — ~1.0 for compute-bound work,
        ~0.0 for a task blocked the whole time."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.cpu_seconds / self.wall_seconds

    def to_dict(self) -> dict[str, Any]:
        """Wire/journal form; ``None`` fields are omitted to keep
        report frames small."""
        out: dict[str, Any] = {
            "task_id": self.task_id,
            "work_type": self.work_type,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
        }
        if self.max_rss_kb is not None:
            out["max_rss_kb"] = self.max_rss_kb
        if self.max_rss_delta_kb is not None:
            out["max_rss_delta_kb"] = self.max_rss_delta_kb
        if self.alloc_peak_kb is not None:
            out["alloc_peak_kb"] = self.alloc_peak_kb
        if self.failed:
            out["failed"] = True
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TaskProfile":
        return cls(
            task_id=int(data.get("task_id", -1)),
            work_type=int(data.get("work_type", -1)),
            wall_seconds=float(data.get("wall_seconds", 0.0)),
            cpu_seconds=float(data.get("cpu_seconds", 0.0)),
            max_rss_kb=data.get("max_rss_kb"),
            max_rss_delta_kb=data.get("max_rss_delta_kb"),
            alloc_peak_kb=data.get("alloc_peak_kb"),
            failed=bool(data.get("failed", False)),
        )


class ProfileHandle:
    """One in-flight task's measurement window.

    Created by :meth:`TaskProfiler.start` on the executing thread;
    :meth:`finish` (same thread) closes the window and returns the
    :class:`TaskProfile`.  While open, :meth:`live` is safe to call
    from *other* threads (the telemetry heartbeat) and reports elapsed
    wall time plus — on Linux — the worker thread's live CPU delta.
    """

    __slots__ = (
        "task_id", "work_type", "_t0_wall", "_t0_cpu", "_t0_rss",
        "_t0_proc_cpu", "_native_tid", "_memory",
    )

    def __init__(self, task_id: int, work_type: int, memory: bool) -> None:
        self.task_id = task_id
        self.work_type = work_type
        self._memory = memory
        self._native_tid = threading.get_native_id()
        if memory:
            import tracemalloc

            if not tracemalloc.is_tracing():  # pragma: no cover - config guard
                self._memory = False
            else:
                tracemalloc.reset_peak()
        self._t0_rss = max_rss_kb()
        self._t0_proc_cpu = thread_cpu_seconds(self._native_tid)
        self._t0_cpu = time.thread_time()
        self._t0_wall = time.perf_counter()

    def live(self, _clock: Any = None) -> dict[str, Any]:
        """Cross-thread snapshot of the running task for push envelopes."""
        elapsed = time.perf_counter() - self._t0_wall
        out: dict[str, Any] = {
            "task_id": self.task_id,
            "work_type": self.work_type,
            "elapsed_seconds": elapsed,
        }
        if self._t0_proc_cpu is not None:
            now_cpu = thread_cpu_seconds(self._native_tid)
            if now_cpu is not None:
                out["cpu_seconds"] = max(0.0, now_cpu - self._t0_proc_cpu)
        return out

    def finish(self, *, failed: bool = False) -> TaskProfile:
        """Close the window (on the executing thread) and return the
        completed profile."""
        wall = time.perf_counter() - self._t0_wall
        cpu = time.thread_time() - self._t0_cpu
        rss = max_rss_kb()
        delta = None
        if rss is not None and self._t0_rss is not None:
            delta = max(0.0, rss - self._t0_rss)
        alloc_peak = None
        if self._memory:
            import tracemalloc

            _current, peak = tracemalloc.get_traced_memory()
            alloc_peak = peak / 1024.0
        return TaskProfile(
            task_id=self.task_id,
            work_type=self.work_type,
            wall_seconds=wall,
            cpu_seconds=max(0.0, cpu),
            max_rss_kb=rss,
            max_rss_delta_kb=delta,
            alloc_peak_kb=alloc_peak,
            failed=failed,
        )


class TaskProfiler:
    """Factory for :class:`ProfileHandle` windows.

    ``memory=True`` additionally samples the tracemalloc peak per task;
    it starts tracemalloc on construction (process-wide — the peak is a
    between-reset high-water mark, so concurrent tasks see a shared
    watermark, same caveat as RSS) and is off by default because
    tracemalloc taxes every allocation.
    """

    def __init__(self, *, memory: bool = False) -> None:
        self._memory = memory
        if memory:
            import tracemalloc

            if not tracemalloc.is_tracing():
                tracemalloc.start()

    @property
    def memory(self) -> bool:
        return self._memory

    def start(self, task_id: int, work_type: int) -> ProfileHandle:
        """Open a measurement window on the calling (executing) thread."""
        return ProfileHandle(task_id, work_type, self._memory)
