"""Worker pool configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.fetch import FetchPolicy
from repro.util.ids import short_id

#: Long-poll bound (seconds) of an idle pool's fetch: each empty batch
#: query blocks server-side this long and returns the instant work
#: arrives, so an idle pool costs ~1/FETCH_WAIT RPCs per second while
#: dispatch latency is the RPC round trip.  Also bounds how long
#: ``stop()`` can block on a fetch in flight against a remote store
#: (in-process stores wake instantly).
FETCH_WAIT = 0.5


@dataclass
class PoolConfig:
    """Configuration for a worker pool.

    ``batch_size`` defaults to ``n_workers`` (the Fig 3 middle-panel
    regime: every owned task is immediately runnable); set it above
    ``n_workers`` to oversubscribe (top panel), and raise ``threshold``
    to delay fetching until a larger deficit accumulates (bottom panel).

    Reporting has no setting: results that finish while a report round
    trip is in flight leave together in the next one (``pool._report``),
    so batch size follows load and a lone result is never held back.
    """

    work_type: int
    n_workers: int = 4
    batch_size: int | None = None
    threshold: int = 1
    name: str = field(default_factory=lambda: short_id("pool"))
    #: Pause after a failed fetch, and the base of the jittered retry
    #: after a long-poll fetch returns early and empty.  Nothing sleeps
    #: on it while the queue is merely empty (the fetch long-polls for
    #: ``FETCH_WAIT``) or the pool is at capacity (the fetcher waits for
    #: the deficit a reported result opens).  The MPI engine also bounds
    #: each result receive by it, so it refetches while ranks run.
    poll_delay: float = 0.02
    #: Fault-tolerance lease (seconds) the pool claims tasks under.
    #: ``None`` claims unleased (a crashed pool's tasks then need manual
    #: ``recover_pool``); with a lease, the pool heartbeats renewals and
    #: a lease reaper requeues its tasks automatically if it dies.
    #: Must comfortably exceed ``heartbeat_interval``.
    lease_duration: float | None = None
    #: Seconds between lease-renewal heartbeats; defaults to a third of
    #: ``lease_duration`` so two consecutive heartbeats can be lost
    #: before the lease lapses.
    heartbeat_interval: float | None = None
    #: Wrap each task execution in a resource profile (wall/CPU/RSS,
    #: see :mod:`repro.telemetry.profiling`) attached to its report and
    #: journal run_end.  Off by default: the disabled path must stay
    #: within noise of a pool without profiling.
    profile_tasks: bool = False
    #: Additionally sample the tracemalloc allocation peak per task.
    #: Requires ``profile_tasks``; taxes every allocation, so it is a
    #: debugging mode, not a fleet default.
    profile_memory: bool = False
    #: Seconds between fleet telemetry pushes to the service (the
    #: ``telemetry`` RPC).  ``None`` (default) disables pushing.
    telemetry_interval: float | None = None

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.batch_size is None:
            self.batch_size = self.n_workers
        if self.lease_duration is not None:
            if self.lease_duration <= 0:
                raise ValueError(
                    f"lease_duration must be positive, got {self.lease_duration}"
                )
            if self.heartbeat_interval is None:
                self.heartbeat_interval = self.lease_duration / 3.0
            if not 0 < self.heartbeat_interval < self.lease_duration:
                raise ValueError(
                    f"heartbeat_interval ({self.heartbeat_interval}) must be in"
                    f" (0, lease_duration={self.lease_duration})"
                )
        elif self.heartbeat_interval is not None:
            raise ValueError("heartbeat_interval requires lease_duration")
        if self.profile_memory and not self.profile_tasks:
            raise ValueError("profile_memory requires profile_tasks")
        if self.telemetry_interval is not None and self.telemetry_interval <= 0:
            raise ValueError(
                f"telemetry_interval must be positive, got {self.telemetry_interval}"
            )
        # Validates batch/threshold bounds.
        self.policy()

    def policy(self) -> FetchPolicy:
        """The pool's fetch policy object."""
        assert self.batch_size is not None
        return FetchPolicy(batch_size=self.batch_size, threshold=self.threshold)
