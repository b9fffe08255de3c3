"""Background samplers: periodic state snapshots into the metrics registry.

Counters and histograms capture *events* as they happen; queue depth,
lease health, and worker occupancy are *levels* that nothing increments.
Samplers close the gap: a daemon thread with an injected clock wakes
every ``interval`` seconds, reads the level, and publishes it as gauges
in the shared :class:`~repro.telemetry.metrics.MetricsRegistry` — so a
``/metrics`` scrape or ``/status`` poll always sees fresh operational
state without any hot-path cost.

Each sampler also keeps a bounded in-memory history of its headline
level and exposes it as a :class:`~repro.telemetry.timeseries.
ConcurrencySeries`, so the same reducers that analyze benchmark event
streams (``mean_concurrency``, ``utilization_stats``) summarize live
runs.  Tests drive :meth:`Sampler.sample_once` directly under a
:class:`~repro.util.clock.VirtualClock`; the threaded mode is
wall-clock.
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Callable, Mapping
from typing import TYPE_CHECKING

from repro.db.backend import TaskStore
from repro.telemetry.metrics import MetricsRegistry, get_metrics
from repro.util.clock import Clock, SystemClock
from repro.util.logging import get_logger, log_event

if TYPE_CHECKING:
    # numpy and the reducers load in the reductions below, not at import:
    # sampling needs neither, and a service should not pay for numpy
    # until someone asks for a summary.
    from repro.telemetry.timeseries import ConcurrencySeries

_log = get_logger(__name__)


class Sampler:
    """Base class: a periodic :meth:`sample_once` on a daemon thread.

    Subclasses override :meth:`sample_once`; the loop absorbs exceptions
    (a transient store error must not kill monitoring) and keeps
    sampling.  ``history`` bounds the in-memory level series.
    """

    #: Name used for the thread and log events.
    name = "sampler"

    def __init__(
        self,
        interval: float = 1.0,
        clock: Clock | None = None,
        history: int = 512,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"sampler interval must be positive, got {interval}")
        self._interval = interval
        self._clock = clock if clock is not None else SystemClock()
        self._history: deque[tuple[float, float]] = deque(maxlen=history)
        self._history_lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.samples_taken = 0

    # -- override points ----------------------------------------------------

    def sample_once(self) -> None:
        """Take one snapshot (override; call :meth:`record_level` with
        the headline level)."""
        raise NotImplementedError

    # -- history ------------------------------------------------------------

    def record_level(self, value: float) -> None:
        """Append one (now, value) point to the level history."""
        with self._history_lock:
            self._history.append((self._clock.now(), float(value)))
        self.samples_taken += 1

    def level_series(self) -> ConcurrencySeries:
        """The sampled level as a step function the timeseries reducers
        understand (an empty series when nothing was sampled yet)."""
        import numpy as np
        from repro.telemetry.timeseries import ConcurrencySeries

        with self._history_lock:
            points = list(self._history)
        if not points:
            return ConcurrencySeries(np.array([]), np.array([], dtype=int), 0.0)
        times = np.asarray([t for t, _ in points])
        counts = np.asarray([v for _, v in points])
        return ConcurrencySeries(times, counts, float(times[-1]))

    def summary(self) -> dict:
        """JSON-ready reduction of the level history."""
        from repro.telemetry.timeseries import mean_concurrency

        series = self.level_series()
        n = len(series.times)
        return {
            "samples": self.samples_taken,
            "level_last": float(series.counts[-1]) if n else 0.0,
            "level_mean": mean_concurrency(series),
            "level_max": float(series.counts.max()) if n else 0.0,
        }

    # -- lifecycle ------------------------------------------------------------

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                self.sample_once()
            except Exception as exc:  # noqa: BLE001 - samplers must outlive faults
                log_event(
                    _log, "monitor.sampler_error", level=30,
                    sampler=self.name, error=str(exc),
                )

    def start(self) -> "Sampler":
        """Begin sampling on a daemon thread; returns self for chaining.

        Idempotent: starting a running sampler is a no-op (callers that
        share a sampler — a pool and its bench harness, say — need not
        coordinate), and a stopped sampler restarts cleanly.
        """
        if self._thread is not None and self._thread.is_alive():
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name=self.name, daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "Sampler":
        """Stop the sampling thread; idempotent, returns self.

        A double stop must not join a dead thread: the first call Nones
        out ``_thread``, so the second is a pure no-op.
        """
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5)
            self._thread = None
        return self

    def is_alive(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    def __enter__(self) -> "Sampler":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()


class StoreSampler(Sampler):
    """Snapshots a :class:`TaskStore` into queue/lease gauges.

    One :meth:`~repro.db.backend.TaskStore.stats` round trip per tick
    feeds:

    - ``store.tasks.<status>`` — tasks per lifecycle status,
    - ``store.queue_out_depth`` (+ ``store.queue_out_depth.type_<t>``
      per work type) and ``store.queue_in_depth``,
    - ``leases.active`` / ``leases.expired`` / ``leases.unleased_running``.

    The headline level is the total output-queue depth, so
    :meth:`summary` reports the time-weighted mean/max backlog.
    """

    name = "store-sampler"

    def __init__(
        self,
        store: TaskStore,
        metrics: MetricsRegistry | None = None,
        clock: Clock | None = None,
        interval: float = 1.0,
        history: int = 512,
    ) -> None:
        super().__init__(interval=interval, clock=clock, history=history)
        self._store = store
        self._registry = metrics if metrics is not None else get_metrics()
        self._g_out = self._registry.gauge(
            "store.queue_out_depth", "tasks waiting on the output queue"
        )
        self._g_in = self._registry.gauge(
            "store.queue_in_depth", "results waiting on the input queue"
        )
        self._g_active = self._registry.gauge(
            "leases.active", "RUNNING tasks holding an unexpired lease"
        )
        self._g_expired = self._registry.gauge(
            "leases.expired", "RUNNING tasks whose lease lapsed (reapable)"
        )
        self._g_unleased = self._registry.gauge(
            "leases.unleased_running", "RUNNING tasks popped without a lease"
        )
        self.last_stats: dict | None = None

    def sample_once(self) -> None:
        stats = self._store.stats(now=self._clock.now())
        self.last_stats = stats
        for status, count in stats["tasks"].items():
            if status == "total":
                continue
            self._registry.gauge(
                f"store.tasks.{status}", f"tasks currently {status}"
            ).set(count)
        for eq_type, depth in stats["queue_out"].items():
            self._registry.gauge(
                f"store.queue_out_depth.type_{eq_type}",
                f"queued tasks of work type {eq_type}",
            ).set(depth)
        self._g_out.set(stats["queue_out_total"])
        self._g_in.set(stats["queue_in"])
        leases = stats["leases"]
        self._g_active.set(leases["active"])
        self._g_expired.set(leases["expired"])
        self._g_unleased.set(leases["unleased_running"])
        self.record_level(stats["queue_out_total"])

    def summary(self) -> dict:
        summary = super().summary()
        summary["queue_out_mean_depth"] = summary.pop("level_mean")
        summary["queue_out_max_depth"] = summary.pop("level_max")
        summary["queue_out_last_depth"] = summary.pop("level_last")
        return summary


class PoolSampler(Sampler):
    """Snapshots a :class:`~repro.pools.pool.ThreadedWorkerPool`.

    Publishes ``pool.<name>.owned``, ``pool.<name>.busy`` and
    ``pool.<name>.busy_fraction`` gauges; the headline level is the busy
    worker count, so :meth:`summary` yields live utilization statistics
    through the same :func:`~repro.telemetry.timeseries.utilization_stats`
    reducer the Fig 3 benchmarks use offline.
    """

    name = "pool-sampler"

    def __init__(
        self,
        pool,
        metrics: MetricsRegistry | None = None,
        clock: Clock | None = None,
        interval: float = 1.0,
        history: int = 512,
    ) -> None:
        super().__init__(interval=interval, clock=clock, history=history)
        self._pool = pool
        registry = metrics if metrics is not None else get_metrics()
        prefix = f"pool.{pool.name}"
        self._g_owned = registry.gauge(
            f"{prefix}.owned", "tasks claimed but not yet completed"
        )
        self._g_busy = registry.gauge(
            f"{prefix}.busy", "workers currently executing a task"
        )
        self._g_busy_fraction = registry.gauge(
            f"{prefix}.busy_fraction", "busy workers / total workers"
        )

    def sample_once(self) -> None:
        busy = self._pool.busy()
        self._g_owned.set(self._pool.owned())
        self._g_busy.set(busy)
        self._g_busy_fraction.set(self._pool.busy_fraction())
        self.record_level(busy)

    def summary(self) -> dict:
        from repro.telemetry.timeseries import utilization_stats

        summary = super().summary()
        summary["utilization"] = utilization_stats(
            self.level_series(), self._pool.config.n_workers
        )
        return summary


class CallbackSampler(Sampler):
    """Publishes arbitrary levels from callables — e.g. ME driver
    progress (completed / pending counts) or any component exposing a
    cheap numeric probe.

    ``probes`` maps gauge names to zero-argument callables returning a
    number; the first probe's value is the headline level.
    """

    name = "callback-sampler"

    def __init__(
        self,
        probes: Mapping[str, Callable[[], float]],
        metrics: MetricsRegistry | None = None,
        clock: Clock | None = None,
        interval: float = 1.0,
        history: int = 512,
        name: str | None = None,
    ) -> None:
        if not probes:
            raise ValueError("CallbackSampler needs at least one probe")
        super().__init__(interval=interval, clock=clock, history=history)
        if name is not None:
            self.name = name
        registry = metrics if metrics is not None else get_metrics()
        self._probes = [
            (registry.gauge(gauge_name), fn) for gauge_name, fn in probes.items()
        ]

    def sample_once(self) -> None:
        headline: float | None = None
        for gauge, fn in self._probes:
            value = float(fn())
            gauge.set(value)
            if headline is None:
                headline = value
        assert headline is not None
        self.record_level(headline)
