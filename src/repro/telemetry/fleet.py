"""Fleet telemetry plane: push-based worker aggregation on the service.

Per-process telemetry (each pool's metrics registry, each sampler's
history) dies with its process and is invisible to the operator of a
multi-site deployment.  funcX-style federated platforms solve this by
having every executor *push* liveness and load to a central point; this
module is that point for the EMEWS service.

Two halves:

- :class:`TelemetryPusher` runs inside a pool or ME driver: a daemon
  heartbeat thread that builds a JSON envelope every ``interval``
  seconds (worker id, role, busy fraction, counters, sampler
  summaries, metric deltas, recent task profiles, live running tasks)
  and pushes it through a sink — normally the remote store's
  ``telemetry`` RPC.  Push failures are absorbed: telemetry must never
  take a worker down, and a missed beat just shows up as staleness.

- :class:`FleetRegistry` runs inside the service: it ingests envelopes,
  tracks per-worker liveness (last-seen with a configurable expiry
  multiple of each worker's own declared interval), rolls per-work-type
  profile aggregates (count, p50/p95 wall and CPU, max RSS), and keeps
  the live cpu-vs-wall signal that classifies a straggler as *slow*
  (pegged CPU) versus *stuck* (idle).  ``snapshot()`` is the ``/fleet``
  JSON document; ``render_prometheus()`` emits worker-labelled gauges
  appended to ``/metrics`` (label values sanitized, series count
  capped so a runaway fleet cannot blow up scrape cardinality).

Envelope schema (every field optional except ``worker_id``)::

    {"worker_id": str, "role": "pool" | "me" | str,
     "interval": float,            # sender's heartbeat period
     "time": float,                # sender's clock at build time
     "busy_fraction": float, "n_workers": int, "owned": int,
     "tasks_completed": int, "tasks_failed": int, "reports_lost": int,
     "samplers": {name: summary_dict, ...},
     "metrics": {name: value, ...},          # counter deltas / gauges
     "profiles": [profile_dict, ...],        # since the last push
     "running": [{"task_id", "work_type", "elapsed_seconds",
                  "cpu_seconds"?}, ...]}     # live, for classification
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Callable, Mapping
from typing import Any

from repro.telemetry.metrics import MetricsRegistry, get_metrics
from repro.util.clock import Clock, SystemClock
from repro.util.logging import get_logger, log_event

_log = get_logger(__name__)

#: Envelope "running" tasks with at least this CPU-per-wall fraction
#: classify as "slow" (working hard); below it they are "stuck".
SLOW_CPU_FRACTION = 0.5

#: Longest accepted worker id; longer ids are truncated (label safety).
_MAX_WORKER_ID = 64


def _sanitize_label(value: str) -> str:
    """Conservative label value: printable, bounded, no format chars."""
    cleaned = "".join(
        ch if (ch.isalnum() or ch in "._:-") else "_" for ch in str(value)
    )
    return cleaned[:_MAX_WORKER_ID] or "_"


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, max(0, round(q * (len(sorted_values) - 1))))
    return sorted_values[int(idx)]


class ProfileAggregate:
    """Rolling per-work-type reduction of task profiles."""

    __slots__ = ("count", "failed", "max_rss_kb", "_wall", "_cpu")

    def __init__(self, window: int = 256) -> None:
        self.count = 0
        self.failed = 0
        self.max_rss_kb = 0.0
        self._wall: deque[float] = deque(maxlen=window)
        self._cpu: deque[float] = deque(maxlen=window)

    def add(self, profile: Mapping[str, Any]) -> None:
        self.count += 1
        if profile.get("failed"):
            self.failed += 1
        self._wall.append(float(profile.get("wall_seconds", 0.0)))
        self._cpu.append(float(profile.get("cpu_seconds", 0.0)))
        rss = profile.get("max_rss_kb")
        if rss is not None:
            self.max_rss_kb = max(self.max_rss_kb, float(rss))

    def summary(self) -> dict[str, Any]:
        wall = sorted(self._wall)
        cpu = sorted(self._cpu)
        return {
            "count": self.count,
            "failed": self.failed,
            "wall_p50_seconds": _percentile(wall, 0.50),
            "wall_p95_seconds": _percentile(wall, 0.95),
            "cpu_p50_seconds": _percentile(cpu, 0.50),
            "cpu_p95_seconds": _percentile(cpu, 0.95),
            "max_rss_kb": self.max_rss_kb,
        }


class _WorkerState:
    """Everything the registry knows about one pushed worker."""

    __slots__ = (
        "worker_id", "role", "interval", "first_seen", "last_seen",
        "pushes", "busy_fraction", "n_workers", "owned",
        "tasks_completed", "tasks_failed", "reports_lost",
        "samplers", "metrics", "running",
    )

    def __init__(self, worker_id: str, now: float) -> None:
        self.worker_id = worker_id
        self.role = ""
        self.interval = 0.0
        self.first_seen = now
        self.last_seen = now
        self.pushes = 0
        self.busy_fraction = 0.0
        self.n_workers = 0
        self.owned = 0
        self.tasks_completed = 0
        self.tasks_failed = 0
        self.reports_lost = 0
        self.samplers: dict[str, Any] = {}
        self.metrics: dict[str, float] = {}
        self.running: list[dict[str, Any]] = []


class FleetRegistry:
    """Service-side aggregation of pushed worker telemetry.

    Parameters
    ----------
    clock:
        Liveness time source; must be the service's clock so ages agree
        with lease arithmetic.
    default_interval:
        Assumed heartbeat period for envelopes that do not declare one.
    stale_multiple, expiry_multiple:
        A worker is *stale* once unseen for ``stale_multiple`` × its
        interval, and dropped entirely (with its labelled ``/metrics``
        series) after ``expiry_multiple`` × interval.
    max_workers:
        Hard cap on tracked workers; envelopes from new ids beyond it
        are rejected (counted in ``fleet.rejected``) rather than
        growing without bound.
    max_labelled:
        Cap on workers given per-worker labelled series on ``/metrics``
        (cardinality guard); the overflow count is itself a gauge.
    profile_window:
        Samples kept per work type for the p50/p95 reductions.
    """

    def __init__(
        self,
        clock: Clock | None = None,
        metrics: MetricsRegistry | None = None,
        default_interval: float = 10.0,
        stale_multiple: float = 2.0,
        expiry_multiple: float = 3.0,
        max_workers: int = 256,
        max_labelled: int = 50,
        profile_window: int = 256,
        top_profiles: int = 10,
    ) -> None:
        if stale_multiple <= 0 or expiry_multiple <= 0:
            raise ValueError("stale/expiry multiples must be positive")
        if expiry_multiple < stale_multiple:
            raise ValueError(
                f"expiry_multiple ({expiry_multiple}) must be >="
                f" stale_multiple ({stale_multiple})"
            )
        self._clock = clock if clock is not None else SystemClock()
        self.default_interval = default_interval
        self.stale_multiple = stale_multiple
        self.expiry_multiple = expiry_multiple
        self.max_workers = max_workers
        self.max_labelled = max_labelled
        self._profile_window = profile_window
        self._top_n = top_profiles
        self._lock = threading.Lock()
        self._workers: dict[str, _WorkerState] = {}
        self._aggregates: dict[int, ProfileAggregate] = {}
        # A profile can reach the registry twice — on its report RPC
        # and again inside the next push envelope — so aggregation
        # dedupes by task id over a bounded recency window.
        self._seen_profile_ids: set[int] = set()
        self._seen_profile_order: deque[int] = deque()
        #: Worst recent profiles by CPU seconds (the "top resource
        #: consumers" table in ``repro fleet``).
        self._top_cpu: list[dict[str, Any]] = []
        registry = metrics if metrics is not None else get_metrics()
        self._m_envelopes = registry.counter(
            "fleet.envelopes", "telemetry envelopes accepted"
        )
        self._m_rejected = registry.counter(
            "fleet.rejected", "telemetry envelopes rejected (bad or over cap)"
        )
        self._m_expired = registry.counter(
            "fleet.workers_expired", "workers dropped after missing heartbeats"
        )
        self._m_profiles = registry.counter(
            "fleet.profiles", "task profiles aggregated"
        )
        self._g_workers = registry.gauge(
            "fleet.workers", "workers currently tracked (live + stale)"
        )

    # -- ingestion ----------------------------------------------------------

    def observe(self, envelope: Mapping[str, Any], now: float | None = None) -> dict:
        """Ingest one pushed envelope; returns a small ack document.

        Raises ``ValueError`` for an envelope without a usable
        ``worker_id`` (the service surfaces it as a typed remote
        error).  Unknown fields are ignored — the envelope schema may
        grow without breaking old services.
        """
        if now is None:
            now = self._clock.now()
        if not isinstance(envelope, Mapping):
            self._m_rejected.inc()
            raise ValueError("telemetry envelope must be an object")
        raw_id = envelope.get("worker_id")
        if not raw_id or not isinstance(raw_id, str):
            self._m_rejected.inc()
            raise ValueError("telemetry envelope missing worker_id")
        worker_id = _sanitize_label(raw_id)
        with self._lock:
            self._sweep_locked(now)
            state = self._workers.get(worker_id)
            if state is None:
                if len(self._workers) >= self.max_workers:
                    self._m_rejected.inc()
                    return {"accepted": False, "reason": "fleet at max_workers"}
                state = _WorkerState(worker_id, now)
                self._workers[worker_id] = state
            state.last_seen = now
            state.pushes += 1
            state.role = str(envelope.get("role", state.role or "worker"))
            interval = envelope.get("interval")
            if isinstance(interval, (int, float)) and interval > 0:
                state.interval = float(interval)
            state.busy_fraction = float(envelope.get("busy_fraction", 0.0))
            state.n_workers = int(envelope.get("n_workers", state.n_workers))
            state.owned = int(envelope.get("owned", 0))
            state.tasks_completed = int(
                envelope.get("tasks_completed", state.tasks_completed)
            )
            state.tasks_failed = int(
                envelope.get("tasks_failed", state.tasks_failed)
            )
            state.reports_lost = int(
                envelope.get("reports_lost", state.reports_lost)
            )
            samplers = envelope.get("samplers")
            if isinstance(samplers, Mapping):
                state.samplers = dict(samplers)
            metric_deltas = envelope.get("metrics")
            if isinstance(metric_deltas, Mapping):
                for name, value in metric_deltas.items():
                    if isinstance(value, (int, float)):
                        state.metrics[str(name)] = float(value)
            running = envelope.get("running")
            state.running = (
                [dict(r) for r in running if isinstance(r, Mapping)]
                if isinstance(running, list)
                else []
            )
            profiles = envelope.get("profiles")
            if isinstance(profiles, list):
                for profile in profiles:
                    if isinstance(profile, Mapping):
                        self._add_profile_locked(profile)
            self._g_workers.set(len(self._workers))
        self._m_envelopes.inc()
        return {"accepted": True, "workers": len(self._workers)}

    def observe_profiles(self, profiles: list[Mapping[str, Any]]) -> None:
        """Fold report-path profiles into the aggregates.

        The service calls this for ``report_batch``/``report_pop`` params
        carrying profiles, so the per-work-type tables fill even when
        no worker has push telemetry configured.
        """
        with self._lock:
            for profile in profiles:
                if isinstance(profile, Mapping):
                    self._add_profile_locked(profile)

    #: Recency window for profile task-id dedup.
    _SEEN_PROFILE_WINDOW = 4096

    def _add_profile_locked(self, profile: Mapping[str, Any]) -> None:
        task_id = int(profile.get("task_id", -1))
        if task_id >= 0:
            if task_id in self._seen_profile_ids:
                return
            self._seen_profile_ids.add(task_id)
            self._seen_profile_order.append(task_id)
            if len(self._seen_profile_order) > self._SEEN_PROFILE_WINDOW:
                self._seen_profile_ids.discard(self._seen_profile_order.popleft())
        work_type = int(profile.get("work_type", -1))
        aggregate = self._aggregates.get(work_type)
        if aggregate is None:
            aggregate = ProfileAggregate(self._profile_window)
            self._aggregates[work_type] = aggregate
        aggregate.add(profile)
        self._m_profiles.inc()
        entry = dict(profile)
        self._top_cpu.append(entry)
        self._top_cpu.sort(key=lambda p: p.get("cpu_seconds", 0.0), reverse=True)
        del self._top_cpu[self._top_n :]

    # -- liveness -----------------------------------------------------------

    def _interval_of(self, state: _WorkerState) -> float:
        return state.interval if state.interval > 0 else self.default_interval

    def _sweep_locked(self, now: float) -> None:
        expired = [
            worker_id
            for worker_id, state in self._workers.items()
            if now - state.last_seen > self.expiry_multiple * self._interval_of(state)
        ]
        for worker_id in expired:
            del self._workers[worker_id]
        if expired:
            self._m_expired.inc(len(expired))
            log_event(
                _log, "fleet.workers_expired", workers=",".join(expired)
            )

    def _state_of(self, state: _WorkerState, now: float) -> str:
        age = now - state.last_seen
        return "stale" if age > self.stale_multiple * self._interval_of(state) else "live"

    # -- classification -----------------------------------------------------

    def classify_task(self, task_id: int) -> dict[str, Any] | None:
        """The cpu-vs-wall verdict for one live task, if any worker's
        last envelope reported it running.

        Returns ``{"classification": "slow" | "stuck" | "unknown",
        "cpu_fraction": float | None, "worker_id": str}`` or ``None``
        when no envelope mentions the task.  "unknown" means the
        sending platform could not read cross-thread CPU.
        """
        with self._lock:
            for state in self._workers.values():
                for entry in state.running:
                    if int(entry.get("task_id", -1)) != task_id:
                        continue
                    elapsed = float(entry.get("elapsed_seconds", 0.0))
                    cpu = entry.get("cpu_seconds")
                    if cpu is None or elapsed <= 0:
                        return {
                            "classification": "unknown",
                            "cpu_fraction": None,
                            "worker_id": state.worker_id,
                        }
                    fraction = float(cpu) / elapsed
                    return {
                        "classification": (
                            "slow" if fraction >= SLOW_CPU_FRACTION else "stuck"
                        ),
                        "cpu_fraction": fraction,
                        "worker_id": state.worker_id,
                    }
        return None

    # -- surfaces -----------------------------------------------------------

    def workers(self, now: float | None = None) -> list[dict[str, Any]]:
        """Per-worker liveness rows (sweeps expired workers first)."""
        if now is None:
            now = self._clock.now()
        with self._lock:
            self._sweep_locked(now)
            self._g_workers.set(len(self._workers))
            return [
                {
                    "worker_id": state.worker_id,
                    "role": state.role,
                    "state": self._state_of(state, now),
                    "age_seconds": max(0.0, now - state.last_seen),
                    "interval": self._interval_of(state),
                    "pushes": state.pushes,
                    "busy_fraction": state.busy_fraction,
                    "n_workers": state.n_workers,
                    "owned": state.owned,
                    "tasks_completed": state.tasks_completed,
                    "tasks_failed": state.tasks_failed,
                    "reports_lost": state.reports_lost,
                    "running": list(state.running),
                    "samplers": dict(state.samplers),
                    "metrics": dict(state.metrics),
                }
                for state in sorted(
                    self._workers.values(), key=lambda s: s.worker_id
                )
            ]

    def snapshot(self, now: float | None = None) -> dict[str, Any]:
        """The ``/fleet`` JSON document."""
        if now is None:
            now = self._clock.now()
        workers = self.workers(now)
        with self._lock:
            profiles = {
                str(work_type): aggregate.summary()
                for work_type, aggregate in sorted(self._aggregates.items())
            }
            top = [dict(p) for p in self._top_cpu]
        return {
            "time": now,
            "workers": workers,
            "counts": {
                "total": len(workers),
                "live": sum(1 for w in workers if w["state"] == "live"),
                "stale": sum(1 for w in workers if w["state"] == "stale"),
            },
            "expiry": {
                "stale_multiple": self.stale_multiple,
                "expiry_multiple": self.expiry_multiple,
                "default_interval": self.default_interval,
            },
            "profiles": profiles,
            "top_cpu": top,
        }

    def summary(self, now: float | None = None) -> dict[str, Any]:
        """Compact fleet section for ``/status``."""
        workers = self.workers(now)
        return {
            "workers": len(workers),
            "live": sum(1 for w in workers if w["state"] == "live"),
            "stale": sum(1 for w in workers if w["state"] == "stale"),
            "profiled_work_types": len(self._aggregates),
        }

    def render_prometheus(self, now: float | None = None) -> str:
        """Worker-labelled gauge series appended to ``/metrics``.

        Labels are sanitized and the per-worker series count is capped
        at ``max_labelled`` (sorted by worker id for stable scrapes);
        the overflow count is exposed so a capped fleet is visible.
        """
        from repro.telemetry.monitor.prometheus import escape_label_value

        if now is None:
            now = self._clock.now()
        workers = self.workers(now)
        lines: list[str] = []
        emit = lines.append
        emit("# HELP repro_fleet_worker_up 1 while the worker is live, 0 when stale")
        emit("# TYPE repro_fleet_worker_up gauge")
        shown = workers[: self.max_labelled]
        for w in shown:
            label = (
                f'worker="{escape_label_value(w["worker_id"])}",'
                f'role="{escape_label_value(w["role"])}"'
            )
            emit(
                f"repro_fleet_worker_up{{{label}}} "
                f"{1 if w['state'] == 'live' else 0}"
            )
        emit("# TYPE repro_fleet_worker_busy_fraction gauge")
        for w in shown:
            label = f'worker="{escape_label_value(w["worker_id"])}"'
            emit(
                f"repro_fleet_worker_busy_fraction{{{label}}} "
                f"{w['busy_fraction']:.6g}"
            )
        emit("# TYPE repro_fleet_worker_last_seen_age_seconds gauge")
        for w in shown:
            label = f'worker="{escape_label_value(w["worker_id"])}"'
            emit(
                f"repro_fleet_worker_last_seen_age_seconds{{{label}}} "
                f"{w['age_seconds']:.6g}"
            )
        emit("# TYPE repro_fleet_worker_tasks_completed gauge")
        for w in shown:
            label = f'worker="{escape_label_value(w["worker_id"])}"'
            emit(
                f"repro_fleet_worker_tasks_completed{{{label}}} "
                f"{w['tasks_completed']}"
            )
        emit("# TYPE repro_fleet_workers_overflow gauge")
        emit(f"repro_fleet_workers_overflow {max(0, len(workers) - len(shown))}")
        return "\n".join(lines) + "\n"

    def clear(self) -> None:
        with self._lock:
            self._workers.clear()
            self._aggregates.clear()
            self._top_cpu.clear()
            self._seen_profile_ids.clear()
            self._seen_profile_order.clear()
            self._g_workers.set(0)


#: A telemetry sink: envelope -> ack (return value ignored).
TelemetrySink = Callable[[dict], Any]


class TelemetryPusher:
    """Heartbeat thread pushing envelopes from a worker to a sink.

    ``envelope_fn`` builds the per-beat payload (the owning component
    closes over its own state); the pusher adds ``worker_id``, ``role``,
    ``interval``, sampler summaries, and registry metric deltas, then
    calls ``sink(envelope)``.  Sink failures are absorbed and counted —
    a telemetry outage must never take a worker down.  Tests drive
    :meth:`push_once` directly; ``start``/``stop`` are idempotent.
    """

    def __init__(
        self,
        worker_id: str,
        role: str,
        sink: TelemetrySink,
        interval: float = 10.0,
        envelope_fn: Callable[[], dict] | None = None,
        samplers: Mapping[str, Any] | None = None,
        metrics: MetricsRegistry | None = None,
        metric_prefixes: tuple[str, ...] = (),
        clock: Clock | None = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"telemetry interval must be positive, got {interval}")
        self.worker_id = worker_id
        self.role = role
        self.interval = interval
        self._sink = sink
        self._envelope_fn = envelope_fn
        self._samplers = dict(samplers) if samplers else {}
        self._registry = metrics
        self._prefixes = metric_prefixes
        self._clock = clock if clock is not None else SystemClock()
        self._last_counters: dict[str, float] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.pushes = 0
        self.push_errors = 0

    def build_envelope(self) -> dict[str, Any]:
        envelope: dict[str, Any] = {
            "worker_id": self.worker_id,
            "role": self.role,
            "interval": self.interval,
            "time": self._clock.now(),
        }
        if self._envelope_fn is not None:
            envelope.update(self._envelope_fn())
        if self._samplers:
            summaries = {}
            for name, sampler in self._samplers.items():
                try:
                    summaries[name] = sampler.summary()
                except Exception:  # noqa: BLE001 - telemetry is best-effort
                    continue
            if summaries:
                envelope["samplers"] = summaries
        if self._registry is not None and self._prefixes:
            envelope.setdefault("metrics", {}).update(self._metric_deltas())
        return envelope

    def _metric_deltas(self) -> dict[str, float]:
        """Counter deltas (and gauge levels) since the previous push for
        metrics under the configured prefixes."""
        deltas: dict[str, float] = {}
        for name in self._registry.names():
            if not name.startswith(self._prefixes):
                continue
            metric = self._registry.get(name)
            if metric is None:
                continue
            snap = metric.snapshot()
            if snap["type"] == "counter":
                value = float(snap["value"])
                deltas[name] = value - self._last_counters.get(name, 0.0)
                self._last_counters[name] = value
            elif snap["type"] == "gauge":
                deltas[name] = float(snap["value"])
        return deltas

    def push_once(self) -> bool:
        """Build and push one envelope; True when the sink accepted it."""
        envelope = self.build_envelope()
        try:
            self._sink(envelope)
        except Exception as exc:  # noqa: BLE001 - must never kill the worker
            self.push_errors += 1
            log_event(
                _log, "fleet.push_error", level=30,
                worker=self.worker_id, error=str(exc),
            )
            return False
        self.pushes += 1
        return True

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.push_once()
        # Parting beat so the registry sees final counters before the
        # worker disappears (best-effort, like every push).
        self.push_once()

    def start(self) -> "TelemetryPusher":
        if self._thread is not None and self._thread.is_alive():
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name=f"{self.worker_id}-telemetry", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5)
            self._thread = None

    def is_alive(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    def __enter__(self) -> "TelemetryPusher":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
