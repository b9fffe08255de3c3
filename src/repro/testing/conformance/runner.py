"""Conformance run orchestration: access paths, seeds, reporting.

One *seed run* executes the identical seeded schedule against each
access path in turn — a fresh store, model, virtual clock, and journal
per path — then audits each path's journal and compares histories and
journal traces across paths.  Paths:

- ``sqlite`` — :class:`~repro.db.sqlite_backend.SqliteTaskStore` on
  ``:memory:``;
- ``remote`` — :class:`~repro.core.service_client.RemoteTaskStore`
  speaking the wire protocol to a live in-process
  :class:`~repro.core.service.TaskService` wrapping the same kind of
  store, the pairing a deployment runs.  The backend gets the
  recording journal (so ROLE_DB traces compare across paths); the
  service itself gets a disabled journal, keeping service-hop records
  out of the cross-path comparison.

Each path uses a private metrics registry so conformance runs never
pollute the process-wide one.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field

from repro.db.backend import TaskStore
from repro.db.sqlite_backend import SqliteTaskStore
from repro.telemetry.journal import Journal
from repro.telemetry.metrics import MetricsRegistry
from repro.testing.conformance.invariants import (
    check_history_equivalence,
    check_journal_equivalence,
    check_journal_invariants,
    journal_trace,
)
from repro.testing.conformance.schedule import (
    ConformanceViolation,
    ScheduleConfig,
    ScheduleEngine,
)
from repro.util.clock import VirtualClock

ACCESS_PATHS: tuple[str, ...] = ("sqlite", "remote")


@contextmanager
def open_path(
    path: str, journal: Journal, cache_capacity: int = 512
) -> Iterator[TaskStore]:
    """Yield a fresh store for one access path; tears everything down.

    ``cache_capacity`` must match the schedule's
    :attr:`~.schedule.ScheduleConfig.cache_capacity` — LRU eviction
    order is part of the verified contract, so the store and the model
    have to overflow at the same point.
    """
    if path not in ACCESS_PATHS:
        raise ValueError(f"unknown access path: {path!r}")
    registry = MetricsRegistry()
    with ExitStack() as stack:
        backend = SqliteTaskStore(
            metrics=registry, journal=journal, cache_capacity=cache_capacity
        )
        stack.callback(backend.close)
        if path == "sqlite":
            yield backend
            return
        # Imported lazily: the sqlite path must not pay for the service
        # stack (sockets, threads) just to run.
        from repro.core.service import TaskService
        from repro.core.service_client import RemoteTaskStore

        service = TaskService(
            backend, metrics=registry, journal=Journal(enabled=False)
        ).start()
        stack.callback(service.stop)
        client = RemoteTaskStore(*service.address, metrics=registry)
        stack.callback(client.close)
        yield client


@dataclass
class SeedResult:
    """Outcome of one seed across all requested paths."""

    seed: int
    paths: tuple[str, ...]
    operations: int = 0
    tasks: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class ConformanceReport:
    """Aggregate outcome of a multi-seed conformance run."""

    results: list[SeedResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def failing_seeds(self) -> list[int]:
        return [r.seed for r in self.results if not r.ok]

    def summary(self) -> str:
        n = len(self.results)
        if self.ok:
            ops = sum(r.operations for r in self.results)
            tasks = sum(r.tasks for r in self.results)
            return (
                f"conformance OK: {n} seed(s), {ops} verified operations, "
                f"{tasks} tasks, 0 violations"
            )
        return (
            f"conformance FAILED: {len(self.failing_seeds)}/{n} seed(s) "
            f"violated invariants: {self.failing_seeds}"
        )


def run_seed(
    seed: int,
    *,
    paths: Sequence[str] = ACCESS_PATHS,
    config: ScheduleConfig | None = None,
) -> SeedResult:
    """Run one seed across ``paths``; never raises on violation."""
    config = config if config is not None else ScheduleConfig()
    result = SeedResult(seed=seed, paths=tuple(paths))
    histories: dict[str, list] = {}
    traces: dict[str, list] = {}
    for path in paths:
        clock = VirtualClock()
        journal = Journal(clock=clock, enabled=True, capacity=1 << 17)
        with open_path(path, journal, config.cache_capacity) as store:
            engine = ScheduleEngine(store, seed, config=config, clock=clock)
            try:
                histories[path] = engine.run()
            except ConformanceViolation as violation:
                result.violations.append(f"[{path}] {violation}")
                histories[path] = engine.history
            result.operations += len(engine.history)
            result.tasks = max(result.tasks, len(engine.model.tasks))
        records = journal.records()
        result.violations.extend(
            f"[{path}] journal: {v}"
            for v in check_journal_invariants(records, lease=config.lease)
        )
        traces[path] = journal_trace(records)
    result.violations.extend(
        f"[cross-path] {v}" for v in check_history_equivalence(histories)
    )
    result.violations.extend(
        f"[cross-path] {v}" for v in check_journal_equivalence(traces)
    )
    return result


def run_conformance(
    seeds: Iterable[int],
    *,
    paths: Sequence[str] = ACCESS_PATHS,
    config: ScheduleConfig | None = None,
    on_result=None,
) -> ConformanceReport:
    """Run many seeds; ``on_result`` (if given) sees each SeedResult."""
    report = ConformanceReport()
    for seed in seeds:
        result = run_seed(seed, paths=paths, config=config)
        report.results.append(result)
        if on_result is not None:
            on_result(result)
    return report
