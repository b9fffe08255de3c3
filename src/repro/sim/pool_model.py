"""DES worker pool.

Runs the same queueing code as the threaded pool — non-blocking
``EQSQL.query_task_batch`` with the §IV-D batch/threshold policy — as a
simt process.  Each DB round trip costs ``query_cost`` virtual seconds,
which is the mechanism behind Fig 3's middle panel: with batch ==
workers and threshold 1, every completion forces a fetch round trip
during which other workers may go idle.

Workers are a :class:`repro.simt.Resource` of ``n_workers`` slots; task
execution occupies a slot for the task's modelled runtime, then the
result is reported through the real EQSQL API (stamping virtual-time
start/stop into the EMEWS DB, from which the telemetry series are
derived).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.core.constants import EQ_ABORT, EQ_STOP
from repro.core.eqsql import EQSQL
from repro.core.fetch import FetchPolicy
from repro.simt.environment import Environment
from repro.simt.resources import Resource
from repro.telemetry.journal import (
    EV_FETCH,
    EV_RUN_END,
    EV_RUN_START,
    ROLE_POOL,
    Journal,
    get_journal,
)
from repro.telemetry.tracing import SpanContext, get_tracer

#: Maps (eq_task_id, payload) to the task's execution time.
RuntimeFn = Callable[[int, str], float]


@dataclass
class SimPoolConfig:
    """DES pool parameters (mirrors :class:`repro.pools.PoolConfig`)."""

    name: str
    work_type: int = 0
    n_workers: int = 33
    batch_size: int | None = None
    threshold: int = 1
    #: Virtual cost of one DB batch query (claim round trip).
    query_cost: float = 0.2
    #: Idle re-check period when the policy says not to fetch.
    poll_delay: float = 0.5

    def __post_init__(self) -> None:
        if self.batch_size is None:
            self.batch_size = self.n_workers
        FetchPolicy(self.batch_size, self.threshold)  # validate


class SimWorkerPool:
    """A worker pool as a discrete-event process."""

    def __init__(
        self,
        env: Environment,
        eqsql: EQSQL,
        config: SimPoolConfig,
        runtime_fn: RuntimeFn,
        journal: Journal | None = None,
    ) -> None:
        self.env = env
        self.eqsql = eqsql
        self.config = config
        self._runtime_fn = runtime_fn
        self._journal = journal if journal is not None else get_journal()
        self._policy = FetchPolicy(config.batch_size or config.n_workers, config.threshold)
        self._workers = Resource(env, config.n_workers)
        self._owned = 0
        self._stopping = False
        self._draining = False
        self.tasks_completed = 0
        self.fetches = 0  # non-empty batch queries
        self.started_at: float | None = None
        self.process: Any = None

    @property
    def name(self) -> str:
        return self.config.name

    def owned(self) -> int:
        return self._owned

    def start(self) -> "SimWorkerPool":
        """Launch the fetch loop process at the current virtual time."""
        if self.process is not None:
            raise RuntimeError("pool already started")
        self.started_at = self.env.now
        self.process = self.env.process(self._fetch_loop())
        return self

    def stop(self) -> None:
        """Stop fetching; owned tasks drain (local EQ_STOP)."""
        self._stopping = True

    # -- processes -----------------------------------------------------------

    def _fetch_loop(self):
        config = self.config
        while True:
            if self._stopping:
                if self._owned == 0:
                    break
                yield self.env.timeout(config.poll_delay)
                continue
            want = self._policy.to_fetch(self._owned)
            if want == 0:
                yield self.env.timeout(config.poll_delay)
                continue
            # The claim round trip costs virtual time; completions that
            # land during it increase the next deficit.
            fetch_t0 = self.env.now
            yield self.env.timeout(config.query_cost)
            messages = self.eqsql.query_task_batch(
                config.work_type,
                batch_size=config.batch_size or config.n_workers,
                threshold=config.threshold,
                owned=self._owned,
                worker_pool=config.name,
                timeout=0,
            )
            if not messages:
                yield self.env.timeout(config.poll_delay)
                continue
            # Retroactive only: DES processes interleave on one thread,
            # so implicit (stack-based) spans would cross-nest.  The
            # tracer must share the simulation clock for this to align.
            get_tracer().add_span(
                "pool.fetch",
                "sim_pool",
                fetch_t0,
                self.env.now,
                attrs={"pool": self.name, "n": len(messages)},
            )
            self.fetches += 1
            for message in messages:
                self._emit(EV_FETCH, message["eq_task_id"])
                if message["payload"] in (EQ_STOP, EQ_ABORT):
                    self.eqsql.report_task(
                        message["eq_task_id"], config.work_type, message["payload"]
                    )
                    self._stopping = True
                    continue
                self._owned += 1
                self.env.process(self._execute(message))

    def _emit(self, event: str, eq_task_id: int) -> None:
        """Journal one pool-role hop at the current virtual time."""
        journal = self._journal
        if journal.enabled:
            journal.emit(
                event,
                eq_task_id,
                role=ROLE_POOL,
                work_type=self.config.work_type,
                source=self.name,
                time=self.env.now,
            )

    def _execute(self, message: dict):
        eq_task_id = message["eq_task_id"]
        request = self._workers.request()
        yield request
        started_at = self.env.now
        self._emit(EV_RUN_START, eq_task_id)
        runtime = self._runtime_fn(eq_task_id, message["payload"])
        yield self.env.timeout(runtime)
        # Result payload: the scenario's runtime_fn owns the mapping to
        # objective values; the pool reports a reference result.
        self.eqsql.report_task(eq_task_id, self.config.work_type, message["payload"])
        self._emit(EV_RUN_END, eq_task_id)
        get_tracer().add_span(
            "pool.task",
            "sim_pool",
            started_at,
            self.env.now,
            parent=SpanContext.from_wire(message.get("trace")),
            attrs={"pool": self.name, "eq_task_id": eq_task_id},
        )
        self._workers.release()
        self._owned -= 1
        self.tasks_completed += 1
