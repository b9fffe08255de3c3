"""Deterministic cross-backend conformance harness for the EMEWS DB.

One shared, seeded operation schedule is executed against every store
access path — :class:`~repro.db.sqlite_backend.SqliteTaskStore`
embedded, and :class:`~repro.core.service_client.RemoteTaskStore`
through a live :class:`~repro.core.service.TaskService` over the same
engine — and every observable result
is checked, operation by operation, against a reference model of the
store contract, then across paths byte-for-byte.

Three layers (DESIGN §13):

- :mod:`.schedule` — the schedule engine: a seeded PRNG interleaves
  logical concurrent actors (submitters, pools popping / renewing /
  reporting, a lease reaper, a reprioritizer, a canceller, a collector)
  over an injected :class:`~repro.util.clock.VirtualClock`, so any
  failure replays exactly from its seed.
- :mod:`.invariants` — checkers over the PR-5 journal plus final store
  state: exactly-once report, lifecycle legality (no pop/renew/requeue
  after a terminal event), lease monotonicity, and identical observable
  histories and journal traces across access paths.
- :mod:`.runner` — path construction and orchestration behind
  ``python -m repro conform --seeds N`` and the pytest suite.
"""

from repro.testing.conformance.invariants import (
    check_history_equivalence,
    check_journal_equivalence,
    check_journal_invariants,
)
from repro.testing.conformance.model import ModelStore
from repro.testing.conformance.runner import (
    ACCESS_PATHS,
    ConformanceReport,
    SeedResult,
    run_conformance,
    run_seed,
)
from repro.testing.conformance.schedule import (
    ConformanceViolation,
    ScheduleConfig,
    ScheduleEngine,
)

__all__ = [
    "ACCESS_PATHS",
    "ConformanceReport",
    "ConformanceViolation",
    "ModelStore",
    "ScheduleConfig",
    "ScheduleEngine",
    "SeedResult",
    "check_history_equivalence",
    "check_journal_equivalence",
    "check_journal_invariants",
    "run_conformance",
    "run_seed",
]
