"""The cross-path conformance harness, plus the regressions it proved.

The fuzzer tests run the real seeded schedules (shorter than the CLI
defaults, fixed seeds, so CI time stays bounded); the regression tests
pin the specific semantic bugs this harness surfaced — requeue priority
demotion and duplicate-id lease renewal — as plain, readable examples.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.db import SqliteTaskStore
from repro.testing import FlakyTaskStore
from repro.testing.conformance import (
    ModelStore,
    ScheduleConfig,
    ScheduleEngine,
    check_journal_invariants,
    run_seed,
)
from repro.testing.conformance.runner import open_path
from repro.telemetry.journal import EV_REPORT, ROLE_DB, Journal
from repro.util.clock import VirtualClock

#: A remote seed run spins up a live TaskService; keep the pytest seed
#: set small (CI runs the full 25-seed sweep via the CLI job).
LOCAL_SEEDS = (0, 7, 13, 42)
REMOTE_SEEDS = (13, 42)


@pytest.mark.parametrize("seed", LOCAL_SEEDS)
def test_memory_sqlite_conformance(seed):
    """The embedded path: SQLite over ``:memory:`` against the model."""
    result = run_seed(seed, paths=("sqlite",))
    assert result.ok, "\n".join(result.violations)
    assert result.operations > 0


@pytest.mark.parametrize("seed", REMOTE_SEEDS)
def test_all_paths_conformance(seed):
    result = run_seed(
        seed, config=ScheduleConfig(steps=100)
    )
    assert result.paths == ("sqlite", "remote")
    assert result.ok, "\n".join(result.violations)


def test_violation_replays_from_seed():
    """The same seed produces the same schedule, byte for byte."""
    first = run_seed(3, paths=("sqlite",))
    second = run_seed(3, paths=("sqlite",))
    assert first.ok and second.ok
    assert first.operations == second.operations


def test_engine_detects_seeded_divergence():
    """A store that lies about pop order is caught immediately."""

    class LyingStore(SqliteTaskStore):
        def pop_out(self, eq_type, n=1, **kwargs):
            popped = super().pop_out(eq_type, n, **kwargs)
            return list(reversed(popped))

    from repro.testing.conformance import ConformanceViolation

    engine = ScheduleEngine(LyingStore(), seed=0)
    with pytest.raises(ConformanceViolation) as excinfo:
        engine.run()
    assert excinfo.value.seed == 0
    assert "pop" in excinfo.value.op


def test_journal_invariant_checker_flags_double_report():
    journal = Journal(clock=VirtualClock(), enabled=True)
    from repro.telemetry.journal import EV_ENQUEUE, EV_POP

    journal.emit(EV_ENQUEUE, 1, role=ROLE_DB, time=0.0)
    journal.emit(EV_POP, 1, role=ROLE_DB, time=1.0)
    journal.emit(EV_REPORT, 1, role=ROLE_DB, time=2.0)
    journal.emit(EV_REPORT, 1, role=ROLE_DB, time=3.0)
    violations = check_journal_invariants(journal.records())
    assert any("exactly-once" in v or "after terminal" in v for v in violations)


def test_model_matches_contract_docs():
    """Sanity: the reference model's own pop order is the documented one."""
    model = ModelStore()
    model.create_tasks(0, ["a", "b", "c"], [1, 5, 5])
    ids = [tid for tid, _ in model.pop_out(
        0, 3, worker_pool="p", now=0.0, lease=None
    )]
    assert ids == [2, 3, 1]  # priority DESC, id ASC


# -- regressions the fuzzer surfaced ------------------------------------


@contextlib.contextmanager
def _open(path, db_path, journal=None):
    """A quiet store on one path: ``memory`` and ``sqlite`` embed the
    engine over ``:memory:`` and over a database file, ``remote`` is the
    runner's service path, and ``flaky`` a fault-injection wrapper whose
    derived delegations must not restate (and so drift from) the
    contract's defaults."""
    journal = journal if journal is not None else Journal(enabled=False)
    if path == "remote":
        with open_path(path, journal) as store:
            yield store
        return
    store = SqliteTaskStore(db_path(path), journal=journal)
    try:
        yield FlakyTaskStore(store, failure_rate=0.0) if path == "flaky" else store
    finally:
        store.close()


@pytest.mark.parametrize("path", ["memory", "sqlite", "remote", "flaky"])
def test_requeue_restores_priority_over_queued_zeros(path, db_path):
    """A lease-expired priority-10 task requeues AHEAD of priority-0 tasks.

    The original bug: requeue_expired defaulted to priority=0, silently
    demoting exactly the tasks the ME had promoted (ISSUE 7).
    """
    with _open(path, db_path) as store:
        low = store.create_tasks(
            "exp", 0, ["low-1", "low-2"], priority=0, time_created=0.0
        )
        [hot] = store.create_tasks(
            "exp", 0, ["hot"], priority=10, time_created=0.0
        )
        popped = store.pop_out(0, 1, worker_pool="doomed", now=1.0, lease=5.0)
        assert [tid for tid, _ in popped] == [hot]
        # The pool dies; the lease lapses; the reaper sweeps.
        requeued = store.requeue_expired(now=10.0)
        assert requeued == [hot]
        # The recovered task must still outrank the queued priority-0 set.
        popped = store.pop_out(0, 3, worker_pool="live", now=11.0)
        assert [tid for tid, _ in popped] == [hot, *low]
        assert store.get_task(hot).eq_priority == 10
        # The single-task form restores the sticky priority too.
        assert store.requeue(hot) is True
        assert store.get_priorities([hot]) == [(hot, 10)]


def test_requeue_explicit_priority_still_wins(store):
    [tid] = store.create_tasks("exp", 0, ["t"], priority=10, time_created=0.0)
    store.pop_out(0, 1, worker_pool="p", now=1.0, lease=5.0)
    assert store.requeue_expired(now=10.0, priority=2) == [tid]
    assert store.get_priorities([tid]) == [(tid, 2)]
    # The explicit value becomes the new sticky priority.
    assert store.get_task(tid).eq_priority == 2


def test_requeue_restores_updated_priority(store):
    """update_priorities refreshes the sticky value requeue restores."""
    [tid] = store.create_tasks("exp", 0, ["t"], priority=1, time_created=0.0)
    assert store.update_priorities([tid], 7) == 1
    store.pop_out(0, 1, worker_pool="p", now=1.0, lease=5.0)
    assert store.requeue_expired(now=10.0) == [tid]
    assert store.get_priorities([tid]) == [(tid, 7)]


def test_renew_duplicate_ids_count_once(store):
    """Found by the fuzzer: a pool that re-popped its own requeued task
    holds the id twice; renewing must count one lease, not two."""
    [tid] = store.create_tasks("exp", 0, ["t"], priority=0, time_created=0.0)
    store.pop_out(0, 1, worker_pool="p", now=0.0, lease=5.0)
    assert store.renew_leases([tid, tid, tid], now=1.0, lease=5.0) == 1


@pytest.mark.parametrize("path", ["memory", "sqlite"])
def test_report_batch_journal_names_the_reporting_pool(path, db_path):
    """Found once the pool actor drove report_batch: sqlite's batch path
    journaled its report records unsourced, the other engine's (and
    both single report paths) with the pool that held the task."""
    journal = Journal(clock=VirtualClock())
    with _open(path, db_path, journal) as store:
        ids = store.create_tasks("exp", 0, ["a", "b"], time_created=0.0)
        store.pop_out(0, 2, worker_pool="pool-7", now=1.0)
        store.report_batch([(tid, 0, "r") for tid in ids], now=2.0)
    reports = [r for r in journal.records() if r.event == EV_REPORT]
    assert [(r.task_id, r.role, r.source) for r in reports] == [
        (tid, ROLE_DB, "pool-7") for tid in ids
    ]


def test_every_op_is_driven_by_an_actor_or_exempt():
    """A new RPC cannot ship unverified: it is either called by some
    fuzzer actor or listed, with its reason, in UNDRIVEN_OPS."""
    from repro.core.ops import OPS
    from repro.testing.conformance.schedule import UNDRIVEN_OPS

    class CallLog:
        def __init__(self, inner):
            self.inner, self.called = inner, set()

        def __getattr__(self, name):
            self.called.add(name)
            return getattr(self.inner, name)

    config = ScheduleConfig()
    driven: set[str] = set()
    for seed in LOCAL_SEEDS:
        with open_path(
            "sqlite", Journal(enabled=False), config.cache_capacity
        ) as store:
            log = CallLog(store)
            ScheduleEngine(log, seed, config).run()
            driven |= log.called & set(OPS)
    assert "report_batch" in driven  # about to become the default report path
    assert driven.isdisjoint(UNDRIVEN_OPS)
    assert driven | set(UNDRIVEN_OPS) == set(OPS)
    assert all(reason.strip() for reason in UNDRIVEN_OPS.values())


@pytest.mark.parametrize("path", ["memory", "sqlite", "remote"])
def test_pop_order_parity_after_update_priorities(path, db_path):
    """Priority tie-break (eq_priority DESC, eq_task_id ASC) holds on
    every access path after a reprioritization shuffles the queue."""
    with _open(path, db_path) as store:
        ids = store.create_tasks(
            "exp", 0, [f"t{i}" for i in range(6)],
            priority=[3, 1, 4, 1, 5, 9], time_created=0.0,
        )
        # Promote two mid-queue tasks into a tie with the leader.
        assert store.update_priorities([ids[1], ids[3]], 9) == 2
        popped = [tid for tid, _ in store.pop_out(0, 6, worker_pool="p", now=1.0)]
        # Ties at 9: ids[1] < ids[3] < ids[5]; then 5, 4, 3.
        assert popped == [ids[1], ids[3], ids[5], ids[4], ids[2], ids[0]]


@pytest.mark.parametrize("path", ["memory", "sqlite", "remote"])
def test_pop_in_any_order_parity(path, db_path):
    """pop_in_any returns caller id order and respects limit identically
    over ``:memory:``, over a file, and on the remote service path."""
    with _open(path, db_path) as store:
        ids = store.create_tasks(
            "exp", 0, ["a", "b", "c", "d"], priority=0, time_created=0.0
        )
        store.pop_out(0, 4, worker_pool="p", now=0.0)
        for tid in ids:
            store.report_batch([(tid, 0, f"r{tid}")], now=1.0)
        probe = [ids[2], ids[0], ids[3], ids[1]]
        first = store.pop_in_any(probe, limit=2)
        assert first == [(ids[2], f"r{ids[2]}"), (ids[0], f"r{ids[0]}")]
        rest = store.pop_in_any(probe)
        assert rest == [(ids[3], f"r{ids[3]}"), (ids[1], f"r{ids[1]}")]
        assert store.pop_in_any(probe) == []
