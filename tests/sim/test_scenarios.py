"""Tests for the Figure 3 / Figure 4 scenario models (reduced scale)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim import Fig3Config, Fig4Config, run_fig3_panel, run_fig4
from repro.sim.scenarios import complete_records
from repro.sim.workload import RuntimeModel
from repro.telemetry import Journal, concurrency_series

FAST_RUNTIME = RuntimeModel(mean=10.0, sigma=0.4)


def small_fig3(batch, threshold, **kw):
    return Fig3Config(
        batch_size=batch,
        threshold=threshold,
        n_workers=10,
        n_tasks=150,
        runtime=FAST_RUNTIME,
        **kw,
    )


def small_fig4(**kw):
    defaults = dict(
        n_tasks=200,
        n_workers=10,
        batch_size=10,
        repri_every=25,
        pool_submissions=(1, 2),
        queue_delay_mean=8.0,
        runtime=FAST_RUNTIME,
    )
    defaults.update(kw)
    return Fig4Config(**defaults)


class TestFig3:
    def test_panel_completes_all_tasks(self):
        result = run_fig3_panel(small_fig3(10, 1))
        assert result.series.counts.max() <= 10
        assert result.makespan > 0
        # ~150 tasks * 10s / 10 workers ≈ 150s.
        assert 140 < result.makespan < 220

    def test_utilization_ordering_matches_paper(self):
        """Fig 3's qualitative claim: oversubscribed >= exact > big threshold."""
        over = run_fig3_panel(small_fig3(15, 1))
        exact = run_fig3_panel(small_fig3(10, 1))
        loose = run_fig3_panel(small_fig3(10, 8))
        assert over.stats["utilization"] >= exact.stats["utilization"] - 1e-6
        assert exact.stats["utilization"] > loose.stats["utilization"]

    def test_big_threshold_sawtooth(self):
        loose = run_fig3_panel(small_fig3(10, 8))
        exact = run_fig3_panel(small_fig3(10, 1))
        # Saw-tooth: far less time at full concurrency, fewer fetches.
        assert loose.stats["full_fraction"] < exact.stats["full_fraction"]
        assert loose.n_fetches < exact.n_fetches / 2

    def test_deterministic(self):
        a = run_fig3_panel(small_fig3(10, 1))
        b = run_fig3_panel(small_fig3(10, 1))
        assert a.makespan == b.makespan
        assert np.array_equal(a.series.counts, b.series.counts)

    def test_seed_changes_trace(self):
        a = run_fig3_panel(small_fig3(10, 1, seed=1))
        b = run_fig3_panel(small_fig3(10, 1, seed=2))
        assert a.makespan != b.makespan


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig4(small_fig4())

    def test_all_tasks_completed_across_pools(self, result):
        assert sum(result.pool_completed.values()) == 200
        assert result.pool_names == ["pool-1", "pool-2", "pool-3"]

    def test_every_pool_does_work(self, result):
        """The paper's equitable sharing: no pool starves."""
        assert all(count > 0 for count in result.pool_completed.values())
        # Later pools do progressively less (they join later).
        assert (
            result.pool_completed["pool-1"]
            > result.pool_completed["pool-2"]
            > result.pool_completed["pool-3"]
        )

    def test_pools_start_after_scheduler_delay(self, result):
        """Fig 4's observation: pools do not start when submitted."""
        for name in ("pool-2", "pool-3"):
            submit, start = result.pool_timing[name]
            assert start > submit
        assert result.pool_timing["pool-2"][1] < result.pool_timing["pool-3"][1]

    def test_reprioritization_cadence_speeds_up(self, result):
        """More pools -> 50 completions arrive faster -> shorter gaps."""
        gaps = result.repri_gaps()
        assert len(gaps) >= 4
        assert np.mean(gaps[-2:]) < np.mean(gaps[:2])

    def test_reprioritizations_cover_shrinking_sets(self, result):
        """Paper: 700 reprioritized, then 650, then ... (shrinking)."""
        counts = [r.n_reprioritized for r in result.reprioritizations]
        assert all(c2 <= c1 for c1, c2 in zip(counts, counts[1:]))
        priorities = result.reprioritizations[0].priorities
        # Priorities are the 1..n ranks of the paper.
        assert sorted(priorities) == list(range(1, len(priorities) + 1))

    def test_concurrency_bounded_per_pool(self, result):
        for name, series in result.pool_series.items():
            assert series.counts.max() <= 10

    def test_best_trajectory_monotone_and_improving(self, result):
        trajectory = result.best_trajectory()
        assert len(trajectory) == 200
        assert np.all(np.diff(trajectory) <= 1e-12)
        assert trajectory[-1] < trajectory[0]

    def test_deterministic(self):
        a = run_fig4(small_fig4())
        b = run_fig4(small_fig4())
        assert a.makespan == b.makespan
        assert a.pool_completed == b.pool_completed
        assert a.repri_start_times() == b.repri_start_times()


class TestGPREffect:
    def test_reprioritization_finds_good_values_sooner(self):
        """Ablation seed: with GPR reprioritization the good-value mass
        shifts earlier in the completion order vs. no reprioritization."""
        with_gpr = run_fig4(small_fig4())
        no_gpr = run_fig4(small_fig4(repri_every=10_000))  # never triggers
        assert len(no_gpr.reprioritizations) == 0
        assert len(with_gpr.reprioritizations) > 0

        def auc(result):
            # Mean best-so-far over completions: lower = faster progress.
            return float(np.mean(result.best_trajectory()))

        assert auc(with_gpr) < auc(no_gpr)

    def test_paper_scale_gpr_reaches_good_values_sooner(self):
        """The 750-task Figure 4 workflow with and without GPR: the
        reprioritized order surfaces good values earlier, over the same
        point set.  ``repro gpr-ablation`` prints this at 400 tasks,
        where the two means agree to the printed precision."""
        with_gpr = run_fig4(Fig4Config())
        no_gpr = run_fig4(Fig4Config(repri_every=10_000))  # never triggers
        assert len(no_gpr.reprioritizations) == 0
        assert len(with_gpr.reprioritizations) > 5
        traj_gpr = with_gpr.best_trajectory()
        traj_none = no_gpr.best_trajectory()
        assert np.mean(traj_gpr) < np.mean(traj_none)

        def completions_to_reach(trajectory, value):
            return int(np.nonzero(trajectory <= value)[0][0]) + 1

        # Within 10% of the best value: 109 vs 119 completions.
        target = float(np.min(traj_none)) * 1.10
        assert completions_to_reach(traj_gpr, target) <= completions_to_reach(
            traj_none, target
        )
        # Reprioritization changes the order, not the evaluated set.
        assert traj_gpr[-1] == traj_none[-1]


class TestLossyRingGuard:
    @staticmethod
    def run_tasks(journal, n_tasks):
        """All tasks start, then all end: peak concurrency n_tasks."""
        for event, time in (("run_start", 0.0), ("run_end", 1.0)):
            for task_id in range(n_tasks):
                journal.emit(event, task_id, role="pool", source="p", time=time)

    def test_overflowed_ring_raises_instead_of_going_negative(self):
        journal = Journal(capacity=8)
        self.run_tasks(journal, 6)  # 12 records: the first 4 are evicted
        # What the guard prevents: run_ends whose run_starts were evicted.
        assert concurrency_series(journal.records()).counts.min() < 0
        with pytest.raises(RuntimeError, match="dropped 4 records"):
            complete_records(journal)

    def test_complete_ring_passes_through(self):
        journal = Journal(capacity=12)
        self.run_tasks(journal, 6)
        series = concurrency_series(complete_records(journal))
        assert list(series.counts) == [6, 0]
