"""ABL-CANCEL — ablation: task cancellation in asynchronous BO.

§V-B lists cancellation among the asynchronous API's levers ("cancel
less promising evaluations").  This bench runs the full Fig 2 loop
(re-sample + reorder via the async BO driver) with and without EI-based
cancellation against a live worker pool and compares solution quality
and how much enqueued-but-hopeless work was shed.

The pool has one worker, so results land in claim order and a seed's
campaign does not depend on which of several running tasks finishes
first; each evaluation takes ``EVAL_SECONDS``, much longer than the
ME's model fit, so the ME's round finishes inside one evaluation.
"""

from __future__ import annotations

import time

import numpy as np
# The ME's first expected_improvement() imports scipy.stats, which takes
# longer than an evaluation; importing it here keeps seed 1's first round
# inside one evaluation like every other round.
import scipy.stats  # noqa: F401

from repro.core import EQSQL
from repro.db import SqliteTaskStore
from repro.me import BOConfig, ackley, run_async_bo
from repro.pools import PoolConfig, PythonTaskHandler, ThreadedWorkerPool
from repro.telemetry import render_table

WORK_TYPE = 0
#: What one evaluation costs.  Cancellation only reaches tasks still
#: queued, so the workload must keep a queue behind the workers: with an
#: instant objective the pool claims and runs every proposal before the
#: ME's next cancel step, and how many it cancels is a thread race.
EVAL_SECONDS = 0.02


def evaluate(payload: dict) -> dict:
    time.sleep(EVAL_SECONDS)
    return {"y": float(ackley(payload["x"]))}


def run_campaign(cancel_fraction: float, seed: int):
    eq = EQSQL(SqliteTaskStore())
    pool = ThreadedWorkerPool(
        eq,
        PythonTaskHandler(evaluate),
        PoolConfig(work_type=WORK_TYPE, n_workers=1),
    ).start()
    try:
        config = BOConfig(
            bounds=[(-10.0, 10.0)] * 2,
            n_initial=15,
            n_total=60,
            batch_completed=5,
            proposals_per_round=6,
            cancel_fraction=cancel_fraction,
            seed=seed,
        )
        return run_async_bo(eq, f"cancel-{cancel_fraction}", WORK_TYPE, config, timeout=120)
    finally:
        pool.stop()
        eq.close()


def test_cancellation_ablation(benchmark, report):
    def run_both():
        baseline = [run_campaign(0.0, seed) for seed in (1, 2, 3)]
        with_cancel = [run_campaign(0.3, seed) for seed in (1, 2, 3)]
        return baseline, with_cancel

    baseline, with_cancel = benchmark.pedantic(run_both, rounds=1, iterations=1)

    def summarize(results):
        # Counts are listed per seed: a mean truncated to int hides a
        # seed that canceled nothing (or two seeds that each canceled
        # one task) behind a single number.
        return (
            float(np.mean([r.best_y for r in results])),
            [r.n_canceled for r in results],
            [r.n_submitted for r in results],
        )

    base_best, base_cancel, base_sub = summarize(baseline)
    canc_best, canc_cancel, canc_sub = summarize(with_cancel)
    report(
        "ABL-CANCEL async BO with/without EI-based cancellation "
        "(2-D Ackley, 60 evaluations, seeds 1/2/3)\n"
        + render_table(
            ["variant", "mean best", "canceled per seed", "submitted per seed"],
            [
                ["no cancellation", base_best, base_cancel, base_sub],
                ["cancel_fraction=0.3", canc_best, canc_cancel, canc_sub],
            ],
        )
    )

    # Cancellation fires in every seed and the campaign still completes
    # its budget with comparable quality (within 2x of baseline).
    assert base_cancel == [0, 0, 0]
    assert all(n > 0 for n in canc_cancel)
    assert all(r.y.shape == (60,) for r in baseline + with_cancel)
    assert canc_best < 2 * max(base_best, 1.0)
