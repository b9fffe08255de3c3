"""Property tests over the futures API (hypothesis).

The futures layer is a view over the DB; these properties pin down that
nothing is lost or duplicated through it under arbitrary priorities,
completion orders, and batch sizes.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core import EQSQL, ResultStatus, as_completed, update_priority
from repro.db import SqliteTaskStore


@settings(max_examples=40, deadline=None)
@given(
    priorities=st.lists(st.integers(-50, 50), min_size=1, max_size=25),
    batch=st.integers(min_value=1, max_value=25),
)
def test_every_future_yields_exactly_once(priorities, batch):
    eq = EQSQL(SqliteTaskStore())
    futures = eq.submit_tasks("e", 0, ["p"] * len(priorities), priority=priorities)
    # Execute everything inline.
    while True:
        message = eq.query_task(0, timeout=0)
        if message["type"] == "status":
            break
        eq.report_task(message["eq_task_id"], 0, f"r{message['eq_task_id']}")
    # Collect in batches of `batch`; every future exactly once.
    remaining = list(futures)
    seen: list[int] = []
    while remaining:
        got = list(as_completed(remaining, pop=True, n=batch, timeout=1))
        assert got, "as_completed starved despite completed results"
        seen.extend(f.eq_task_id for f in got)
    assert sorted(seen) == sorted(f.eq_task_id for f in futures)
    assert len(set(seen)) == len(seen)
    eq.close()


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=20),
    new_priorities=st.lists(st.integers(-100, 100), min_size=20, max_size=20),
)
def test_pool_pop_order_follows_future_priorities(n, new_priorities):
    eq = EQSQL(SqliteTaskStore())
    futures = eq.submit_tasks("e", 0, ["p"] * n)
    update_priority(futures, new_priorities[:n])
    popped = [
        m["eq_task_id"] for m in (eq.query_task(0, n=n, timeout=0) if n > 1 else [eq.query_task(0, timeout=0)])
    ]
    expected = sorted(
        (f.eq_task_id for f in futures),
        key=lambda tid: (-new_priorities[:n][tid - futures[0].eq_task_id], tid),
    )
    assert popped == expected
    eq.close()


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=15),
    cancel_mask=st.lists(st.booleans(), min_size=15, max_size=15),
)
def test_cancelled_futures_never_complete(n, cancel_mask):
    eq = EQSQL(SqliteTaskStore())
    futures = eq.submit_tasks("e", 0, ["p"] * n)
    for future, cancel in zip(futures, cancel_mask):
        if cancel:
            future.cancel()
    survivors = [f for f in futures if not f.cancelled]
    # Run the survivors.
    while True:
        message = eq.query_task(0, timeout=0)
        if message["type"] == "status":
            break
        eq.report_task(message["eq_task_id"], 0, "r")
    done = list(as_completed(futures, timeout=1))
    assert {f.eq_task_id for f in done} == {f.eq_task_id for f in survivors}
    for future in futures:
        if future.cancelled:
            assert future.result(timeout=0) == (ResultStatus.FAILURE, "TIMEOUT")
    eq.close()
