"""Property-based tests of queue invariants (hypothesis).

The central invariant from §IV-C: the output queue pops in
(priority DESC, task id ASC) order no matter what interleaving of
submissions and reprioritizations produced it; and every task is popped
at most once.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.db import SqliteTaskStore
from repro.db.schema import TaskStatus

priorities_lists = st.lists(
    st.integers(min_value=-100, max_value=100), min_size=1, max_size=40
)


@st.composite
def submissions_and_updates(draw):
    """Initial priorities plus a set of (index, new_priority) updates."""
    priorities = draw(priorities_lists)
    n_updates = draw(st.integers(min_value=0, max_value=10))
    updates = [
        (
            draw(st.integers(min_value=0, max_value=len(priorities) - 1)),
            draw(st.integers(min_value=-100, max_value=100)),
        )
        for _ in range(n_updates)
    ]
    return priorities, updates


@settings(max_examples=60, deadline=None)
@given(data=submissions_and_updates())
def test_pop_order_matches_final_priorities(data):
    priorities, updates = data
    store = SqliteTaskStore()
    try:
        ids = store.create_tasks("e", 0, ["p"] * len(priorities), priority=priorities)
        final = dict(zip(ids, priorities))
        for idx, new_priority in updates:
            store.update_priorities([ids[idx]], new_priority)
            final[ids[idx]] = new_priority
        popped = [tid for tid, _ in store.pop_out(0, len(ids) + 5)]
        # Every task popped exactly once.
        assert sorted(popped) == sorted(ids)
        # Pop order equals (priority DESC, id ASC) on final priorities.
        expected = sorted(ids, key=lambda t: (-final[t], t))
        assert popped == expected
    finally:
        store.close()


@settings(max_examples=40, deadline=None)
@given(
    priorities=priorities_lists,
    cancel_mask=st.lists(st.booleans(), min_size=1, max_size=40),
)
def test_cancel_removes_exactly_the_canceled(priorities, cancel_mask):
    store = SqliteTaskStore()
    try:
        ids = store.create_tasks("e", 0, ["p"] * len(priorities), priority=priorities)
        to_cancel = [t for t, c in zip(ids, cancel_mask) if c]
        assert store.cancel_tasks(to_cancel) == len(to_cancel)
        popped = {tid for tid, _ in store.pop_out(0, len(ids))}
        assert popped == set(ids) - set(to_cancel)
        for tid in to_cancel:
            assert store.get_task(tid).eq_status == TaskStatus.CANCELED
    finally:
        store.close()


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=30),
    report_order=st.permutations(range(30)),
)
def test_input_queue_delivers_every_result_once(n, report_order):
    store = SqliteTaskStore()
    try:
        ids = store.create_tasks("e", 0, [f"p{i}" for i in range(n)])
        store.pop_out(0, n)
        order = [i for i in report_order if i < n]
        for i in order:
            store.report_batch([(ids[i], 0, f"r{i}")])
        got = dict(store.pop_in_any(ids))
        assert got == {ids[i]: f"r{i}" for i in range(n)}
        assert store.pop_in_any(ids) == []
    finally:
        store.close()
