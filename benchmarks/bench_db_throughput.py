"""PERF-DB — EMEWS DB operation throughput.

Microbenchmarks for the task-queue hot paths (submit, priority pop,
report, batch reprioritize) on the SQLite store over ``:memory:`` — the
store the DES scenarios run on, and the engine a durable deployment
runs on a file.
"""

from __future__ import annotations

from repro.db import SqliteTaskStore

N = 500


def test_submit_throughput(benchmark):
    store = SqliteTaskStore()

    def submit_batch():
        store.create_tasks("exp", 0, ["{}"] * N)

    benchmark(submit_batch)
    store.close()


def test_pop_report_cycle(benchmark):
    store = SqliteTaskStore()

    def cycle():
        ids = store.create_tasks("exp", 0, ["{}"] * N)
        while True:
            popped = store.pop_out(0, 25)
            if not popped:
                break
            for tid, _payload in popped:
                store.report_batch([(tid, 0, "r")])
        store.pop_in_any(ids)

    benchmark(cycle)
    store.close()


def test_reprioritize_batch(benchmark):
    store = SqliteTaskStore()
    ids = store.create_tasks("exp", 0, ["{}"] * N)
    flip = [False]

    def reprioritize():
        # Alternate two rankings so every call changes every row.
        flip[0] = not flip[0]
        base = list(range(N)) if flip[0] else list(range(N, 0, -1))
        assert store.update_priorities(ids, base) == N

    benchmark(reprioritize)
    store.close()


def test_priority_pop_order_cost(benchmark):
    """Pop with 10k queued tasks at random priorities (index work)."""
    import random

    rng = random.Random(0)
    store = SqliteTaskStore()
    priorities = [rng.randrange(1000) for _ in range(10_000)]
    store.create_tasks("exp", 0, ["{}"] * 10_000, priority=priorities)

    def pop_some():
        got = store.pop_out(0, 50)
        # Requeue to keep the queue size stable across rounds.
        for tid, _ in got:
            store.report_batch([(tid, 0, "r")])
        refill = store.create_tasks(
            "exp", 0, ["{}"] * len(got), priority=[rng.randrange(1000) for _ in got]
        )
        return refill

    benchmark(pop_some)
    store.close()
