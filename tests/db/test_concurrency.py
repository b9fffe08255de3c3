"""Concurrency tests: multiple pools popping one queue never share a task.

This is the safety property that makes the paper's multi-pool
architecture sound — Fig 4's three worker pools drain one output queue
"equitably" only because the pop path is atomic.
"""

from __future__ import annotations

import threading

import pytest

from repro.db import SqliteTaskStore


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_concurrent_pop_no_duplicates(backend, db_path):
    store = SqliteTaskStore(db_path(backend))
    n_tasks = 600
    store.create_tasks("e", 0, [f"p{i}" for i in range(n_tasks)])
    popped: list[int] = []
    lock = threading.Lock()

    def pool(name: str):
        local: list[int] = []
        while True:
            got = store.pop_out(0, 7, worker_pool=name)
            if not got:
                break
            local.extend(tid for tid, _ in got)
        with lock:
            popped.extend(local)

    threads = [threading.Thread(target=pool, args=(f"pool-{i}",)) for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert len(popped) == n_tasks
    assert len(set(popped)) == n_tasks
    store.close()


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_concurrent_submit_and_pop(backend, db_path):
    store = SqliteTaskStore(db_path(backend))
    n_producers, per_producer = 4, 100
    total = n_producers * per_producer
    done = threading.Event()
    popped: list[int] = []
    lock = threading.Lock()

    def producer(k: int):
        for i in range(per_producer):
            store.create_tasks(f"exp-{k}", 0, [f"p-{k}-{i}"])

    def consumer():
        while True:
            got = store.pop_out(0, 5)
            if got:
                with lock:
                    popped.extend(tid for tid, _ in got)
                    if len(popped) >= total:
                        done.set()
            elif done.is_set():
                break

    producers = [threading.Thread(target=producer, args=(k,)) for k in range(n_producers)]
    consumers = [threading.Thread(target=consumer) for _ in range(3)]
    for t in consumers + producers:
        t.start()
    for t in producers:
        t.join()
    # Producers finished; consumers drain the rest then observe `done`.
    for t in consumers:
        t.join(timeout=30)

    assert len(popped) == total
    assert len(set(popped)) == total
    store.close()


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_concurrent_report_and_pop_in(backend, db_path):
    store = SqliteTaskStore(db_path(backend))
    ids = store.create_tasks("e", 0, ["p"] * 200)
    store.pop_out(0, 200)

    def reporter(chunk):
        for tid in chunk:
            store.report_batch([(tid, 0, f"r{tid}")])

    threads = [
        threading.Thread(target=reporter, args=(ids[i::4],)) for i in range(4)
    ]
    for t in threads:
        t.start()

    collected: dict[int, str] = {}
    while len(collected) < 200:
        for tid, result in store.pop_in_any(ids):
            assert tid not in collected
            collected[tid] = result
    for t in threads:
        t.join()

    assert collected == {tid: f"r{tid}" for tid in ids}
    store.close()
