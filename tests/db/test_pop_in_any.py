"""``pop_in_any`` on SQLite: one statement for any watch list, an atomic claim.

The ME re-sends its whole watch list on every collect wake, so the
SQLite implementation binds the list as one JSON array (statement text
independent of its length), peeks without a transaction, and claims
under the write lock.  These tests pin what that must not change —
caller order, ``limit``, the same answers over ``:memory:`` and over a
file, exactly-once across handles — and what it must achieve.
"""

from __future__ import annotations

import random
import re
import threading
import time

import pytest

from repro.db import SqliteTaskStore


def fill(store, n_mine: int, seed: int) -> tuple[list[int], set[int]]:
    """``n_mine`` watched tasks interleaved one-to-one with foreign
    ones (another ME's), all popped; a seeded half of the watched tasks
    and every foreign task reported.  Returns the watch list in a
    shuffled caller order and the set of watched ids that are ready."""
    ids = store.create_tasks("exp", 0, ["{}"] * (2 * n_mine))
    store.pop_out(0, len(ids))
    mine, foreign = ids[0::2], ids[1::2]
    rng = random.Random(seed)
    ready = set(rng.sample(mine, (n_mine + 1) // 2))
    store.report_batch([(t, 0, f"r{t}") for t in ids if t in ready or t in foreign])
    rng.shuffle(mine)
    return mine, ready


@pytest.mark.parametrize("n_watch", [1, 999, 1000, 5000])
@pytest.mark.parametrize("limit", [None, 1, 7])
def test_memory_sqlite_parity_on_order_and_limit(n_watch, limit, db_path):
    """A ``:memory:`` database and a database file both answer with the
    ready watched ids in caller order, cut at ``limit``."""
    stores = [SqliteTaskStore(db_path("memory")), SqliteTaskStore(db_path("sqlite"))]
    try:
        for store in stores:
            watch, ready = fill(store, n_watch, seed=n_watch)
            expected = [(t, f"r{t}") for t in watch if t in ready][:limit]
            assert store.pop_in_any(watch, limit) == expected
            # Drain: the leftovers in caller order, and nothing twice.
            rest = [(t, f"r{t}") for t in watch if t in ready][len(expected):]
            assert store.pop_in_any(watch) == rest
            assert store.pop_in_any(watch) == []
            # Foreign results were never touched.
            assert store.queue_in_length() == n_watch
    finally:
        for store in stores:
            store.close()


def test_repeated_id_in_watch_list_pops_once(store):
    (tid,) = store.create_tasks("exp", 0, ["{}"])
    store.pop_out(0, 1)
    store.report_batch([(tid, 0, "r")])
    assert store.pop_in_any([tid, tid, tid], limit=2) == [(tid, "r")]


def test_two_handles_on_one_file_never_both_receive_a_result(tmp_path):
    path = str(tmp_path / "emews.db")
    n = 300
    a, b = SqliteTaskStore(path), SqliteTaskStore(path)
    try:
        ids = a.create_tasks("exp", 0, ["{}"] * n)
        a.pop_out(0, n)
        got: dict[str, list[int]] = {"a": [], "b": []}
        start = threading.Barrier(3)
        deadline = time.monotonic() + 30

        def collect(name: str, handle: SqliteTaskStore) -> None:
            start.wait(10)
            while len(got["a"]) + len(got["b"]) < n and time.monotonic() < deadline:
                got[name] += [tid for tid, _ in handle.pop_in_any(ids, limit=5)]

        threads = [
            threading.Thread(target=collect, args=(name, handle), daemon=True)
            for name, handle in (("a", a), ("b", b))
        ]
        for t in threads:
            t.start()
        start.wait(10)
        for i in range(0, n, 10):
            a.report_batch([(t, 0, "r") for t in ids[i : i + 10]])
        for t in threads:
            t.join(30)
            assert not t.is_alive()
        assert sorted(got["a"] + got["b"]) == ids  # each result exactly once
        assert a.queue_in_length() == 0
    finally:
        a.close()
        b.close()


def _normalized(statements: list[str]) -> set[str]:
    """sqlite3 traces *expanded* SQL on newer Pythons: fold the bound
    JSON array back to a placeholder so only the text is compared."""
    return {re.sub(r"'\[[^']*\]'", "?", sql) for sql in statements}


def test_statement_text_does_not_depend_on_watch_list_length():
    store = SqliteTaskStore(":memory:")
    try:
        ids = store.create_tasks("exp", 0, ["{}"] * 200)
        store.pop_out(0, 200)
        store.report_batch([(t, 0, "r") for t in ids])
        seen: list[str] = []
        store._conn.set_trace_callback(seen.append)
        for k, tid in enumerate(ids):  # 200 calls, 200 distinct lengths
            assert store.pop_in_any(ids[k:], limit=1) == [(tid, "r")]
        store._conn.set_trace_callback(None)
        # Peek, claim, delete and the transaction frame — not one
        # prepared statement per length (which evicts the statement
        # cache and grows the service's memory).
        assert len(_normalized(seen)) == 5, _normalized(seen)
    finally:
        store.close()


def test_empty_wake_opens_no_transaction():
    store = SqliteTaskStore(":memory:")
    try:
        ids = store.create_tasks("exp", 0, ["{}"] * 50)
        store.pop_out(0, 50)
        seen: list[str] = []
        store._conn.set_trace_callback(seen.append)
        assert store.pop_in_any(ids) == []
        assert store.pop_in_any(ids, limit=3, wait=0.01) == []
        store._conn.set_trace_callback(None)
        assert seen and not [sql for sql in seen if sql.startswith("BEGIN")]
    finally:
        store.close()
