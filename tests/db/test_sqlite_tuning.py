"""SQLite throughput tuning: WAL journaling and its durability opt-out.

The tuned store trades a sliver of durability (an OS crash may lose the
tail of the WAL — never corrupt the DB) for write throughput; callers
that need classic rollback-journal semantics pass ``durable=True``.
"""

from __future__ import annotations

from repro.db import SqliteTaskStore


def pragma(store, name):
    return store._conn.execute(f"PRAGMA {name}").fetchone()[0]


class TestWalTuning:
    def test_file_store_defaults_to_wal_normal(self, tmp_path):
        store = SqliteTaskStore(str(tmp_path / "emews.db"))
        try:
            assert pragma(store, "journal_mode") == "wal"
            assert pragma(store, "synchronous") == 1  # NORMAL
            assert store.durable is False
        finally:
            store.close()

    def test_durable_opt_out_keeps_rollback_journal(self, tmp_path):
        store = SqliteTaskStore(str(tmp_path / "emews.db"), durable=True)
        try:
            assert pragma(store, "journal_mode") == "delete"
            assert pragma(store, "synchronous") == 2  # FULL
            assert store.durable is True
        finally:
            store.close()

    def test_memory_store_skips_wal(self):
        # WAL requires a real file; :memory: must not pretend otherwise.
        store = SqliteTaskStore(":memory:")
        try:
            assert pragma(store, "journal_mode") == "memory"
        finally:
            store.close()

    def test_wal_data_survives_reopen(self, tmp_path):
        path = str(tmp_path / "emews.db")
        store = SqliteTaskStore(path)
        ids = store.create_tasks("exp", 0, ["a", "b", "c"])
        store.pop_out(0, 1)
        store.report_batch([(ids[0], 0, "r")])
        store.close()
        reopened = SqliteTaskStore(path)
        try:
            assert reopened.max_task_id() == ids[-1]
            assert reopened.queue_out_length(0) == 2
            assert reopened.pop_in_any([ids[0]]) == [(ids[0], "r")]
        finally:
            reopened.close()
