"""Integration: the task flight recorder end to end.

The ISSUE's acceptance path: drive a task through the full pipeline —
ME driver → TaskService → SQLite store → worker pool — with one forced
lease-expiry requeue in the middle, then reconstruct the complete
ordered lifecycle with ``python -m repro timeline``; and flag an
artificially delayed task through the live straggler detector behind
``GET /events``.
"""

from __future__ import annotations

import contextlib
import io
import json
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core import EQSQL, as_completed
from repro.core.service import TaskService
from repro.core.service_client import RemoteTaskStore
from repro.db import SqliteTaskStore
from repro.me.driver import run_async_optimization
from repro.pools import PoolConfig, PythonTaskHandler, ThreadedWorkerPool
from repro.telemetry.journal import (
    EV_COLLECT,
    EV_ENQUEUE,
    EV_FETCH,
    EV_POP,
    EV_REPORT,
    EV_REQUEUE,
    EV_RUN_END,
    EV_RUN_START,
    EV_SUBMIT,
    ROLE_DB,
    ROLE_ME,
    ROLE_POOL,
    ROLE_SERVICE,
    Journal,
    load_journal,
    set_journal,
    task_timeline,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.util.clock import SystemClock


@pytest.fixture()
def scoped_journal(tmp_path):
    """A recording global journal with a JSONL spill, restored on exit."""
    clock = SystemClock()
    spill = str(tmp_path / "journal.jsonl")
    journal = Journal(clock=clock, spill_path=spill)
    previous = set_journal(journal)
    try:
        yield clock, journal, spill
    finally:
        journal.close()
        set_journal(previous)


def _wait_until(predicate, timeout: float = 15.0, delay: float = 0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(delay)
    return False


class TestEndToEndTimeline:
    def test_full_lifecycle_with_forced_requeue(self, scoped_journal, tmp_path):
        clock, journal, spill = scoped_journal
        registry = MetricsRegistry()
        store = SqliteTaskStore(str(tmp_path / "emews.db"))
        service = TaskService(
            store,
            port=0,
            metrics=registry,
            clock=clock,
            lease_reaper_interval=0.05,
        )
        service.start()
        host, port = service.address
        me_remote = RemoteTaskStore(host, port, metrics=registry)
        pool_remote = RemoteTaskStore(host, port, metrics=registry)
        doomed_remote = RemoteTaskStore(host, port, metrics=registry)
        eq_me = EQSQL(me_remote, clock=clock, metrics=registry)
        eq_pool = EQSQL(pool_remote, clock=clock, metrics=registry)

        result_box: dict = {}

        def drive():
            result_box["result"] = run_async_optimization(
                eq_me,
                "exp-fr",
                0,
                np.array([[1.0], [2.0], [3.0]]),
                delay=0.005,
                timeout=60.0,
            )

        driver = threading.Thread(target=drive)
        pool = None
        try:
            driver.start()
            # A doomed pool claims one task under a tiny lease and dies
            # without reporting: the reaper must requeue it.
            assert _wait_until(lambda: store.queue_out_length() >= 3)
            popped = doomed_remote.pop_out(
                0, n=1, worker_pool="doomed", now=clock.now(), lease=0.05
            )
            assert len(popped) == 1
            victim = popped[0][0]
            doomed_remote.close()
            assert _wait_until(
                lambda: any(
                    r.event == EV_REQUEUE
                    for r in journal.records(task_id=victim)
                    if r.role == ROLE_DB
                )
            )

            # A healthy pool drains everything, the victim included.
            pool = ThreadedWorkerPool(
                eq_pool,
                PythonTaskHandler(lambda d: {"y": d["x"][0] ** 2}),
                PoolConfig(
                    work_type=0, n_workers=2, batch_size=2,
                    poll_delay=0.005, lease_duration=30.0, name="pool-a",
                ),
            ).start()
            driver.join(timeout=60)
            assert not driver.is_alive()
        finally:
            if pool is not None:
                pool.stop()
            eq_me.close()
            eq_pool.close()
            service.stop()

        result = result_box["result"]
        assert sorted(result.y) == [1.0, 4.0, 9.0]

        # --- the journal holds the complete lifecycle, per role -----------
        journal.flush()
        records = load_journal(spill)
        timeline = task_timeline(records, victim)
        by_role = {}
        for r in timeline:
            by_role.setdefault(r.role, []).append(r.event)
        assert by_role[ROLE_ME] == [EV_SUBMIT, EV_COLLECT]
        assert by_role[ROLE_DB] == [
            EV_ENQUEUE, EV_POP, EV_REQUEUE, EV_POP, EV_REPORT,
        ]
        assert by_role[ROLE_POOL] == [
            EV_FETCH, EV_RUN_START, EV_RUN_END, EV_REPORT,
        ]
        # The service observed the RPC hops it proxied (the requeue came
        # from the in-process reaper, which talks to the store directly,
        # so only the db role records it).
        assert EV_ENQUEUE in by_role[ROLE_SERVICE]
        assert EV_POP in by_role[ROLE_SERVICE]
        assert EV_REPORT in by_role[ROLE_SERVICE]
        # Causal endpoints of the merged view.
        assert timeline[0].event == EV_SUBMIT
        assert timeline[-1].event == EV_COLLECT
        # Why the timeline cannot end on `report`: the pool stamps its
        # report hop when the flush begins, before the store write that
        # wakes the ME's collect.
        stamp = {(r.role, r.event): r.time for r in timeline}
        assert (
            stamp[ROLE_POOL, EV_REPORT]
            <= stamp[ROLE_DB, EV_REPORT]
            <= stamp[ROLE_ME, EV_COLLECT]
        )
        # The doomed and healthy pops are attributed to their pools.
        db_pops = [
            r for r in timeline if r.role == ROLE_DB and r.event == EV_POP
        ]
        assert [r.source for r in db_pops] == ["doomed", "pool-a"]
        # The ME's submit carries the run's trace id end to end.
        assert timeline[0].trace_id == ""  # tracer disabled by default

        # --- and `repro timeline` renders it ------------------------------
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli_main(["timeline", str(victim), "--journal", spill])
        assert rc == 0
        out = buf.getvalue()
        assert f"task {victim}:" in out
        for event in (EV_SUBMIT, EV_ENQUEUE, EV_REQUEUE, EV_RUN_START,
                      EV_REPORT, EV_COLLECT):
            assert event in out
        assert out.index("submit") < out.index("enqueue")
        assert out.index("requeue") < out.index("run_start")


class TestFusedFlushHops:
    def test_report_pop_records_both_service_hops(self, scoped_journal):
        # One request, two hops: the service journals the report of the
        # flushed task, then the pop of the refill, stamped alike.
        clock, journal, _spill = scoped_journal
        store = SqliteTaskStore()
        service = TaskService(store, clock=clock, metrics=MetricsRegistry()).start()
        remote = RemoteTaskStore(*service.address, metrics=MetricsRegistry())
        try:
            done, refill = remote.create_tasks("exp", 0, ["a", "b"])
            remote.pop_out(0, 1, worker_pool="pool-f", now=clock.now())
            claimed = remote.report_pop(
                [(done, 0, "r")], 0, 2, worker_pool="pool-f", now=clock.now()
            )
        finally:
            remote.close()
            service.stop()
        assert claimed == [(refill, "b")]
        hops = [
            (r.event, r.task_id, r.source, r.time)
            for r in journal.records()
            if r.role == ROLE_SERVICE and r.event in (EV_REPORT, EV_POP)
        ]
        (_, _, _, popped_at), report, pop = hops
        assert report[:3] == (EV_REPORT, done, "pool-f")
        assert pop[:3] == (EV_POP, refill, "pool-f")
        assert popped_at <= report[3] == pop[3]
        db = [(r.event, r.task_id) for r in journal.records() if r.role == ROLE_DB]
        assert db[-2:] == [(EV_REPORT, done), (EV_POP, refill)]


class TestLiveStragglerDetection:
    def test_delayed_task_flagged_via_events(self, tmp_path):
        clock = SystemClock()
        journal = Journal(clock=clock)
        previous = set_journal(journal)
        registry = MetricsRegistry()
        service = TaskService(
            SqliteTaskStore(),
            port=0,
            status_port=0,
            metrics=registry,
            clock=clock,
            straggler_multiple=3.0,
            straggler_min_seconds=0.2,
        )
        service.start()
        host, port = service.address
        remote = RemoteTaskStore(host, port, metrics=registry)
        eq = EQSQL(remote, clock=clock, metrics=registry)

        def handler(d):
            time.sleep(d.get("sleep", 0.0))
            return {"y": 0.0}

        pool = ThreadedWorkerPool(
            eq,
            PythonTaskHandler(handler),
            PoolConfig(work_type=0, n_workers=2, batch_size=2,
                       poll_delay=0.005, name="p1"),
        ).start()
        try:
            # Six fast tasks build the run-duration baseline.
            fast = eq.submit_tasks("exp", 0, [json.dumps({})] * 6)
            assert len(list(as_completed(fast, timeout=30, delay=0.005))) == 6

            # One artificially delayed task must get flagged while running.
            (slow,) = eq.submit_tasks("exp", 0, [json.dumps({"sleep": 3.0})])

            def flagged():
                with urllib.request.urlopen(
                    service.status_url + "/events", timeout=5
                ) as r:
                    events = json.loads(r.read().decode())
                active = events.get("stragglers", {}).get("active", [])
                return any(
                    f["task_id"] == slow.eq_task_id and f["phase"] == "run"
                    for f in active
                )

            assert _wait_until(flagged, timeout=10.0, delay=0.05)

            # The /status document carries the same summary section.
            status = service.status_snapshot()
            assert status["stragglers"]["flagged_total"] >= 1
            assert registry.get("stragglers.active").value >= 1
            assert registry.get("stragglers.flagged_total").value >= 1

            # `repro stragglers --once --json` sees it over HTTP too.
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli_main(
                    ["stragglers", service.status_url, "--once", "--json"]
                )
            assert rc == 0
            payload = json.loads(buf.getvalue())
            assert payload["journal"]["enabled"] is True
            assert any(
                f["task_id"] == slow.eq_task_id
                for f in payload["stragglers"]["active"]
            )

            assert list(as_completed([slow], timeout=30, delay=0.01))
        finally:
            pool.stop()
            eq.close()
            service.stop()
            set_journal(previous)
