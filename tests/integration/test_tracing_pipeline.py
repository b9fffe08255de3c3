"""End-to-end tracing: ME → service → pool with cross-wire parenting.

The acceptance bar for the telemetry subsystem: one traced run through
the full pipeline produces spans from at least five distinct components
(driver, eqsql, service, pool, handler), every parent reference resolves
inside the trace, and the service-side spans parent under the
client-side RPC spans across the TCP hop.
"""

from __future__ import annotations

import json

import pytest

from repro.core.constants import EQ_STOP
from repro.core.eqsql import EQSQL, init_eqsql
from repro.core.futures import as_completed
from repro.core.service import TaskService
from repro.core.service_client import RemoteTaskStore
from repro.db.sqlite_backend import SqliteTaskStore
from repro.pools.config import PoolConfig
from repro.pools.handlers import PythonTaskHandler
from repro.pools.pool import ThreadedWorkerPool
from repro.telemetry.metrics import MetricsRegistry, set_metrics
from repro.telemetry.tracing import Tracer, set_tracer, span_tree
from repro.util.clock import SystemClock

N_TASKS = 8


@pytest.fixture
def tracer():
    """An enabled tracer installed as the process default for the test.

    Pool/handler/service code resolves the tracer globally, so the
    global must point at the test instance; restored afterwards.
    """
    tracer = Tracer(clock=SystemClock(), enabled=True)
    previous_tracer = set_tracer(tracer)
    previous_metrics = set_metrics(MetricsRegistry())
    yield tracer
    set_tracer(previous_tracer)
    set_metrics(previous_metrics)


def _run_workload(eq: EQSQL, tracer: Tracer) -> None:
    pool = ThreadedWorkerPool(
        eq,
        PythonTaskHandler(lambda params: {"y": params["x"] * 2}),
        PoolConfig(
            work_type=0, n_workers=2, batch_size=2, threshold=1,
            name="trace-pool", poll_delay=0.005,
        ),
    )
    with tracer.span("driver.run", component="driver"):
        futures = eq.submit_tasks(
            "trace-exp", 0, [json.dumps({"x": x}) for x in range(N_TASKS)]
        )
        pool.start()
        for future in as_completed(futures, timeout=30):
            future.result(timeout=0)
        stop = eq.submit_task("trace-exp", 0, EQ_STOP, priority=-100)
        stop.result(timeout=10, delay=0.01)
    pool.join(timeout=10)


class TestLocalPipeline:
    def test_local_store_trace_components_and_parenting(self, tracer):
        eq = init_eqsql(tracer=tracer)
        _run_workload(eq, tracer)
        eq.close()

        spans = tracer.spans()
        components = set(tracer.components())
        assert {"driver", "eqsql", "pool", "handler"} <= components

        by_id = {s.span_id: s for s in spans}
        # Every parent reference resolves inside the trace.
        for span in spans:
            if span.parent_id is not None:
                assert span.parent_id in by_id, (span.name, span.parent_id)

        # Each pool.task span traces back to the driver's submit batch.
        submit = next(s for s in spans if s.name == "eqsql.submit_batch")
        tasks = [s for s in spans if s.name == "pool.task"]
        assert len(tasks) == N_TASKS
        for task in tasks:
            assert task.parent_id == submit.span_id
            assert task.trace_id == submit.trace_id

        # Handler spans nest inside their pool.task span (same thread).
        tree = span_tree(spans)
        for task in tasks:
            children = {s.name for s in tree.get(task.span_id, [])}
            assert "handler.PythonTaskHandler" in children
            assert "pool.report" in children


class TestServicePipeline:
    def test_cross_wire_parenting(self, tracer):
        service = TaskService(SqliteTaskStore()).start()
        host, port = service.address
        remote = RemoteTaskStore(host, port)
        eq = EQSQL(remote, clock=tracer.clock)
        try:
            _run_workload(eq, tracer)
        finally:
            remote.close()
            service.stop()

        spans = tracer.spans()
        components = set(tracer.components())
        # The acceptance criterion: >= 5 distinct components.
        assert {"driver", "eqsql", "service", "pool", "handler"} <= components
        assert "service_client" in components and "db" in components

        by_id = {s.span_id: s for s in spans}
        rpc_spans = {
            s.span_id: s for s in spans
            if s.component == "service_client" and s.name.startswith("rpc.")
            and s.name not in ("rpc.send", "rpc.recv")
        }
        service_spans = [s for s in spans if s.component == "service"]
        assert service_spans, "no server-side spans recorded"
        for span in service_spans:
            # Server handling parents under the client RPC span even
            # though it ran on the service's connection thread.
            assert span.parent_id in rpc_spans, span.name
            parent = rpc_spans[span.parent_id]
            assert span.trace_id == parent.trace_id
            assert parent.name == f"rpc.{span.name.removeprefix('service.')}"

        # DB time nests inside the service handling span.
        tree = span_tree(spans)
        for span in service_spans:
            child_names = {c.name for c in tree.get(span.span_id, [])}
            assert span.name.replace("service.", "db.") in child_names

        # The wire hop did not break payload-path propagation either.
        submit = next(s for s in spans if s.name == "eqsql.submit_batch")
        tasks = [s for s in spans if s.name == "pool.task"]
        assert len(tasks) == N_TASKS
        for task in tasks:
            assert task.trace_id == submit.trace_id
            assert task.parent_id == submit.span_id
        for span in spans:
            if span.parent_id is not None:
                assert span.parent_id in by_id, (span.name, span.parent_id)

    def test_rtt_decomposes(self, tracer):
        service = TaskService(SqliteTaskStore()).start()
        host, port = service.address
        remote = RemoteTaskStore(host, port)
        eq = EQSQL(remote, clock=tracer.clock)
        try:
            eq.submit_task("exp", 0, "payload")
        finally:
            remote.close()
            service.stop()

        spans = tracer.spans()
        # submit_task is a one-element create_tasks on the wire.
        rpc = next(s for s in spans if s.name == "rpc.create_tasks")
        server = next(s for s in spans if s.name == "service.create_tasks")
        db = next(s for s in spans if s.name == "db.create_tasks")
        # Client RTT strictly contains server handling, which strictly
        # contains DB time (all on one wall clock on loopback).
        assert rpc.duration() >= server.duration() >= db.duration()


class TestDisabledOverheadPath:
    def test_untraced_run_records_nothing(self, tracer):
        tracer.disable()
        eq = init_eqsql(tracer=tracer)
        _run_workload_untraced(eq)
        eq.close()
        assert len(tracer) == 0


def _run_workload_untraced(eq: EQSQL) -> None:
    pool = ThreadedWorkerPool(
        eq,
        PythonTaskHandler(lambda params: {"y": params["x"]}),
        PoolConfig(
            work_type=0, n_workers=2, batch_size=2, threshold=1,
            name="plain-pool", poll_delay=0.005,
        ),
    )
    futures = eq.submit_tasks(
        "plain-exp", 0, [json.dumps({"x": x}) for x in range(4)]
    )
    pool.start()
    for future in as_completed(futures, timeout=30):
        future.result(timeout=0)
    stop = eq.submit_task("plain-exp", 0, EQ_STOP, priority=-100)
    stop.result(timeout=10, delay=0.01)
    pool.join(timeout=10)
