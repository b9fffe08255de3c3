"""Tests for fabric-driven component lifecycle (§IV-B start/stop)."""

from __future__ import annotations

import json
import time

import pytest

from repro.core import EQSQL, RemoteTaskStore
from repro.fabric import CloudBroker, Endpoint, FabricClient
from repro.pools import lifecycle
from repro.util.errors import InvalidStateError, NotFoundError
from repro.util.ids import short_id


@pytest.fixture(autouse=True)
def clean_site():
    yield
    lifecycle.shutdown_site()


def square_task(d):
    return {"y": d["x"] ** 2}


class TestLocalLifecycle:
    def test_db_start_get_stop(self):
        name = short_id("db")
        lifecycle.start_emews_db(name)
        eqsql = lifecycle.get_eqsql(name)
        eqsql.submit_task("e", 0, "p")
        assert lifecycle.stop_emews_db(name)
        assert not lifecycle.stop_emews_db(name)
        with pytest.raises(NotFoundError):
            lifecycle.get_eqsql(name)

    def test_duplicate_db_rejected(self):
        name = short_id("db")
        lifecycle.start_emews_db(name)
        with pytest.raises(InvalidStateError):
            lifecycle.start_emews_db(name)

    def test_service_round_trip(self):
        name = short_id("db")
        lifecycle.start_emews_db(name)
        host, port = lifecycle.start_emews_service(name, auth_token="tok")
        remote = RemoteTaskStore(host, port, auth_token="tok")
        eq = EQSQL(remote)
        future = eq.submit_task("e", 0, "payload")
        assert lifecycle.get_eqsql(name).queue_lengths(0)[0] == 1
        assert future.status.label() == "queued"
        remote.close()
        assert lifecycle.stop_emews_service(name)

    def test_pool_lifecycle_and_status(self):
        name = short_id("db")
        pool_name = short_id("pool")
        lifecycle.start_emews_db(name)
        eqsql = lifecycle.get_eqsql(name)
        futures = eqsql.submit_tasks(
            "e", 0, [json.dumps({"x": i}) for i in range(6)]
        )
        lifecycle.start_worker_pool(name, pool_name, 0, square_task, n_workers=2)
        from repro.core import as_completed

        done = list(as_completed(futures, timeout=20, delay=0.01))
        assert len(done) == 6
        # The pool counts a task once its report call returns, which can
        # trail the ME collecting that result: give the counter a bound.
        deadline = time.monotonic() + 10
        while (
            lifecycle.pool_status(pool_name)["completed"] < 6
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        assert lifecycle.pool_status(pool_name)["completed"] == 6
        assert lifecycle.stop_worker_pool(pool_name)
        assert not lifecycle.stop_worker_pool(pool_name)

    def test_pool_requires_db(self):
        with pytest.raises(NotFoundError):
            lifecycle.start_worker_pool("ghost-db", "p", 0, square_task)

    def test_shutdown_site_counts(self):
        a, b = short_id("db"), short_id("db")
        lifecycle.start_emews_db(a)
        lifecycle.start_emews_db(b)
        lifecycle.start_emews_service(a)
        counts = lifecycle.shutdown_site()
        assert counts == {"pools": 0, "services": 1, "databases": 2}


class TestThroughFabric:
    def test_paper_flow_start_components_remotely(self):
        """§VI: 'initializing a funcX client, and then starting the
        EMEWS DB, an initial worker pool, and the EMEWS service remotely
        on Bebop using funcX'."""
        broker = CloudBroker()
        endpoint = Endpoint(broker, "bebop", "tok").start()
        client = FabricClient(broker, "tok")
        db_name = short_id("db")
        pool_name = short_id("pool")
        try:
            client.run(
                lifecycle.start_emews_db, db_name, endpoint=endpoint.endpoint_id, timeout=20
            )
            host, port = client.run(
                lifecycle.start_emews_service, db_name,
                endpoint=endpoint.endpoint_id, timeout=20,
            )
            client.run(
                lifecycle.start_worker_pool, db_name, pool_name, 0, square_task,
                endpoint=endpoint.endpoint_id, timeout=20,
            )
            # ME side: talk to the service over TCP, as the paper does
            # through its SSH tunnel.
            remote = RemoteTaskStore(host, int(port))
            eq = EQSQL(remote)
            future = eq.submit_task("exp", 0, json.dumps({"x": 7}))
            status, result = future.result(timeout=20, delay=0.02)
            assert json.loads(result) == {"y": 49}
            remote.close()
            # Tear down through the fabric too.
            assert client.run(
                lifecycle.stop_worker_pool, pool_name,
                endpoint=endpoint.endpoint_id, timeout=20,
            )
        finally:
            endpoint.stop()
