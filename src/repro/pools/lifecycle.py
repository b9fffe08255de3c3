"""Remote component lifecycle over the compute fabric (paper §IV-B, §VI).

"In our prototype, we use funcX to start and stop the EMEWS service, the
EMEWS DB database, and remote worker pools on HPC resources."

The functions here are designed to be *shipped through the fabric*:
``client.run(start_emews_db, "bebop-db", endpoint=bebop_ep)`` executes
on the endpoint and registers the component in the site-local runtime
registry (one registry per interpreter — which is per site in a real
deployment and shared in this in-process reproduction; names are
therefore namespaced by the caller).  Later fabric calls look components
up by name to attach pools or stop things.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from typing import Any

from repro.core.eqsql import EQSQL, init_eqsql
from repro.core.service import TaskService
from repro.pools.config import PoolConfig
from repro.pools.handlers import PythonTaskHandler
from repro.pools.pool import ThreadedWorkerPool
from repro.util.errors import InvalidStateError, NotFoundError

_lock = threading.Lock()
_databases: dict[str, EQSQL] = {}
_services: dict[str, TaskService] = {}
_pools: dict[str, ThreadedWorkerPool] = {}


def start_emews_db(name: str, db_path: str = ":memory:") -> str:
    """Start (open) an EMEWS DB on this site; returns its name."""
    with _lock:
        if name in _databases:
            raise InvalidStateError(f"database {name!r} already running")
        _databases[name] = init_eqsql(db_path)
    return name


def get_eqsql(name: str) -> EQSQL:
    """The site-local handle to a running EMEWS DB."""
    with _lock:
        eqsql = _databases.get(name)
    if eqsql is None:
        raise NotFoundError(f"no running database named {name!r}")
    return eqsql


def stop_emews_db(name: str) -> bool:
    """Stop a database (close the store); True if it was running."""
    with _lock:
        eqsql = _databases.pop(name, None)
    if eqsql is None:
        return False
    eqsql.close()
    return True


def start_emews_service(
    db_name: str,
    host: str = "127.0.0.1",
    port: int = 0,
    auth_token: str | None = None,
    lease_reaper_interval: float | None = None,
) -> tuple[str, int]:
    """Start the EMEWS service fronting a running DB; returns (host, port).

    The returned address is what a remote ME algorithm connects its
    :class:`repro.core.RemoteTaskStore` to (the paper's SSH-tunnel hop).
    ``lease_reaper_interval`` turns on continuous recovery: expired-lease
    tasks are requeued automatically every that-many seconds.
    """
    eqsql = get_eqsql(db_name)
    service = TaskService(
        eqsql.store,
        host=host,
        port=port,
        auth_token=auth_token,
        lease_reaper_interval=lease_reaper_interval,
        clock=eqsql.clock,
    )
    service.start()
    with _lock:
        if db_name in _services:
            service.stop()
            raise InvalidStateError(f"service for {db_name!r} already running")
        _services[db_name] = service
    return service.address


def stop_emews_service(db_name: str) -> bool:
    with _lock:
        service = _services.pop(db_name, None)
    if service is None:
        return False
    service.stop()
    return True


def start_worker_pool(
    db_name: str,
    pool_name: str,
    work_type: int,
    task_fn: Callable[[Any], Any],
    n_workers: int = 4,
    batch_size: int | None = None,
    threshold: int = 1,
    json_io: bool = True,
    lease_duration: float | None = None,
    heartbeat_interval: float | None = None,
) -> str:
    """Start a threaded worker pool against a running DB.

    ``task_fn`` must be picklable (module-level) since this function is
    meant to travel through the fabric.  ``lease_duration`` claims tasks
    under fault-tolerance leases the pool heartbeats; pair it with a
    service-side lease reaper for automatic crashed-pool recovery.
    """
    eqsql = get_eqsql(db_name)
    config = PoolConfig(
        work_type=work_type,
        n_workers=n_workers,
        batch_size=batch_size,
        threshold=threshold,
        name=pool_name,
        lease_duration=lease_duration,
        heartbeat_interval=heartbeat_interval,
    )
    pool = ThreadedWorkerPool(
        eqsql, PythonTaskHandler(task_fn, json_io=json_io), config
    )
    with _lock:
        if pool_name in _pools:
            raise InvalidStateError(f"pool {pool_name!r} already running")
        _pools[pool_name] = pool
    pool.start()
    return pool_name


def stop_worker_pool(pool_name: str, drain: bool = True) -> bool:
    """Stop a running pool; True if it existed."""
    with _lock:
        pool = _pools.pop(pool_name, None)
    if pool is None:
        return False
    pool.stop(drain=drain)
    return True


def pool_status(pool_name: str) -> dict[str, Any]:
    """Completed/failed/owned counters for a running pool."""
    with _lock:
        pool = _pools.get(pool_name)
    if pool is None:
        raise NotFoundError(f"no running pool named {pool_name!r}")
    return {
        "name": pool.name,
        "owned": pool.owned(),
        "completed": pool.tasks_completed,
        "failed": pool.tasks_failed,
        "reports_lost": pool.reports_lost,
        "alive": pool.is_alive(),
    }


def shutdown_site() -> dict[str, int]:
    """Stop everything this site is running (test/exit hygiene)."""
    with _lock:
        pools = list(_pools.items())
        services = list(_services.items())
        databases = list(_databases.items())
        _pools.clear()
        _services.clear()
        _databases.clear()
    for _name, pool in pools:
        pool.stop()
    for _name, service in services:
        service.stop()
    for _name, eqsql in databases:
        eqsql.close()
    return {
        "pools": len(pools),
        "services": len(services),
        "databases": len(databases),
    }
