"""R-style functional task API (paper Listing 1, R column).

OSPREY is explicitly multi-language: "The API for task submission,
result reporting, and querying the queues is implemented in both Python
and R."  This module mirrors the R function surface —

.. code-block:: r

    eq_submit_task  <- function(exp_id, eq_type, payload, priority=0)
    eq_query_task   <- function(eq_type, delay=0.5, timeout=2.0)
    eq_report_task  <- function(eq_task_id, eq_type, result)
    eq_query_result <- function(eq_task_id, delay=0.5, timeout=2.0)

— as module-level Python functions bound to a module-level connection,
exactly how the R package holds a package-environment DB handle.  R's
named lists become Python dicts.  The R API (like the paper's) has no
futures and no multi-task query; those are Python-only extensions.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.core.constants import ResultStatus
from repro.core.eqsql import EQSQL, init_eqsql
from repro.util.errors import InvalidStateError

_lock = threading.Lock()
_eqsql: EQSQL | None = None


def eq_init(db_path: str = ":memory:", eqsql: EQSQL | None = None) -> None:
    """Initialize the module-level connection (R: ``eq_init``).

    Pass an existing :class:`EQSQL` to share a connection with Python
    code, or a ``db_path`` to open one.
    """
    global _eqsql
    with _lock:
        if _eqsql is not None:
            raise InvalidStateError("eq_init: already initialized; call eq_shutdown first")
        _eqsql = eqsql if eqsql is not None else init_eqsql(db_path)


def eq_shutdown(close: bool = False) -> None:
    """Release the module-level connection (R: ``eq_shutdown``).

    ``close=True`` also closes the underlying store; leave it False when
    the connection was shared via ``eq_init(eqsql=...)``.
    """
    global _eqsql
    with _lock:
        if _eqsql is not None and close:
            _eqsql.close()
        _eqsql = None


def _conn() -> EQSQL:
    if _eqsql is None:
        raise InvalidStateError("R API not initialized; call eq_init first")
    return _eqsql


def eq_submit_task(
    exp_id: str, eq_type: int, payload: str, priority: int = 0
) -> int:
    """Submit a task; returns the integer task id (R semantics — the R
    API predates futures)."""
    future = _conn().submit_task(exp_id, eq_type, payload, priority=priority)
    return future.eq_task_id


def eq_query_task(
    eq_type: int, delay: float = 0.5, timeout: float = 2.0
) -> dict[str, Any]:
    """Pop one task for execution; a 'work' named-list on success, a
    'status' named-list (payload 'TIMEOUT') on polling failure."""
    message = _conn().query_task(eq_type, n=1, delay=delay, timeout=timeout)
    assert isinstance(message, dict)
    return message


def eq_report_task(eq_task_id: int, eq_type: int, result: str) -> None:
    """Report a completed task's result."""
    _conn().report_task(eq_task_id, eq_type, result)


def eq_query_result(
    eq_task_id: int, delay: float = 0.5, timeout: float = 2.0
) -> dict[str, Any]:
    """Pop one result off the input queue; named-list style return:
    ``{'type': 'result', 'eq_task_id': id, 'payload': result}`` or the
    TIMEOUT status message."""
    status, payload = _conn().query_result(eq_task_id, delay=delay, timeout=timeout)
    if status == ResultStatus.FAILURE:
        return {"type": "status", "payload": payload}
    return {"type": "result", "eq_task_id": eq_task_id, "payload": payload}


# ---------------------------------------------------------------------------
# Asynchronous extensions (paper §VII future work: "we will extend the
# asynchronous API to additional ME algorithm languages, starting with
# R").  R has no Future objects, so the functional forms operate on task
# id vectors and return named-list results; like their Python
# counterparts they perform *batch* operations on the EMEWS DB.
# ---------------------------------------------------------------------------


def eq_as_completed(
    eq_task_ids: list[int],
    n: int | None = None,
    delay: float = 0.5,
    timeout: float = 2.0,
) -> list[dict[str, Any]]:
    """Collect up to ``n`` completed results from a set of tasks.

    Polls the input queue in batch until ``n`` results (all, when
    ``None``) are gathered or ``timeout`` expires; returns 'result'
    named-lists for whatever completed in time (possibly fewer than
    ``n`` — R callers check ``length()``).
    """
    eqsql = _conn()
    remaining = list(dict.fromkeys(eq_task_ids))
    target = len(remaining) if n is None else min(n, len(remaining))
    collected: list[dict[str, Any]] = []
    deadline = eqsql.clock.deadline(timeout)
    while len(collected) < target:
        popped = eqsql.pop_completed_ids(remaining, limit=target - len(collected))
        for eq_task_id, payload in popped:
            remaining.remove(eq_task_id)
            collected.append(
                {"type": "result", "eq_task_id": eq_task_id, "payload": payload}
            )
            if len(collected) >= target:
                break
        if len(collected) >= target or eqsql.clock.expired(deadline):
            break
        eqsql.clock.sleep(delay)
    return collected


def eq_pop_completed(
    eq_task_ids: list[int], delay: float = 0.5, timeout: float = 2.0
) -> dict[str, Any]:
    """The first completed result among ``eq_task_ids``, or the TIMEOUT
    status message.  The caller drops the returned id from its vector
    (R vectors are copied, not mutated in place)."""
    results = eq_as_completed(eq_task_ids, n=1, delay=delay, timeout=timeout)
    if not results:
        return {"type": "status", "payload": "TIMEOUT"}
    return results[0]


def eq_update_priority(
    eq_task_ids: list[int], priority: int | list[int]
) -> int:
    """Batch reprioritization; returns the number of tasks updated."""
    return _conn().update_priorities(eq_task_ids, priority)


def eq_cancel_tasks(eq_task_ids: list[int]) -> int:
    """Batch cancellation of queued tasks; returns the number canceled."""
    return _conn().cancel_tasks(eq_task_ids)


def eq_query_status(eq_task_ids: list[int]) -> list[dict[str, Any]]:
    """Statuses as named lists: ``{'eq_task_id': id, 'status': label}``."""
    return [
        {"eq_task_id": eq_task_id, "status": status.label()}
        for eq_task_id, status in _conn().query_status(eq_task_ids)
    ]
