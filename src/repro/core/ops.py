"""The RPC surface, stated once.

Paper §IV-C: the EMEWS service "abstracts task caching and queuing
operations" behind one task API that ME algorithms and worker pools both
speak.  :data:`OPS` is that API as data — one :class:`Op` row per wire
method — and everything that has to know the surface reads it:

- :class:`~repro.core.service.TaskService` dispatches, gates long-poll
  waits, counts requests per method, encodes results and emits
  service-role journal hops from the row it looked up;
- :class:`~repro.core.service_client.RemoteTaskStore` gets its
  ``TaskStore`` methods and its retry classification from the rows plus
  the signatures the :class:`~repro.db.backend.TaskStore` ABC already
  declares (read once, at import);
- :class:`~repro.testing.chaos.FlakyTaskStore` gets its delegations the
  same way (:func:`store_methods`).

Adding an RPC is one row here plus the backend method — see DESIGN.md
"RPC surface and how to add an op".
"""

from __future__ import annotations

import abc
import inspect
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any

from repro.core import protocol
from repro.db.backend import TaskStore
from repro.db.schema import TaskStatus
from repro.telemetry.journal import (
    EV_CANCEL,
    EV_ENQUEUE,
    EV_LEASE_RENEW,
    EV_POP,
    EV_REPORT,
    EV_REQUEUE,
)

Params = dict[str, Any]


@dataclass(frozen=True)
class Hop:
    """The service-role journal record an op emits per task it touched.

    ``tasks(params, result)`` yields ``(task_id, work_type)`` pairs from
    the request's wire params and the store's raw return.
    """

    event: str
    tasks: Callable[[Params, Any], Iterable[tuple[int, int]]]


@dataclass(frozen=True)
class Op:
    """One wire method.

    ``idempotent``
        Safe to re-send after an ambiguous failure (the request may or
        may not have been applied).  False means the client raises
        ``ConnectionBrokenError`` instead — except for a pop carrying
        ``wait_ms``, which is always re-sent (see :func:`retryable`).
    ``on_store``
        True: dispatched to the store as ``store.<name>(**params)``.
        False: handled by the service itself (``TaskService._rpc_<name>``).
    ``waitable``
        Accepts the ``wait_ms`` long-poll bound.
    ``hops``
        Journal hops the service records for the request, in order
        (most ops have one or none; ``report_pop`` reports, then pops).
    ``to_wire``
        Client hook for the op's irregular encodings: takes the call's
        arguments by name (declaration order, defaults filled) and
        returns the wire params, or None when the call needs no round
        trip at all.
    ``encode_result`` / ``decode_result``
        The paired codec where the store's raw return is not JSON-ready
        (service side) or JSON cannot carry the contract's type (client
        side: tuples, ``TaskStatus``, ``TaskRow``).
    ``profiles``
        Picks the task profiles riding a report request, which the
        service also feeds to its fleet aggregates.
    """

    name: str
    idempotent: bool
    on_store: bool = True
    waitable: bool = False
    hops: tuple[Hop, ...] = ()
    to_wire: Callable[[Params], Params | None] | None = None
    encode_result: Callable[[Any], Any] | None = None
    decode_result: Callable[[Any], Any] | None = None
    profiles: Callable[[Params], list[dict]] | None = None


# -- journal hop extractors ----------------------------------------------------


def _typed(
    ids: Callable[[Params, Any], Iterable[int]],
) -> Callable[[Params, Any], list[tuple[int, int]]]:
    """Tasks picked by ``ids``, each at the request's own work type
    (-1 when the op carries none)."""

    def tasks(params: Params, result: Any) -> list[tuple[int, int]]:
        work_type = int(params.get("eq_type", -1))
        return [(int(tid), work_type) for tid in ids(params, result)]

    return tasks


_RETURNED_IDS = _typed(lambda params, result: result)
_REQUESTED_IDS = _typed(lambda params, result: params.get("eq_task_ids", []))

# Hops shared by a single-purpose op and ``report_pop``, which does both.
_POPPED = Hop(EV_POP, _typed(lambda params, result: [t for t, _ in result]))
_REPORTED = Hop(EV_REPORT, lambda params, result: [
    (int(tid), int(eq_type)) for tid, eq_type, _ in params.get("reports", [])
])


# -- client hooks: params to the wire, results back to contract types ------------


def _pairs(result: Any) -> list[tuple[Any, Any]]:
    return [(first, second) for first, second in result]


def _wait_to_ms(params: Params) -> Params:
    # Milliseconds on the wire (integral JSON), present only for a real
    # long-poll; the service clamps to its own max_wait_ms, so an
    # oversized ask degrades to a shorter block rather than an error.
    wait = params.pop("wait")
    if wait is not None and wait > 0:
        params["wait_ms"] = max(1, int(wait * 1000))
    return params


def _lists(
    *names: str, then: Callable[[Params], Params] | None = None
) -> Callable[[Params], Params]:
    """Materialize the named sequence arguments as JSON arrays (a scalar
    int — the one-priority-for-all form — passes through)."""

    def to_wire(params: Params) -> Params:
        for name in names:
            if not isinstance(params[name], int):
                params[name] = list(params[name])
        return then(params) if then is not None else params

    return to_wire


def _reports_to_wire(params: Params) -> Params:
    params["reports"] = [list(report) for report in params["reports"]]
    profiles = params.pop("profiles")
    if profiles:
        # JSON object keys are strings; the backend int-normalizes.
        params["profiles"] = {str(tid): p for tid, p in profiles.items()}
    return params


def _report_batch_to_wire(params: Params) -> Params | None:
    if not params["reports"]:
        return None  # nothing to record: no round trip
    return _reports_to_wire(params)


def _report_profiles(params: Params) -> list[dict]:
    return list((params.get("profiles") or {}).values())


# -- the table -----------------------------------------------------------------------
#
# Why each row carries the ``idempotent`` flag it does:
#
# - reads are idempotent, as are writes whose double application
#   converges to the same state: ``report_batch`` is first-write-wins
#   in every backend; ``requeue``, ``renew_leases`` and
#   ``requeue_expired`` check task state server-side; ``update_
#   priorities``, ``cancel_tasks`` and ``clear`` set absolute state;
#   ``cache_get`` is a read (its LRU touch converges) and ``cache_put``
#   is last-write-wins on a content hash; re-delivering a ``telemetry``
#   heartbeat is harmless.
# - creates are not: a re-sent create would duplicate rows.
# - pops are not: a re-sent ``pop_out`` would claim extra tasks, and a
#   re-sent ``pop_in_any`` would silently consume a result whose
#   response was lost.  ``report_pop`` is a pop: its report half
#   converges, its claim does not.

OPS: Mapping[str, Op] = MappingProxyType({
    op.name: op
    for op in (
        # task creation
        Op("create_tasks", idempotent=False, to_wire=_lists("payloads", "priority"),
           hops=(Hop(EV_ENQUEUE, _RETURNED_IDS),)),
        # output queue (ME -> worker pools)
        Op("pop_out", idempotent=False, waitable=True, to_wire=_wait_to_ms,
           decode_result=_pairs, hops=(_POPPED,)),
        Op("queue_out_length", idempotent=True),
        # input queue (worker pools -> ME)
        Op("report_batch", idempotent=True, to_wire=_report_batch_to_wire,
           hops=(_REPORTED,), profiles=_report_profiles),
        # a busy pool's flush plus the refill it frees, in one round trip
        Op("report_pop", idempotent=False, to_wire=_reports_to_wire,
           decode_result=_pairs, hops=(_REPORTED, _POPPED), profiles=_report_profiles),
        Op("pop_in_any", idempotent=False, waitable=True, decode_result=_pairs,
           to_wire=_lists("eq_task_ids", then=_wait_to_ms)),
        Op("queue_in_length", idempotent=True),
        # status / priority / cancellation
        Op("get_task", idempotent=True,
           encode_result=protocol.task_row_to_dict,
           decode_result=protocol.task_row_from_dict),
        Op("get_statuses", idempotent=True, to_wire=_lists("eq_task_ids"),
           encode_result=lambda rows: [[tid, int(status)] for tid, status in rows],
           decode_result=lambda rows: [(tid, TaskStatus(s)) for tid, s in rows]),
        Op("get_priorities", idempotent=True, to_wire=_lists("eq_task_ids"),
           decode_result=_pairs),
        Op("update_priorities", idempotent=True,
           to_wire=_lists("eq_task_ids", "priorities")),
        Op("cancel_tasks", idempotent=True, to_wire=_lists("eq_task_ids"),
           hops=(Hop(EV_CANCEL, _REQUESTED_IDS),)),
        # ``priority=None`` rides the wire as JSON null: "restore the
        # task's sticky priority" server-side.
        Op("requeue", idempotent=True,
           hops=(Hop(EV_REQUEUE, _typed(
               lambda params, result: [params["eq_task_id"]] if result else []
           )),)),
        # leases (fault recovery)
        Op("renew_leases", idempotent=True, to_wire=_lists("eq_task_ids"),
           hops=(Hop(EV_LEASE_RENEW, _REQUESTED_IDS),)),
        Op("requeue_expired", idempotent=True, hops=(Hop(EV_REQUEUE, _RETURNED_IDS),)),
        # experiment / tag queries, monitoring, cache, maintenance
        Op("tasks_for_experiment", idempotent=True),
        Op("tasks_for_tag", idempotent=True),
        Op("stats", idempotent=True),
        Op("cache_get", idempotent=True),
        Op("cache_put", idempotent=True),
        Op("cache_stats", idempotent=True),
        Op("max_task_id", idempotent=True),
        Op("clear", idempotent=True),
        # handled by the service, never by the store
        Op("ping", idempotent=True, on_store=False),
        Op("telemetry", idempotent=True, on_store=False),
    )
})

PING = OPS["ping"]
TELEMETRY = OPS["telemetry"]


def wait_seconds(params: Mapping[str, Any]) -> float:
    """Seconds of server-side long-poll requested by ``params`` (0 if none)."""
    wait_ms = params.get("wait_ms")
    return float(wait_ms) / 1000.0 if wait_ms else 0.0


def retryable(method: str, params: Mapping[str, Any]) -> bool:
    """Whether an ambiguous failure of this call may be re-sent.

    Idempotent ops always; and any call carrying ``wait_ms``, even a
    pop.  A long-poll spends almost its whole lifetime blocked
    server-side before any row is claimed, so a severed connection is
    overwhelmingly pre-pop; in the rare post-pop race the claimed rows
    are leased, the reaper requeues them, and ``report_batch`` is
    first-write-wins — the recovery chain that already covers a pop
    whose pool dies.  Not retrying would turn every transient drop
    during an idle wait into a caller-visible error.
    """
    op = OPS.get(method)
    return (op is not None and op.idempotent) or wait_seconds(params) > 0.0


def signature_method(
    name: str, finish: Callable[[Any, Params], Any]
) -> Callable[..., Any]:
    """A method with exactly the signature the :class:`TaskStore` ABC
    declares for ``name``, handing its arguments to ``finish(self,
    params)`` as a name → value dict in declaration order.

    Generated once, at import, from the declared signature (the
    ``namedtuple``/``dataclass`` technique), so Python itself binds every
    call: the ABC's own parameter names, order, defaults and
    ``TypeError``s, with no ``inspect`` — and no restated default — on
    the call path.
    """
    declared = inspect.signature(getattr(TaskStore, name))
    bare = declared.replace(
        parameters=[
            p.replace(annotation=p.empty) for p in declared.parameters.values()
        ],
        return_annotation=declared.empty,
    )
    items = ", ".join(f"{arg!r}: {arg}" for arg in list(declared.parameters)[1:])
    namespace: dict[str, Any] = {"_finish": finish}
    exec(f"def {name}{bare}:\n    return _finish(self, {{{items}}})", namespace)
    return namespace[name]


def store_methods(make: Callable[[Op], Callable[..., Any]]) -> Callable[[type], type]:
    """Class decorator: implement the whole store surface from the table.

    Defines ``make(op)`` as the method for every store op on the
    decorated :class:`TaskStore` subclass (named and documented like the
    ABC method it implements), so a proxy or wrapper cannot drift from
    the contract by missing an op or restating a default.
    """

    def decorate(cls: type) -> type:
        for op in OPS.values():
            if op.on_store:
                method = make(op)
                method.__name__ = op.name
                method.__qualname__ = f"{cls.__qualname__}.{op.name}"
                method.__doc__ = getattr(TaskStore, op.name).__doc__
                setattr(cls, op.name, method)
        abc.update_abstractmethods(cls)
        return cls

    return decorate
