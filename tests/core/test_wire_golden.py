"""Golden wire frames: every RPC's bytes and decoded types, pinned.

One representative call per op (defaults left implicit) plus the
optional-field variants goes client → frame tap → live ``TaskService``
over a scripted duck-typed store.  For each call the tap records the
exact request frame (id normalised) and response frame — header line
plus attachments — the scripted store records the keyword arguments the
service dispatched, and the client's decoded return value is captured by
``repr`` — type-exact, so a tuple that became a list, a reordered key,
or a dropped default all change the record.  The cases at the end carry
strings of ``ATTACH_MIN`` characters or more; the record names each such
string (``<BIG>``, ...) instead of spelling it out.

The committed fixture was recorded at commit 73c8cf9 (the hand-written
stubs and dispatch ladder).  Protocol version 2 changed exactly one of
those records, the ``ping`` response's version, and appended the
attachment cases; the ``report_pop`` case was appended with that op.
Retiring the single-row ops ``create_task``, ``report`` and ``pop_in``
deleted their seven records and appended ``create_tasks/all``, which
carries the retired ``create_task/all`` keywords on the batch op.
When the service began parking long-polls itself instead of blocking in
the store, the three wait cases' ``store_call`` lost its ``wait``
keyword; their request and response bytes are unchanged.  Retiring the
result cache deleted the seven ``cache_*`` records.
Every other record is the original recording.
Re-record only for a deliberate wire change::

    PYTHONPATH=src python tests/core/test_wire_golden.py --record
"""

from __future__ import annotations

import json
import re
import socket
import sys
import threading
from pathlib import Path
from typing import Any

from repro.core import RemoteTaskStore, TaskService
from repro.db.schema import TaskRow, TaskStatus
from repro.db.waits import WaitRegistry
from repro.telemetry.metrics import MetricsRegistry
from repro.util.clock import VirtualClock
from repro.util.errors import NotFoundError

FIXTURE = Path(__file__).parent / "fixtures" / "wire_golden.json"

_ROW = TaskRow(
    eq_task_id=4, eq_task_type=1, eq_status=TaskStatus.RUNNING,
    worker_pool="w", json_out='{"x": 1}', json_in=None, time_created=1.0,
    time_start=2.0, time_stop=None, lease_expiry=32.0, eq_priority=5,
    tags=["a", "b"],
)
_PROFILE = {"task_id": 1, "work_type": 0, "cpu_seconds": 0.5}
_STATS = {
    "tasks": {"queued": 1, "running": 0, "complete": 2, "canceled": 0, "total": 3},
    "queue_out": {"0": 1}, "queue_out_total": 1, "queue_in": 2,
    "leases": {"active": 0, "expired": 0, "unleased_running": 0},
}

#: Strings at and around the attachment threshold, by record name: a
#: 5 KiB text with non-ASCII, non-BMP and newline characters, one of
#: exactly ``ATTACH_MIN`` characters, and one a character short (which
#: stays inline in the header).
_BIGS = {
    "BIG": "5 KiB ü€😀\n" * 512,
    "EXACT": "x" * 4096,
    "UNDER": "y" * 4095,
}
_BIG, _EXACT, _UNDER = _BIGS.values()
_BIG_ROW = TaskRow(
    eq_task_id=7, eq_task_type=0, eq_status=TaskStatus.COMPLETE,
    worker_pool="w", json_out=_BIG, json_in=_EXACT, time_created=1.0,
    time_start=2.0, time_stop=3.0,
)

#: (case name, method, args, kwargs, scripted store return or exception).
CASES: list[tuple[str, str, tuple, dict, Any]] = [
    ("create_tasks", "create_tasks", ("exp", 1, ("a", "b")), {}, [1, 2]),
    ("create_tasks/seq-priority", "create_tasks", ("exp", 1, ["a", "b"]),
     {"priority": (3, 4), "tag": "t", "time_created": 2.5}, [3, 4]),
    ("pop_out", "pop_out", (0,), {}, [(1, "a")]),
    ("pop_out/all", "pop_out", (0, 2),
     {"worker_pool": "w", "now": 2.0, "lease": 30.0}, [(1, "a"), (2, "b")]),
    ("pop_out/wait", "pop_out", (0,), {"wait": 0.25}, [(1, "a")]),
    ("pop_out/wait-tiny", "pop_out", (0,), {"wait": 0.0004}, []),
    ("pop_out/wait-zero", "pop_out", (0,), {"wait": 0}, []),
    ("queue_out_length", "queue_out_length", (), {}, 3),
    ("queue_out_length/type", "queue_out_length", (2,), {}, 1),
    ("report_batch", "report_batch", ([(1, 0, "r1"), (2, 0, "r2")],),
     {"now": 3.0}, None),
    ("report_batch/profiles", "report_batch", (((1, 0, "r1"),),),
     {"profiles": {1: _PROFILE}}, None),
    ("report_batch/empty", "report_batch", ([],), {}, None),
    ("telemetry", "telemetry",
     ({"worker_id": "pool-a", "interval": 5.0, "n_workers": 2},), {}, None),
    ("pop_in_any", "pop_in_any", (range(1, 4),), {},
     [(1, "r1"), (3, "r3")]),
    ("pop_in_any/limit-wait", "pop_in_any", ([1, 2],),
     {"limit": 1, "wait": 1.5}, [(2, "r2")]),
    ("queue_in_length", "queue_in_length", (), {}, 2),
    ("get_task", "get_task", (4,), {}, _ROW),
    ("get_task/bare", "get_task", (5,), {}, TaskRow(5, 0)),
    ("get_task/missing", "get_task", (6,), {},
     NotFoundError("no task with id 6")),
    ("get_statuses", "get_statuses", ((1, 2),), {},
     [(1, TaskStatus.QUEUED), (2, TaskStatus.COMPLETE)]),
    ("get_priorities", "get_priorities", ([1, 2],), {}, [(1, 5), (2, 0)]),
    ("update_priorities", "update_priorities", ([1, 2], 7), {}, 2),
    ("update_priorities/seq", "update_priorities", ((1, 2), (3, 4)), {}, 1),
    ("cancel_tasks", "cancel_tasks", ((1, 2),), {}, 1),
    ("requeue", "requeue", (1,), {}, True),
    ("requeue/priority", "requeue", (1,), {"priority": 3}, False),
    ("renew_leases", "renew_leases", ((1, 2),), {"now": 1.0, "lease": 5.0}, 2),
    ("requeue_expired", "requeue_expired", (), {"now": 9.0}, [1, 2]),
    ("requeue_expired/priority", "requeue_expired", (),
     {"now": 9.0, "priority": 4}, []),
    ("tasks_for_experiment", "tasks_for_experiment", ("exp",), {}, [1, 2]),
    ("tasks_for_tag", "tasks_for_tag", ("t",), {}, [2]),
    ("stats", "stats", (), {}, _STATS),
    ("stats/now", "stats", (), {"now": 5.0}, _STATS),
    ("max_task_id", "max_task_id", (), {}, 9),
    ("clear", "clear", (), {}, None),
    # Attachments (protocol version 2).
    ("create_tasks/attachment", "create_tasks", ("exp", 1, ["a", _BIG, "b"]),
     {}, [5, 6, 7]),
    ("pop_out/attachment", "pop_out", (0, 2), {}, [(5, "a"), (6, _BIG)]),
    ("report_batch/attachments", "report_batch",
     ([(5, 1, "r"), (6, 1, _BIG), (7, 1, _UNDER), (8, 1, _EXACT)],), {}, None),
    ("get_task/attachments", "get_task", (7,), {}, _BIG_ROW),
    # The fused flush-and-refill op, appended with it.
    ("report_pop", "report_pop", ([(1, 0, "r1")], 0, 2),
     {"worker_pool": "w", "now": 3.0, "lease": 30.0, "profiles": {1: _PROFILE}},
     [(2, "a"), (3, "b")]),
    # Every keyword of the retired single-row create, on the batch op.
    ("create_tasks/all", "create_tasks", ("exp", 0, ["p"]),
     {"priority": 5, "tag": "t", "time_created": 1.5}, [8]),
]


class _ScriptedStore:
    """Duck-typed store: returns the scripted value, records the call.
    It writes nothing, so its wait registry (which the service parks
    long-polls on) is never fed."""

    def __init__(self) -> None:
        self.outcome: Any = None
        self.calls: list[tuple[str, dict]] = []
        self.waits = WaitRegistry()

    def wake_waiters(self) -> None:
        pass

    def __getattr__(self, name: str) -> Any:
        def method(**kwargs: Any) -> Any:
            self.calls.append((name, kwargs))
            if isinstance(self.outcome, Exception):
                raise self.outcome
            return self.outcome

        return method


def _read_frame(stream: Any) -> bytes:
    """One whole frame off ``stream``: the header line, then the
    attachment bytes it declares (``b""`` at EOF)."""
    header = stream.readline()
    if not header:
        return b""
    attachments = json.loads(header).get("att", [])
    return header + stream.read(sum(nbytes for _path, nbytes in attachments))


class _FrameTap:
    """Lockstep frame proxy logging each (request, response) frame pair."""

    def __init__(self, upstream: tuple[str, int]) -> None:
        self._upstream = upstream
        self.frames: list[tuple[bytes, bytes]] = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()[:2]
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self) -> None:
        while True:
            try:
                client, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(target=self._serve, args=(client,), daemon=True).start()

    def _serve(self, client: socket.socket) -> None:
        with client, socket.create_connection(self._upstream) as upstream:
            requests, responses = client.makefile("rb"), upstream.makefile("rb")
            while request := _read_frame(requests):
                upstream.sendall(request)
                response = _read_frame(responses)
                # Logged before the client can see the response, so the
                # pair is in place by the time the client call returns.
                self.frames.append((request, response))
                client.sendall(response)

    def close(self) -> None:
        self._listener.close()


def _abbreviate(text: str) -> str:
    """Name each string of ``_BIGS`` where it appears raw (a frame's
    attachment) or as its ``repr`` (dispatched kwargs, decoded values)."""
    for name, big in _BIGS.items():
        for form in (big, repr(big)[1:-1]):
            text = text.replace(form, f"<{name}>")
    return text


def _normalise(frame: bytes) -> str:
    return _abbreviate(re.sub(r'^\{"id":\d+,', '{"id":0,', frame.decode("utf-8")))


def record_all() -> dict[str, dict[str, Any]]:
    """Drive every case; returns ``{case: record}`` (JSON-ready)."""
    store = _ScriptedStore()
    service = TaskService(
        store, clock=VirtualClock(), metrics=MetricsRegistry()  # type: ignore[arg-type]
    ).start()
    tap = _FrameTap(service.address)
    client = RemoteTaskStore(*tap.address, metrics=MetricsRegistry())
    records: dict[str, dict[str, Any]] = {}
    try:
        ping = tap.frames[0]
        records["ping"] = {
            "request": _normalise(ping[0]), "response": _normalise(ping[1]),
            "store_call": None, "decoded": None,
        }
        for case, method, args, kwargs, outcome in CASES:
            store.outcome = outcome
            store.calls.clear()
            del tap.frames[:]
            try:
                decoded = repr(getattr(client, method)(*args, **kwargs))
            except Exception as exc:  # noqa: BLE001 - the raise is the record
                decoded = f"raises {exc!r}"
            # Wait RPCs open a fresh wait-channel connection, whose
            # handshake ping is not the frame under test.
            frames = [f for f in tap.frames if b'"method":"ping"' not in f[0]]
            assert len(frames) <= 1 and len(store.calls) <= 1, case
            records[case] = {
                "request": _normalise(frames[0][0]) if frames else None,
                "response": _normalise(frames[0][1]) if frames else None,
                "store_call": (
                    _abbreviate(repr(store.calls[0])) if store.calls else None
                ),
                "decoded": _abbreviate(decoded),
            }
    finally:
        client.close()
        tap.close()
        service.stop()
    return records


def test_every_case_matches_the_parent_recording():
    golden = json.loads(FIXTURE.read_text())
    records = record_all()
    assert list(records) == list(golden)
    for case, record in records.items():
        assert record == golden[case], case


def test_every_op_has_a_golden_case():
    from repro.core.ops import OPS

    assert {method for _c, method, *_ in CASES} | {"ping"} == set(OPS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(record_all(), indent=1) + "\n")
    print(f"recorded {len(CASES) + 1} cases to {FIXTURE}")
