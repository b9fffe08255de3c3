"""Wire protocol for the EMEWS task service.

Newline-delimited JSON over a stream socket: each request is one JSON
object ``{"id": n, "method": name, "params": {...}, "token": "..."}``
and each response ``{"id": n, "ok": true, "result": ...}`` or
``{"id": n, "ok": false, "error": {"type": ..., "message": ...}}``.

The method set maps one-to-one onto :class:`repro.db.TaskStore`, so a
remote client is just another store implementation — the paper's remote
hop (ME algorithm → SSH tunnel → EMEWS service → DB) becomes a
transport detail beneath the unchanged EQSQL API.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from typing import Any, BinaryIO

from repro.db.schema import TaskRow, TaskStatus
from repro.telemetry.tracing import SpanContext
from repro.util.errors import (
    AuthenticationError,
    NotFoundError,
    ReproError,
    SerializationError,
)

#: Protocol version, checked at connection time by the handshake.
PROTOCOL_VERSION = 1

#: Default upper bound on a single frame's wire size.  A peer that sends
#: a longer line (malicious, buggy, or simply not speaking this
#: protocol) would otherwise make ``readline`` buffer without limit;
#: past this the reader raises :class:`SerializationError` instead.
#: Generous relative to real payloads (the fabric caps task payloads at
#: 10 MB, funcX-style) while still bounding memory per connection.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Exception types that cross the wire by name.
_ERROR_TYPES: dict[str, type[Exception]] = {
    "NotFoundError": NotFoundError,
    "AuthenticationError": AuthenticationError,
    "ValueError": ValueError,
    "TypeError": TypeError,
    "ReproError": ReproError,
}


def encode_message(message: dict[str, Any]) -> bytes:
    """Serialize one message to its wire frame (newline included)."""
    data = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if b"\n" in data:
        # json.dumps never emits raw newlines, but guard the invariant
        # the framing depends on.
        raise SerializationError("protocol message contains a newline")
    return data + b"\n"


def write_message(stream: BinaryIO, message: dict[str, Any]) -> int:
    """Write one newline-delimited JSON message and flush.

    Returns the frame size in bytes (newline included) so callers can
    keep wire-traffic counters without re-serializing.
    """
    frame = encode_message(message)
    stream.write(frame)
    stream.flush()
    return len(frame)


def write_messages(stream: BinaryIO, messages: Iterable[dict[str, Any]]) -> int:
    """Write many frames as one coalesced send with a single flush.

    The pipelining primitive: N lockstep ``write_message`` calls cost N
    syscalls (and, without TCP_NODELAY, N Nagle stalls); coalescing puts
    the whole batch in one segment train.  Returns total bytes written.
    """
    buf = b"".join([encode_message(m) for m in messages])
    if buf:
        stream.write(buf)
        stream.flush()
    return len(buf)


def parse_frame(line: bytes) -> dict[str, Any]:
    """Decode one newline-delimited frame (the bytes of a single line).

    Shared by the stream reader and byte-buffer readers (the service's
    batch-per-recv loop) so framing errors are classified identically.
    """
    try:
        message = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise SerializationError(f"malformed protocol frame: {exc}") from exc
    if not isinstance(message, dict):
        raise SerializationError("protocol frame is not a JSON object")
    return message


def read_frame(
    stream: BinaryIO, max_frame: int = MAX_FRAME_BYTES
) -> tuple[dict[str, Any] | None, int]:
    """Read one message plus its wire size; ``(None, 0)`` on clean EOF.

    ``max_frame`` bounds the bytes buffered for a single frame; an
    overlong line raises :class:`SerializationError` rather than growing
    the buffer without limit.
    """
    line = stream.readline(max_frame + 1)
    if not line:
        return None, 0
    if len(line) > max_frame and not line.endswith(b"\n"):
        raise SerializationError(
            f"protocol frame exceeds max frame size ({max_frame} bytes)"
        )
    return parse_frame(line), len(line)


def read_message(stream: BinaryIO) -> dict[str, Any] | None:
    """Read one message; None on clean EOF."""
    return read_frame(stream)[0]


def inject_trace(message: dict[str, Any], ctx: SpanContext | None) -> None:
    """Attach a span context to a request frame (no-op for None).

    The ``trace`` field is optional and ignored by older peers, so
    traced and untraced clients interoperate freely.
    """
    if ctx is not None:
        message["trace"] = ctx.to_wire()


def extract_trace(message: dict[str, Any]) -> SpanContext | None:
    """The span context carried by a frame, if any (malformed → None)."""
    return SpanContext.from_wire(message.get("trace"))


def error_response(request_id: Any, exc: Exception) -> dict[str, Any]:
    """Build the error response for a failed request."""
    return {
        "id": request_id,
        "ok": False,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }


def ok_response(request_id: Any, result: Any) -> dict[str, Any]:
    """Build the success response for a request."""
    return {"id": request_id, "ok": True, "result": result}


def remote_error(error: dict[str, Any]) -> Exception:
    """Build the client-side exception for a server-side error frame,
    preserving its type where the type is part of the store contract."""
    exc_type = _ERROR_TYPES.get(error.get("type", ""), ReproError)
    return exc_type(error.get("message", "remote error"))


def task_row_to_dict(row: TaskRow) -> dict[str, Any]:
    """Serialize a TaskRow for the wire."""
    return {
        "eq_task_id": row.eq_task_id,
        "eq_task_type": row.eq_task_type,
        "eq_status": int(row.eq_status),
        "worker_pool": row.worker_pool,
        "json_out": row.json_out,
        "json_in": row.json_in,
        "time_created": row.time_created,
        "time_start": row.time_start,
        "time_stop": row.time_stop,
        "lease_expiry": row.lease_expiry,
        "eq_priority": row.eq_priority,
        "tags": row.tags,
    }


def task_row_from_dict(data: dict[str, Any]) -> TaskRow:
    """Deserialize a TaskRow from the wire."""
    return TaskRow(
        eq_task_id=data["eq_task_id"],
        eq_task_type=data["eq_task_type"],
        eq_status=TaskStatus(data["eq_status"]),
        worker_pool=data.get("worker_pool"),
        json_out=data["json_out"],
        json_in=data.get("json_in"),
        time_created=data["time_created"],
        time_start=data.get("time_start"),
        time_stop=data.get("time_stop"),
        lease_expiry=data.get("lease_expiry"),
        # .get with a default keeps wire compat with pre-sticky-priority
        # services that do not send the field.
        eq_priority=int(data.get("eq_priority", 0)),
        tags=list(data.get("tags", [])),
    )
