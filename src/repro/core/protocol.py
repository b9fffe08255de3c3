"""Wire protocol for the EMEWS task service.

Each message is a JSON object — a request ``{"id": n, "method": name,
"params": {...}, "token": "..."}``, a response ``{"id": n, "ok": true,
"result": ...}`` or ``{"id": n, "ok": false, "error": {"type": ...,
"message": ...}}`` — sent over a stream socket as one **frame**: a JSON
header line, then zero or more raw UTF-8 *attachments*::

    {"id":3,"method":"report_batch","params":{"reports":[[7,0,null]],
     "now":0.0},"att":[[["params","reports",0,2],65536]]}\\n
    <the 65 536 bytes of the result text>

Every ``str`` value of at least :data:`ATTACH_MIN` characters, wherever
it sits in the message, travels as an attachment: the header carries
``null`` in its place, and the reserved top-level key ``att`` lists one
``[path, nbytes]`` pair per attachment, in body order.  A path is the
list of dict keys and list indexes leading to that ``null``; no user
string is ever interpreted, so nothing can collide with a marker.
Attachment text is encoded ``"utf-8", "surrogatepass"``, so every string
that survives a JSON round trip (NUL, newlines, non-BMP characters, lone
surrogates) survives this one.  Nobody JSON-escapes, parses or scans a
large string.  A message without such a string has no ``att`` key, and
its frame is exactly the compact ``json.dumps`` line plus ``"\\n"``.

Frames stream: no process holds one whole.  The writer
(:func:`frame_chunks`, :func:`write_frame`) sizes every attachment first
— ``len`` for ASCII text, else a measuring encode — sends the header
line, then encodes and sends the bodies in chunks of at most
:data:`SEND_BYTES`.  There is one decoder, :class:`FrameDecoder`, fed
bytes as they arrive, and two drivers of it: the service's event loop
feeds it whatever a non-blocking ``recv`` returns, and the client's
:func:`read_frame` feeds it from a blocking stream, reading exactly the
bytes it lacks.  The decoder checks the declared frame size from the
header before it takes a body byte, and decodes each attachment as soon
as its bytes are in, then drops them.  So per connection a frame costs
its decoded strings plus about one attachment or one chunk, however
large it is.

The method set maps one-to-one onto :class:`repro.db.TaskStore`, so a
remote client is just another store implementation — the paper's remote
hop (ME algorithm → SSH tunnel → EMEWS service → DB) becomes a
transport detail beneath the unchanged EQSQL API.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterator
from typing import Any, BinaryIO

from repro.db.schema import TaskRow, TaskStatus
from repro.telemetry.tracing import SpanContext
from repro.util.errors import (
    AuthenticationError,
    NotFoundError,
    ReproError,
    SerializationError,
)

#: Protocol version, checked at connection time by the handshake.  Version
#: 2 introduced attachments; a version-1 peer fails the handshake instead
#: of desyncing on its first large string.
PROTOCOL_VERSION = 2

#: Default upper bound on a single frame's wire size (header plus
#: attachments).  A peer that sends a longer header line or declares more
#: attachment bytes (malicious, buggy, or simply not speaking this
#: protocol) would otherwise make the reader buffer without limit; past
#: this the reader raises :class:`SerializationError` before reading on.
#: Generous relative to real payloads (the fabric caps task payloads at
#: 10 MB, funcX-style) while still bounding memory per connection.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Strings of at least this many characters ride as attachments.  Below
#: it, escaping inside the header costs less than an ``att`` entry and a
#: second copy; above it, escaping and parsing grow with the text while
#: an attachment costs one ``encode`` and one ``decode``.  Every control
#: frame (ids, priorities, small payloads) stays under it, so its bytes
#: are unchanged from version 1.
ATTACH_MIN = 4096

#: Most attachment bytes a writer encodes ahead of one send.  A frame is
#: built and sent in chunks of this size, not whole, so the sender's
#: transient copies stay this small however large the frame (compare
#: ``pool.FLUSH_BYTES``, the result text one flush carries).
SEND_BYTES = 1 << 20

#: ``json.dumps(obj, separators=(",", ":"))`` without building a new
#: encoder per call (every frame pays it, on both sides).
_compact = json.JSONEncoder(separators=(",", ":")).encode

#: The header key listing a frame's attachments.
_ATT = "att"

#: Leaf types the encoder's walk skips without a closer look.
_SCALARS = frozenset({int, float, bool, type(None)})

#: Lists up to this long are rows (a task pair, a report triple) the
#: walk checks inline; longer ones are first tested for holding only
#: numbers (an id list) in one C-level pass.
_ROW = 8

#: Stand-in written into a claimed attachment slot while the header is
#: validated, so a second path to the same slot finds it non-null.
_CLAIMED = object()


def check_frame_size(nbytes: int, max_frame: int = MAX_FRAME_BYTES) -> None:
    """Refuse a frame of ``nbytes`` (newline and attachments included)
    above ``max_frame`` — the one bound the service and client share."""
    if nbytes > max_frame:
        raise SerializationError(
            f"protocol frame exceeds max frame size ({max_frame} bytes)"
        )


#: Exception types that cross the wire by name.
_ERROR_TYPES: dict[str, type[Exception]] = {
    "NotFoundError": NotFoundError,
    "AuthenticationError": AuthenticationError,
    "ValueError": ValueError,
    "TypeError": TypeError,
    "ReproError": ReproError,
}


def _lift(node: Any, path: Any, found: list[tuple[Any, Any, str]]) -> Any:
    """``node`` with every long string below it replaced by ``None``.

    Appends ``(parent path, key, text)`` to ``found`` in JSON order.
    Only containers on the way to a lifted string are copied (a tuple
    becomes a list: the same JSON); the caller's message is never
    mutated.  ``path`` is a ``(parent, key)`` chain, materialised only
    for a lifted string.  Every frame pays this walk, so the common
    shapes — short strings, numbers, flat rows like a ``(task id,
    payload)`` pair — are settled by exact-type checks without a call.
    """
    is_dict = isinstance(node, dict)
    if not is_dict and len(node) > _ROW:
        try:
            # Succeeds only if every item is a number (a str, None or a
            # container raises at once): an id list, checked at C speed.
            sum(node)
            return node
        except TypeError:
            pass
    copy: Any = None
    for key, value in node.items() if is_dict else enumerate(node):
        kind = type(value)
        if kind is str:
            if len(value) < ATTACH_MIN:
                continue
        elif kind in _SCALARS:
            continue
        elif kind is list or kind is tuple:
            if len(value) <= _ROW:
                for item in value:
                    item_kind = type(item)
                    if item_kind is str:
                        if len(item) >= ATTACH_MIN:
                            break
                    elif item_kind not in _SCALARS:
                        break
                else:
                    continue  # a flat row with nothing to lift
        elif kind is not dict:
            # Subclasses (a str enum, a namedtuple) take the slow path;
            # anything else is not JSON and json.dumps raises on it.
            if isinstance(value, str):
                if len(value) < ATTACH_MIN:
                    continue
            elif not isinstance(value, (dict, list, tuple)):
                continue
        # A path names a dict key as the header spells it: json.dumps
        # turns a non-str key (an int task id, say) into its JSON text.
        step = key if not is_dict or type(key) is str else json.dumps(key)
        if isinstance(value, str):
            found.append((path, step, value))
            lifted = None
        else:
            lifted = _lift(value, (path, step), found)
            if lifted is value:
                continue
        if copy is None:
            copy = dict(node) if is_dict else list(node)
        copy[key] = lifted
    return node if copy is None else copy


def _path(parent: Any, key: Any) -> list[Any]:
    steps = [key]
    while parent is not None:
        parent, step = parent
        steps.append(step)
    steps.reverse()
    return steps


def _pieces(text: str) -> Iterator[bytes]:
    """``text`` encoded in consecutive pieces of at most
    :data:`SEND_BYTES`; their concatenation is its whole encoding.

    A ``str`` slice never splits a character, and ``surrogatepass``
    encodes each surrogate on its own, so slicing first changes no byte.
    """
    step = SEND_BYTES if text.isascii() else SEND_BYTES // 4
    for start in range(0, len(text), step):
        yield text[start : start + step].encode("utf-8", "surrogatepass")


def _utf8_len(text: str) -> int:
    """The encoded size of ``text``: ``len`` for ASCII (no encode),
    else a measuring encode whose bytes are dropped piece by piece."""
    if text.isascii():
        return len(text)
    return sum(map(len, _pieces(text)))


def frame_chunks(message: dict[str, Any]) -> Iterator[bytes]:
    """Yield one message's wire frame as consecutive chunks.

    The header line (newline included) leads the first chunk; the
    attachments follow, each encoded only when its chunk is built, in
    chunks of at most :data:`SEND_BYTES` (a header or a piece of a
    larger attachment may fill one alone).  A frame without
    attachments is one chunk.  Every encoding error is raised before
    the first chunk is yielded, so a sender that fails sends nothing.
    """
    if _ATT in message:
        raise SerializationError(f"{_ATT!r} is a reserved frame key")
    # json.dumps (ensure_ascii) never emits a raw newline, so the header
    # line ends exactly where the framing says it does.
    found: list[tuple[Any, Any, str]] = []
    header = _lift(message, None, found)
    if not found:
        yield _compact(message).encode("utf-8") + b"\n"
        return
    sizes = [_utf8_len(text) for _, _, text in found]
    header[_ATT] = [
        [_path(parent, key), nbytes] for (parent, key, _), nbytes in zip(found, sizes)
    ]
    group = [_compact(header).encode("utf-8"), b"\n"]
    held = len(group[0]) + 1
    for (_, _, text), nbytes in zip(found, sizes):
        if group and held + nbytes > SEND_BYTES:
            yield b"".join(group)
            group, held = [], 0
        if nbytes > SEND_BYTES:
            yield from _pieces(text)
        else:
            group.append(text.encode("utf-8", "surrogatepass"))
            held += nbytes
    if group:
        yield b"".join(group)


def encode_message(message: dict[str, Any]) -> bytes:
    """Serialize one message to its whole wire frame: the header line
    (newline included) followed by its attachments."""
    return b"".join(frame_chunks(message))


def write_frame(send: Callable[[bytes], Any], message: dict[str, Any]) -> int:
    """Send one message's frame through ``send`` (a socket's
    ``sendall``), chunk by chunk as :func:`frame_chunks` builds it.

    Returns the frame size in bytes (header and attachments) so callers
    can keep wire-traffic counters without re-serializing.
    """
    total = 0
    for chunk in frame_chunks(message):
        send(chunk)
        total += len(chunk)
        del chunk  # sent: not held while the next chunk is built
    return total


#: One attachment slot of a parsed header: (container, key, nbytes).
Slot = tuple[Any, Any, int]


def _step(node: Any, key: Any) -> Any:
    """``node[key]`` for a path step, or :class:`SerializationError`."""
    if type(node) is dict and type(key) is str and key in node:
        return node[key]
    if type(node) is list and type(key) is int and 0 <= key < len(node):
        return node[key]
    raise SerializationError(f"attachment path step {key!r} does not resolve")


def parse_header(line: bytes | bytearray) -> tuple[dict[str, Any], list[Slot], int]:
    """Decode a frame's header line.

    Returns the message (attachment slots still empty), its slots in
    body order, and the number of attachment bytes that follow the
    header.  Every ``att`` entry is checked here, before any body byte
    is read: a non-list, a length that is not a non-negative int, a path
    that does not resolve or whose target is not ``null`` (including a
    second path to one slot) raises :class:`SerializationError`.
    """
    try:
        message = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError included
        raise SerializationError(f"malformed protocol frame: {exc}") from exc
    if not isinstance(message, dict):
        raise SerializationError("protocol frame is not a JSON object")
    if _ATT not in message:
        return message, [], 0
    att = message.pop(_ATT)
    if type(att) is not list:
        raise SerializationError(f"malformed attachment list: {att!r}")
    slots: list[Slot] = []
    size = 0
    for entry in att:
        if type(entry) is not list or len(entry) != 2:
            raise SerializationError(f"malformed attachment entry: {entry!r}")
        path, nbytes = entry
        if type(nbytes) is not int or nbytes < 0:
            raise SerializationError(f"bad attachment length: {nbytes!r}")
        if type(path) is not list or not path:
            raise SerializationError(f"bad attachment path: {path!r}")
        node = message
        for key in path[:-1]:
            node = _step(node, key)
        key = path[-1]
        if _step(node, key) is not None:
            raise SerializationError(f"attachment target {path!r} is not null")
        node[key] = _CLAIMED
        slots.append((node, key, nbytes))
        size += nbytes
    return message, slots, size


def _decode(body: Any) -> str:
    """One attachment's text from exactly its bytes (any buffer)."""
    try:
        return str(body, "utf-8", "surrogatepass")
    except UnicodeDecodeError as exc:
        raise SerializationError(f"malformed attachment: {exc}") from exc


class FrameDecoder:
    """Frames out of a byte stream fed in arbitrary pieces (a socket's
    ``recv`` chunks, or a buffered stream's reads).

    :meth:`feed` returns every frame the new bytes complete.  The header
    newline is searched for only in bytes not searched before; once the
    header is parsed the whole frame size is known and checked against
    ``max_frame`` before another byte is taken, and each attachment is
    decoded as soon as its last byte is in, then its bytes are dropped.
    So the decoder holds at most a header line or one attachment, plus
    the piece just fed, never a whole frame; a piece that completes an
    attachment on its own is decoded in place, without a copy.  A
    framing error raises :class:`SerializationError`; the stream is then
    unusable.
    """

    def __init__(self, max_frame: int = MAX_FRAME_BYTES) -> None:
        self._max = max_frame
        self._buf = bytearray()
        self._scanned = 0  # bytes of the pending header searched for "\n"
        # The frame in progress once its header is parsed: the message,
        # its unfilled slots (last first) and its wire size.
        self._message: dict[str, Any] | None = None
        self._slots: list[Slot] = []
        self._size = 0

    @property
    def wants(self) -> int:
        """Bytes the attachment being read still lacks; 0 between frames
        and inside a header, whose length is not known ahead."""
        if self._message is None:
            return 0
        return self._slots[-1][2] - len(self._buf)

    @property
    def idle(self) -> bool:
        """Whether no part of a frame is held: end of stream here is clean."""
        return self._message is None and not self._buf

    def feed(self, data: bytes) -> list[tuple[dict[str, Any], int]]:
        """Take ``data``; return the ``(message, wire size)`` of every
        frame it completes, in stream order."""
        if self._buf:
            self._buf += data
            data = self._buf
        frames: list[tuple[dict[str, Any], int]] = []
        pos = 0  # start of the bytes not yet consumed
        end = len(data)
        while True:
            if self._message is None:
                newline = data.find(b"\n", pos + self._scanned)
                if newline < 0:
                    self._scanned = end - pos
                    # The header alone will be at least this long.
                    check_frame_size(self._scanned + 1, self._max)
                    break
                check_frame_size(newline + 1 - pos, self._max)  # before parsing it
                message, slots, size = parse_header(data[pos : newline + 1])
                size += newline + 1 - pos
                check_frame_size(size, self._max)
                pos, self._scanned = newline + 1, 0
                if not slots:
                    frames.append((message, size))
                    continue
                slots.reverse()
                self._message, self._slots, self._size = message, slots, size
            slots = self._slots
            while slots and end - pos >= slots[-1][2]:
                node, key, nbytes = slots.pop()
                with memoryview(data) as view:
                    node[key] = _decode(view[pos : pos + nbytes])
                pos += nbytes
            if slots:
                break
            frames.append((self._message, self._size))  # type: ignore[arg-type]
            self._message = None
        if data is self._buf:
            del self._buf[:pos]
        elif pos < end:
            with memoryview(data) as view:
                self._buf += view[pos:]
        return frames


def parse_frame(frame: bytes) -> dict[str, Any]:
    """Decode one whole frame: header line plus attachments."""
    decoder = FrameDecoder()
    frames = decoder.feed(frame)
    if len(frames) != 1 or not decoder.idle:
        raise SerializationError(
            f"expected one whole protocol frame, got {len(frames)}"
            + ("" if decoder.idle else " and a partial one")
        )
    return frames[0][0]


def read_frame(
    stream: BinaryIO, max_frame: int = MAX_FRAME_BYTES
) -> tuple[dict[str, Any] | None, int]:
    """Read one message plus its wire size; ``(None, 0)`` on clean EOF.

    A blocking driver of :class:`FrameDecoder`: it reads the header
    line, then exactly the bytes each attachment still lacks, so it
    never reads past the frame and frames a peer sends back to back are
    read one call each.  ``stream`` is buffered (a socket's
    ``makefile("rb")``), so a ``read`` comes back short only at EOF.

    ``max_frame`` bounds the whole frame: an overlong header line, or a
    header declaring more bytes than fit, raises
    :class:`SerializationError` before anything further is read, as does
    EOF inside a frame.
    """
    decoder = FrameDecoder(max_frame)
    line = stream.readline(max_frame + 1)
    if not line:
        return None, 0
    frames = decoder.feed(line)
    if not line.endswith(b"\n"):
        raise SerializationError("truncated protocol frame (EOF in header)")
    while not frames:
        data = stream.read(decoder.wants)
        if not data:
            raise SerializationError("truncated protocol frame (EOF in an attachment)")
        frames = decoder.feed(data)
    return frames[0]


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
