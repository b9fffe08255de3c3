"""Protocol framing limits, attachments and hostile frames.

The reader must bound per-frame memory (a peer streaming an endless
line, or declaring endless attachments, would otherwise grow a buffer
without limit), the attachment codec must be exact, and a malformed frame
must drop the connection on either side and never leave it in use.
Neither side holds a whole frame: the writer and the reader stay
within about one send chunk of the message's own strings.  The
generated round-trip properties live in ``test_protocol_properties.py``.
"""

from __future__ import annotations

import io
import json
import socket
import threading
import tracemalloc

import pytest

from repro.core import RemoteTaskStore, TaskService, protocol
from repro.core.service_client import RetryPolicy
from repro.db import SqliteTaskStore
from repro.util.errors import (
    ConnectionBrokenError,
    SerializationError,
    ServiceUnavailableError,
)

BIG = "ü\x00\n😀\ud800" * 1000  # 5 000 characters, every awkward kind


def _frame(header: dict, body: bytes = b"") -> bytes:
    return json.dumps(header).encode() + b"\n" + body


#: Frames whose header is malformed in each of the ways the codec must
#: refuse before reading a body byte.
HOSTILE_HEADERS = {
    "att-not-a-list": {"id": 1, "x": None, "att": {"x": 3}},
    "entry-not-a-pair": {"id": 1, "x": None, "att": [[["x"]]]},
    "negative-length": {"id": 1, "x": None, "att": [[["x"], -1]]},
    "float-length": {"id": 1, "x": None, "att": [[["x"], 3.0]]},
    "bool-length": {"id": 1, "x": None, "att": [[["x"], True]]},
    "path-not-a-list": {"id": 1, "x": None, "att": [["x", 3]]},
    "empty-path": {"id": 1, "x": None, "att": [[[], 3]]},
    "missing-key": {"id": 1, "x": None, "att": [[["y"], 3]]},
    "index-out-of-range": {"id": 1, "x": [None], "att": [[["x", 1], 3]]},
    "negative-index": {"id": 1, "x": [None], "att": [[["x", -1], 3]]},
    "str-index-into-list": {"id": 1, "x": [None], "att": [[["x", "0"], 3]]},
    "int-key-into-dict": {"id": 1, "x": {"0": None}, "att": [[["x", 0], 3]]},
    "non-null-target": {"id": 1, "x": "set", "att": [[["x"], 3]]},
    "same-slot-twice": {"id": 1, "x": None, "att": [[["x"], 1], [["x"], 2]]},
    "path-through-att": {"id": 1, "att": [[["att"], 3]]},
}


class TestMaxFrame:
    def test_oversized_frame_raises(self):
        stream = io.BytesIO(b"x" * 100 + b"\n")
        with pytest.raises(SerializationError, match="max frame size"):
            protocol.read_frame(stream, max_frame=50)

    def test_oversized_frame_without_newline_raises(self):
        # A never-terminated line must fail at the cap, not at EOF.
        stream = io.BytesIO(b"x" * 1000)
        with pytest.raises(SerializationError, match="max frame size"):
            protocol.read_frame(stream, max_frame=50)

    def test_frame_at_limit_passes(self):
        frame = protocol.encode_message({"id": 1})
        message, size = protocol.read_frame(
            io.BytesIO(frame), max_frame=len(frame)
        )
        assert message == {"id": 1}
        assert size == len(frame)

    def test_frame_one_byte_over_limit_raises(self):
        # Regression: the client used to accept a newline-terminated
        # line of max_frame + 1 bytes that the service refused.
        frame = protocol.encode_message({"id": 1})
        with pytest.raises(SerializationError, match="max frame size"):
            protocol.read_frame(io.BytesIO(frame), max_frame=len(frame) - 1)

    def test_one_bound_for_both_sides(self):
        protocol.check_frame_size(protocol.MAX_FRAME_BYTES)
        with pytest.raises(SerializationError, match="max frame size"):
            protocol.check_frame_size(protocol.MAX_FRAME_BYTES + 1)

    def test_attachments_count_toward_the_limit(self):
        frame = protocol.encode_message({"id": 1, "x": BIG})
        head = frame.index(b"\n") + 1
        assert protocol.read_frame(io.BytesIO(frame), max_frame=len(frame))[1] == len(frame)
        stream = io.BytesIO(frame)
        with pytest.raises(SerializationError, match="max frame size"):
            protocol.read_frame(stream, max_frame=len(frame) - 1)
        # Refused on the header alone: no attachment byte was read.
        assert stream.tell() == head

    def test_default_limit_is_generous(self):
        # Real payloads (fabric cap: 10 MB) fit far under the default.
        assert protocol.MAX_FRAME_BYTES >= 32 * 1024 * 1024

    def test_eof_still_returns_none(self):
        assert protocol.read_frame(io.BytesIO(b""), max_frame=10) == (None, 0)

    def test_eof_inside_header_raises(self):
        with pytest.raises(SerializationError, match="truncated"):
            protocol.read_frame(io.BytesIO(b'{"id": 1}'))


class TestAttachmentCodec:
    def test_small_strings_keep_the_plain_json_bytes(self):
        message = {"id": 1, "ok": True, "result": [[1, "y" * (protocol.ATTACH_MIN - 1)]]}
        expected = json.dumps(message, separators=(",", ":")).encode() + b"\n"
        assert protocol.encode_message(message) == expected

    def test_long_strings_ride_raw_after_the_header(self):
        text = "x" * protocol.ATTACH_MIN
        message = {"id": 2, "params": {"payloads": ["a", text, ("b", BIG)]}}
        frame = protocol.encode_message(message)
        header, body = frame.split(b"\n", 1)
        body_bytes = BIG.encode("utf-8", "surrogatepass")
        assert json.loads(header) == {
            "id": 2,
            "params": {"payloads": ["a", None, ["b", None]]},
            "att": [
                [["params", "payloads", 1], protocol.ATTACH_MIN],
                [["params", "payloads", 2, 1], len(body_bytes)],
            ],
        }
        # The header line is the only newline-delimited part: the
        # attachments keep their raw newlines and NULs.
        assert body == text.encode() + body_bytes
        assert protocol.parse_frame(frame) == {
            "id": 2, "params": {"payloads": ["a", text, ["b", BIG]]},
        }

    def test_awkward_text_is_exact(self):
        for text in (BIG, "\n" * 5000, "\x00" * 5000, "\udfff" * 4096, "😀" * 4096):
            frame = protocol.encode_message({"id": 1, "r": text})
            assert protocol.parse_frame(frame)["r"] == text

    def test_encoding_never_mutates_the_message(self):
        inner = (1, BIG)
        message = {"id": 1, "result": [inner], "params": {"x": BIG}}
        protocol.encode_message(message)
        assert message == {"id": 1, "result": [inner], "params": {"x": BIG}}
        assert message["result"][0] is inner

    def test_non_str_dict_keys_are_pathed_as_json_spells_them(self):
        message = {"id": 1, "params": {"profiles": {7: {"note": BIG}}}}
        decoded = protocol.parse_frame(protocol.encode_message(message))
        assert decoded == {"id": 1, "params": {"profiles": {"7": {"note": BIG}}}}

    def test_att_is_a_reserved_key(self):
        with pytest.raises(SerializationError, match="reserved"):
            protocol.encode_message({"id": 1, "att": []})

    def test_stream_reads_exactly_one_frame(self):
        frames = [
            protocol.encode_message({"id": i, "r": BIG if i % 2 else "s"})
            for i in range(4)
        ]
        stream = io.BytesIO(b"".join(frames))
        for i, frame in enumerate(frames):
            message, size = protocol.read_frame(stream)
            assert message == {"id": i, "r": BIG if i % 2 else "s"}
            assert size == len(frame)
        assert protocol.read_frame(stream) == (None, 0)


class TestHostileFrameCodec:
    @pytest.mark.parametrize("name", sorted(HOSTILE_HEADERS))
    def test_malformed_attachment_list_is_refused(self, name):
        frame = _frame(HOSTILE_HEADERS[name], b"abc")
        with pytest.raises(SerializationError):
            protocol.parse_frame(frame)
        stream = io.BytesIO(frame)
        with pytest.raises(SerializationError):
            protocol.read_frame(stream)
        # Refused on the header: the body was never read.
        assert stream.tell() == frame.index(b"\n") + 1

    def test_truncated_body_is_refused(self):
        frame = protocol.encode_message({"id": 1, "r": BIG})
        with pytest.raises(SerializationError, match="truncated"):
            protocol.read_frame(io.BytesIO(frame[:-1]))
        with pytest.raises(SerializationError):
            protocol.parse_frame(frame[:-1])

    def test_trailing_bytes_are_refused(self):
        frame = protocol.encode_message({"id": 1, "r": BIG})
        with pytest.raises(SerializationError):
            protocol.parse_frame(frame + b"x")

    def test_invalid_utf8_attachment_is_refused(self):
        frame = _frame({"id": 1, "r": None, "att": [[["r"], 2]]}, b"\xff\xfe")
        with pytest.raises(SerializationError):
            protocol.parse_frame(frame)


MiB = 1 << 20


def _traced_peak(fn) -> tuple[float, object]:
    """Bytes traced at ``fn``'s peak above what was live before it
    (its result included), in MiB, and the result."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - start) / MiB, result


class TestStreamingMemory:
    """64 attachments of 64 KiB (a 4 MiB frame): the writer holds one
    send chunk of it at a time, and the reader one attachment."""

    TEXTS = [chr(ord("a") + i % 26) * 65536 for i in range(64)]
    MESSAGE = {"id": 1, "method": "create_tasks", "params": {"payloads": TEXTS}}
    #: What the decoded message itself costs: its strings.
    STRINGS = sum(len(text) + 49 for text in TEXTS) / MiB

    def test_writer_holds_one_chunk_not_the_frame(self):
        sent = []
        peak, size = _traced_peak(
            lambda: protocol.write_frame(lambda chunk: sent.append(len(chunk)), self.MESSAGE)
        )
        assert size == sum(sent) == len(protocol.encode_message(self.MESSAGE))
        assert max(sent) <= protocol.SEND_BYTES
        assert peak < 2.5
        # The same frame built whole: bodies plus their join.
        whole, _ = _traced_peak(lambda: protocol.encode_message(self.MESSAGE))
        assert whole > 7.5

    def test_stream_reader_holds_one_attachment_not_the_frame(self):
        frame = protocol.encode_message(self.MESSAGE)
        stream = io.BufferedReader(io.BytesIO(frame))
        peak, (message, size) = _traced_peak(lambda: protocol.read_frame(stream))
        assert message == self.MESSAGE and size == len(frame)
        assert peak < self.STRINGS + 1.5


@pytest.fixture
def service():
    backing = SqliteTaskStore()
    svc = TaskService(backing).start()
    yield svc
    svc.stop()
    backing.close()


def _send_raw(service: TaskService, data: bytes, *, close_write: bool = False) -> bytes:
    """Send ``data`` on a fresh connection; return what the service
    answers before it closes (``b""``: dropped without a response)."""
    with socket.create_connection(service.address, timeout=5) as sock:
        sock.sendall(data)
        if close_write:
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
        return b"".join(chunks)


def _served(service: TaskService) -> bool:
    store = RemoteTaskStore(*service.address)
    try:
        return store.queue_out_length() == 0
    finally:
        store.close()


class TestHostileFramesAtTheService:
    def test_oversize_declared_total_is_refused_before_it_is_read(self, service):
        header = {
            "id": 1, "method": "report_batch",
            "params": {"reports": [[1, 0, None]]},
            "att": [[["params", "reports", 0, 2], protocol.MAX_FRAME_BYTES]],
        }
        # No body is sent: the drop comes from the header alone.
        assert _send_raw(service, _frame(header)) == b""
        assert _served(service)

    @pytest.mark.parametrize("name", sorted(HOSTILE_HEADERS))
    def test_malformed_attachment_list_drops_the_connection(self, service, name):
        assert _send_raw(service, _frame(HOSTILE_HEADERS[name], b"abc")) == b""
        assert _served(service)

    def test_truncated_body_drops_the_connection(self, service):
        frame = protocol.encode_message(
            {"id": 1, "method": "create_tasks",
             "params": {"exp_id": "e", "eq_type": 0, "payloads": [BIG]}}
        )
        assert _send_raw(service, frame[:-10], close_write=True) == b""
        assert service.store.queue_out_length() == 0  # nothing applied

    def test_frames_after_an_attachment_are_served_in_one_batch(self, service):
        frames = [
            protocol.encode_message(
                {"id": i, "method": "create_tasks",
                 "params": {"exp_id": "e", "eq_type": 0, "payloads": [BIG]}}
            )
            for i in range(1, 4)
        ]
        with socket.create_connection(service.address, timeout=5) as sock:
            sock.sendall(b"".join(frames))
            rfile = sock.makefile("rb")
            answers = [protocol.read_message(rfile) for _ in frames]
        assert [a["result"] for a in answers] == [[1], [2], [3]]
        assert service.store.pop_out(0, 3) == [(1, BIG), (2, BIG), (3, BIG)]


class _HostileServer:
    """A fake service: a correct handshake, then ``reply`` (raw bytes)
    to the next request, then EOF.  Counts the connections it accepted."""

    def __init__(self, reply: bytes) -> None:
        self._reply = reply
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()[:2]
        self.connections = 0
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            self.connections += 1
            threading.Thread(target=self._handle, args=(conn,), daemon=True).start()

    def _handle(self, conn: socket.socket) -> None:
        with conn:
            rfile = conn.makefile("rb")
            try:
                ping = protocol.read_message(rfile)
                protocol.write_frame(conn.sendall, protocol.ok_response(
                    ping["id"], {"version": protocol.PROTOCOL_VERSION}
                ))
                if protocol.read_message(rfile) is not None:
                    conn.sendall(self._reply)
            except (OSError, SerializationError):
                pass
            finally:
                rfile.close()

    def close(self) -> None:
        self._listener.close()


_FAST = RetryPolicy(max_attempts=2, base_delay=0.001, max_delay=0.002)

#: Replies the client must refuse, each answering request id 2 (the
#: first call after the handshake) so only the framing is wrong.
HOSTILE_REPLIES = {
    "oversize-declared": _frame(
        {"id": 2, "ok": True, "result": None,
         "att": [[["result"], protocol.MAX_FRAME_BYTES]]}
    ),
    "bad-length": _frame(
        {"id": 2, "ok": True, "result": None, "att": [[["result"], -4]]}
    ),
    "bad-path": _frame(
        {"id": 2, "ok": True, "result": None, "att": [[["nowhere"], 3]]}, b"abc"
    ),
    "non-null-target": _frame(
        {"id": 2, "ok": True, "result": 0, "att": [[["result"], 3]]}, b"abc"
    ),
    "truncated-body": _frame(
        {"id": 2, "ok": True, "result": None, "att": [[["result"], 100]]}, b"abc"
    ),
}


class TestHostileFramesAtTheClient:
    @pytest.mark.parametrize("name", sorted(HOSTILE_REPLIES))
    def test_idempotent_call_never_reuses_the_connection(self, name):
        server = _HostileServer(HOSTILE_REPLIES[name])
        try:
            client = RemoteTaskStore(*server.address, retry=_FAST, io_timeout=5.0)
            with pytest.raises(ServiceUnavailableError):
                client.queue_out_length()
            assert not client.connected
            # The handshake connection plus one fresh one per retry.
            assert server.connections == 2
            client.close()
        finally:
            server.close()

    def test_non_idempotent_call_breaks_without_retry(self):
        server = _HostileServer(HOSTILE_REPLIES["bad-path"])
        try:
            client = RemoteTaskStore(*server.address, retry=_FAST)
            with pytest.raises(ConnectionBrokenError):
                client.create_tasks("e", 0, ["p"])
            assert not client.connected
            assert server.connections == 1
            client.close()
        finally:
            server.close()

