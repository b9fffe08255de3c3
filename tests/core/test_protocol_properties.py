"""Generated properties of the frame codec (header line + attachments).

For any JSON-shaped message whose strings are of any size and content —
NUL, newlines, non-BMP characters, lone surrogates, lengths on both
sides of ``ATTACH_MIN`` — decoding the encoded frame gives the message
back, the stream reader consumes exactly one frame, no string of
``ATTACH_MIN`` characters or more is ever escaped into the header, and a
message without such a string keeps today's plain-JSON bytes.  The
reference is Python's own JSON round trip: every message that survives
``json.loads(json.dumps(m))`` must survive this codec unchanged.

The codec streams, so the same properties are checked at any chunk
boundary: the writer's chunks (under a drawn chunk size) concatenate to
the one frame, and the stream reader rebuilds the message from a socket
that hands it out in any split (inside the header line and inside a
multi-byte character included).
"""

from __future__ import annotations

import copy
import io
import json
import re
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import protocol

_AWKWARD = ["\x00", "\n", "\r", "\ud800", "\udfff", "😀", "é", "\"", "\\", " "]

_chars = st.one_of(st.characters(), st.sampled_from(_AWKWARD))
_short = st.text(_chars, max_size=12)


@st.composite
def _sized(draw: st.DrawFn) -> str:
    """A string of a drawn length near or past the attachment threshold,
    tiled from a short drawn unit (so it stays cheap to generate)."""
    unit = draw(st.text(_chars, min_size=1, max_size=6))
    n = draw(st.integers(protocol.ATTACH_MIN - 2, 2 * protocol.ATTACH_MIN + 3))
    return (unit * (n // len(unit) + 1))[:n]


def _messages(strings: st.SearchStrategy[str]) -> st.SearchStrategy[dict]:
    """Nested JSON-shaped messages whose string values come from
    ``strings`` (keys are short; the reserved ``att`` is not drawn at
    the top level)."""
    scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(2**63), 2**63),
        st.floats(allow_nan=False, allow_infinity=False),
        strings,
    )
    values = st.recursive(
        scalars,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(_short, children, max_size=4),
        ),
        max_leaves=10,
    )
    return st.dictionaries(
        _short.filter(lambda key: key != "att"), values, max_size=5
    )


_any_messages = _messages(st.one_of(_short, _sized()))
_small_messages = _messages(
    st.one_of(_short, _sized().map(lambda s: s[: protocol.ATTACH_MIN - 1]))
)


def _survives_json(message: dict) -> bool:
    # Adjacent high+low lone surrogates merge into one character on a
    # JSON round trip; such strings are outside what the wire carried
    # before attachments, so they are outside the property too.
    return json.loads(json.dumps(message)) == message


def _strings_in(node: object):
    if isinstance(node, str):
        yield node
    elif isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from _strings_in(value)
    elif isinstance(node, list):
        for value in node:
            yield from _strings_in(value)


class _Pieces(io.RawIOBase):
    """A raw stream that hands out ``pieces`` one ``recv`` at a time, as
    a socket hands out what has arrived (a read may stop short)."""

    def __init__(self, pieces: list[bytes]) -> None:
        self._pieces = pieces[::-1]

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        if not self._pieces:
            return 0
        piece = self._pieces.pop()
        n = min(len(buffer), len(piece))
        buffer[:n] = piece[:n]
        if n < len(piece):
            self._pieces.append(piece[n:])
        return n


#: The first byte of a multi-byte UTF-8 sequence.
_UTF8_LEAD = re.compile(rb"[\xc0-\xff]")


def _splits(frame: bytes, sizes: list[int]) -> list[bytes]:
    """``frame`` cut into pieces of the drawn ``sizes`` (cycled), with
    extra cuts inside the header line and inside the first multi-byte
    character after it."""
    head = frame.index(b"\n") + 1
    cuts = {head // 2, head}
    lead = _UTF8_LEAD.search(frame, head)
    if lead is not None:
        cuts.add(lead.start() + 1)
    at, turn = 0, 0
    while at < len(frame):
        at += sizes[turn % len(sizes)]
        turn += 1
        cuts.add(at)
    bounds = [0, *sorted(c for c in cuts if 0 < c < len(frame)), len(frame)]
    return [frame[a:b] for a, b in zip(bounds, bounds[1:])]


@settings(max_examples=150, deadline=None)
@given(
    _any_messages,
    st.lists(st.integers(1, 3 * protocol.ATTACH_MIN), min_size=1, max_size=6),
    st.integers(8, 3 * protocol.ATTACH_MIN),
)
def test_round_trip_is_exact(message, sizes, send_bytes):
    assume(_survives_json(message))
    before = copy.deepcopy(message)
    frame = protocol.encode_message(message)
    assert message == before  # the encoder copies, never mutates
    assert protocol.parse_frame(frame) == message
    decoded, size = protocol.read_frame(io.BytesIO(frame + frame))
    assert decoded == message and size == len(frame)
    # Streamed under a drawn chunk size, attachments are cut into
    # pieces; the bytes on the wire do not change.
    chunks: list[bytes] = []
    with mock.patch.object(protocol, "SEND_BYTES", send_bytes):
        assert protocol.write_frame(chunks.append, message) == len(frame)
    assert b"".join(chunks) == frame
    assert all(len(chunk) <= send_bytes for chunk in chunks[1:])
    # Read through a socket's buffered file, two frames sent back to
    # back in any split come out whole, in order.
    stream = io.BufferedReader(_Pieces(_splits(frame + frame, sizes)))
    assert protocol.read_frame(stream) == (message, len(frame))
    assert protocol.read_frame(stream) == (message, len(frame))
    assert protocol.read_frame(stream) == (None, 0)


@settings(max_examples=150, deadline=None)
@given(_any_messages)
def test_no_long_string_is_escaped_into_the_header(message):
    assume(_survives_json(message))
    frame = protocol.encode_message(message)
    header = json.loads(frame[: frame.index(b"\n")])
    att = header.pop("att", [])
    assert all(len(s) < protocol.ATTACH_MIN for s in _strings_in(header))
    # Keys are drawn short, so every long string is a value: one
    # attachment each.
    assert len(att) == sum(
        len(s) >= protocol.ATTACH_MIN for s in _strings_in(message)
    )


@settings(max_examples=150, deadline=None)
@given(_small_messages)
def test_frames_without_a_long_string_are_plain_json(message):
    expected = json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"
    assert protocol.encode_message(message) == expected
