"""Generated properties of the frame codec (header line + attachments).

For any JSON-shaped message whose strings are of any size and content —
NUL, newlines, non-BMP characters, lone surrogates, lengths on both
sides of ``ATTACH_MIN`` — decoding the encoded frame gives the message
back, the stream reader consumes exactly one frame, no string of
``ATTACH_MIN`` characters or more is ever escaped into the header, and a
message without such a string keeps today's plain-JSON bytes.  The
reference is Python's own JSON round trip: every message that survives
``json.loads(json.dumps(m))`` must survive this codec unchanged.
"""

from __future__ import annotations

import copy
import io
import json

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


@settings(max_examples=150, deadline=None)
@given(_any_messages)
def test_round_trip_is_exact(message):
    assume(_survives_json(message))
    before = copy.deepcopy(message)
    frame = protocol.encode_message(message)
    assert message == before  # the encoder copies, never mutates
    assert protocol.parse_frame(frame) == message
    decoded, size = protocol.read_frame(io.BytesIO(frame + frame))
    assert decoded == message and size == len(frame)


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
