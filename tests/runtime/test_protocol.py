"""Tests for the runtime wire protocol."""

import asyncio
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.obs import TRACE_REQUESTED
from repro.runtime.protocol import (
    MAX_MESSAGE_BYTES,
    MalformedMessage,
    Message,
    decode_value,
    encode_value,
    read_message,
)

HEADER = struct.Struct(">BQ")


class TestMessage:
    def test_roundtrip(self):
        message = Message(type="get", id=7, fields={"key": "k", "tags": {"rpt": 1.5}})
        decoded = Message.decode(message.encode()[4:])
        assert decoded.type == "get"
        assert decoded.id == 7
        assert decoded.fields == {"key": "k", "tags": {"rpt": 1.5}}

    def test_invalid_type_rejected(self):
        with pytest.raises(ProtocolError):
            Message(type="steal", id=1)

    def test_invalid_id_rejected(self):
        with pytest.raises(ProtocolError):
            Message(type="get", id=-1)

    def test_decode_bad_json(self):
        with pytest.raises(ProtocolError, match="malformed"):
            Message.decode(b"{broken")

    def test_decode_unknown_type_code(self):
        with pytest.raises(MalformedMessage, match="unknown message type") as info:
            Message.decode(HEADER.pack(99, 5))
        assert info.value.message_id == 5

    def test_decode_missing_fields(self):
        # A header with no room for the get's key: the id is still known.
        with pytest.raises(MalformedMessage, match="malformed get body") as info:
            Message.decode(HEADER.pack(1, 9) + b"\x00")
        assert info.value.message_id == 9
        # Too short for even the header: plain protocol error.
        with pytest.raises(ProtocolError, match="too short"):
            Message.decode(b"\x01\x00")

    def test_decode_trailing_bytes(self):
        body = Message(type="stats", id=1).encode()[4:]
        with pytest.raises(MalformedMessage, match="trailing"):
            Message.decode(body + b"\x00")

    def test_encode_missing_field(self):
        with pytest.raises(ProtocolError, match="missing field"):
            Message(type="get", id=1, fields={}).encode()

    def test_length_prefix(self):
        raw = Message(type="get", id=1, fields={"key": "k"}).encode()
        length = int.from_bytes(raw[:4], "big")
        assert length == len(raw) - 4


class TestValues:
    def test_value_roundtrip(self):
        payload = bytes(range(256))
        assert decode_value(encode_value(payload)) == payload

    def test_bad_encoding_rejected(self):
        with pytest.raises(ProtocolError):
            decode_value("!!! not bytes !!!")
        with pytest.raises(ProtocolError):
            encode_value(None)

    def test_bytes_like_values_become_bytes(self):
        assert encode_value(bytearray(b"ab")) == b"ab"
        assert type(encode_value(memoryview(b"ab"))) is bytes

    def test_values_travel_raw(self):
        payload = bytes(range(256))
        frame = Message(type="put", id=1, fields={"key": "k", "value": payload}).encode()
        assert payload in frame


class TestStreamIO:
    def run(self, coro):
        return asyncio.run(coro)

    def test_write_then_read(self):
        async def scenario():
            reader = asyncio.StreamReader()
            message = Message(type="mget", id=3, fields={"keys": ["a", "b"]})
            reader.feed_data(message.encode())
            reader.feed_eof()
            received = await read_message(reader)
            assert received.type == "mget"
            assert received.fields["keys"] == ["a", "b"]

        self.run(scenario())

    def test_clean_eof_returns_none(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_eof()
            assert await read_message(reader) is None

        self.run(scenario())

    def test_mid_header_eof_raises(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(b"\x00\x00")  # truncated length prefix
            reader.feed_eof()
            with pytest.raises(ProtocolError, match="mid-header"):
                await read_message(reader)

        self.run(scenario())

    def test_mid_message_eof_raises(self):
        async def scenario():
            reader = asyncio.StreamReader()
            raw = Message(type="get", id=1, fields={"key": "k"}).encode()
            reader.feed_data(raw[:-2])  # drop the body's tail
            reader.feed_eof()
            with pytest.raises(ProtocolError, match="mid-message"):
                await read_message(reader)

        self.run(scenario())

    def test_oversized_declared_length_rejected(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data((MAX_MESSAGE_BYTES + 1).to_bytes(4, "big"))
            with pytest.raises(ProtocolError, match="exceeds limit"):
                await read_message(reader)

        self.run(scenario())

    def test_multiple_messages_in_sequence(self):
        async def scenario():
            reader = asyncio.StreamReader()
            for i in range(3):
                reader.feed_data(
                    Message(type="get", id=i, fields={"key": f"k{i}"}).encode()
                )
            reader.feed_eof()
            ids = []
            while True:
                message = await read_message(reader)
                if message is None:
                    break
                ids.append(message.id)
            assert ids == [0, 1, 2]

        self.run(scenario())


# ----------------------------------------------------------------------
# Properties of the binary codec
# ----------------------------------------------------------------------
texts = st.text(max_size=12)
floats = st.floats(allow_nan=False)
ids = st.integers(min_value=0, max_value=2**64 - 1)
tags = st.dictionaries(texts, floats, max_size=6).flatmap(
    lambda numbers: st.dictionaries(
        texts.filter(lambda name: name not in numbers), st.booleans(), max_size=2
    ).map(lambda flags: {**numbers, **flags})
) | st.just({"rpt": 0.5, TRACE_REQUESTED: True})
feedback = st.fixed_dictionaries({
    "queued_work": floats,
    "queue_length": st.integers(min_value=0, max_value=2**63 - 1),
    "rate_sample": floats,
})
json_scalars = st.none() | st.booleans() | st.integers(-(2**53), 2**53) | texts | st.floats(
    allow_nan=False, allow_infinity=False
)
json_objects = st.dictionaries(texts, json_scalars | st.lists(json_scalars, max_size=3), max_size=4)


@st.composite
def messages(draw):
    mtype = draw(st.sampled_from(
        ["get", "put", "mget", "stats", "probe", "reply", "load_report"]
    ))
    if mtype == "get":
        fields = {"key": draw(texts), "tags": draw(tags)}
    elif mtype == "put":
        fields = {"key": draw(texts), "value": draw(st.binary(max_size=64)), "tags": draw(tags)}
    elif mtype == "mget":
        fields = {"keys": draw(st.lists(texts, max_size=6)), "tags": draw(tags)}
    elif mtype == "reply":
        fields = {
            "ok": draw(st.booleans()),
            "error": draw(st.none() | texts),
            "values": draw(st.dictionaries(texts, st.none() | st.binary(max_size=64), max_size=6)),
            "feedback": draw(feedback),
        }
        if draw(st.booleans()):
            fields["in_flight"] = draw(st.integers(min_value=0, max_value=2**63 - 1))
        if draw(st.booleans()):
            fields["stats"] = draw(json_objects)
        if draw(st.booleans()):
            fields["spans"] = draw(st.lists(json_objects, max_size=3))
    elif mtype == "load_report":
        fields = {
            "feedback": draw(feedback),
            "in_flight": draw(st.integers(min_value=0, max_value=2**63 - 1)),
        }
    else:
        fields = {}
    return Message(type=mtype, id=draw(ids), fields=fields)


def typed(obj):
    """``obj`` with every scalar paired with its type, so ``True`` and
    ``1.0`` (equal in Python) compare different."""
    if isinstance(obj, dict):
        return {key: typed(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [typed(value) for value in obj]
    return (type(obj).__name__, obj)


class TestCodecProperties:
    @given(message=messages())
    @settings(max_examples=300, deadline=None)
    def test_roundtrip_is_exact(self, message):
        frame = message.encode()
        assert int.from_bytes(frame[:4], "big") == len(frame) - 4
        decoded = Message.decode(frame[4:])
        assert (decoded.type, decoded.id) == (message.type, message.id)
        assert typed(decoded.fields) == typed(message.fields)

    @given(message=messages())
    @settings(max_examples=100, deadline=None)
    def test_every_truncation_raises_protocol_error(self, message):
        body = message.encode()[4:]
        for cut in range(len(body)):
            with pytest.raises(ProtocolError):
                Message.decode(body[:cut])

    @given(
        message=messages(),
        flips=st.lists(
            st.tuples(st.integers(min_value=0), st.integers(min_value=1, max_value=255)),
            min_size=1, max_size=4,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_byte_flips_decode_or_raise_protocol_error(self, message, flips):
        body = bytearray(message.encode()[4:])
        for index, mask in flips:
            body[index % len(body)] ^= mask
        try:
            Message.decode(bytes(body))
        except ProtocolError:
            pass
