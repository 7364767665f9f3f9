"""Wire protocol for the asyncio runtime: length-prefixed binary frames.

Every frame is a header followed by a per-type body.  All integers and
floats are big-endian::

    frame  = length:u32 | type:u8 | id:u64 | body
             (``length`` counts the bytes after itself, at most
             ``MAX_MESSAGE_BYTES``)

``id`` is the sender's correlation id; a reply carries its request's id,
and ``id=0`` is never a valid request id (server pushes use it).

==============  ====  ===================================================
type            code  body
==============  ====  ===================================================
``get``         1     ``key:str16  tags``
``put``         2     ``key:str16  value_len:u32 value:bytes  tags``
``mget``        3     ``n:u32  n × key:str16  tags``
``stats``       4     (empty)
``probe``       5     (empty)
``reply``       6     ``flags:u8  feedback  [in_flight:i64]  [error:str32]
                      n:u32  n × (key:str16 len:i32 value:bytes)
                      [extra_len:u32 extra:JSON object]``
``load_report`` 7     ``feedback  in_flight:i64``
==============  ====  ===================================================

Building blocks:

* ``strN`` — a ``uN`` byte count, then that many bytes of UTF-8;
* ``tags`` — ``n:u8  n × (name:str8 value:f64)  m:u8  m × (name:str8
  flag:u8)``: the scheduler priority payload (e.g. DAS's ``rpt``), the
  protocol-level realization of "priorities travel with operations".
  Boolean tags (the ``trace`` request flag) ride in the second list so
  they come back as ``bool``;
* ``feedback`` — ``queued_work:f64  queue_length:i64  rate_sample:f64``,
  the server's piggybacked load snapshot;
* reply ``flags`` — bit 0 ``ok``, bit 1 an error string follows, bit 2
  ``in_flight`` follows, bit 3 the JSON section follows;
* reply values — raw bytes, ``len = -1`` for a missing key.

Decoded, a message is ``Message(type, id, fields)`` with the fields a
body names (``key``/``keys``/``value``/``tags`` on requests; ``ok``,
``values``, ``error``, ``feedback`` and optional ``in_flight`` on
replies).  Values are ``bytes`` throughout.

Semantics worth knowing:

* ``stats`` and ``probe`` are served from the server's control plane,
  never queued behind data operations.  A ``stats`` reply carries the
  counter and metrics snapshot under ``stats``; a ``probe`` reply adds
  ``in_flight`` (queued + in-service operations) to the feedback.
* ``load_report`` is pushed unsolicited, with ``id=0``, to every open
  connection when a server runs with a ``load_report_interval`` — the
  Dodoor-style control plane whose cost scales with servers and time,
  not with the request rate.
* A request whose tags carry ``trace: true`` gets ``spans`` in its
  reply: one ``{key, server_id, enqueue, service_start, service_end,
  band, threshold, promoted}`` object per operation, stamped with the
  server's monotonic clock.  ``stats`` and ``spans`` are the rare,
  off-hot-path payloads that travel in the reply's JSON section.
* Replies may leave a connection in any order; the id matches them up.

A body that does not parse raises :class:`MalformedMessage` (a
:class:`~repro.errors.ProtocolError` that knows the frame's id, so the
peer can be told which request was bad); a frame whose header does not
parse raises plain :class:`~repro.errors.ProtocolError`.
"""

from __future__ import annotations

import asyncio
import json
import struct
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ProtocolError

_LEN = struct.Struct(">I")
_HEAD = struct.Struct(">IBQ")
_TYPE_ID = struct.Struct(">BQ")
_U8 = struct.Struct(">B")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_I32 = struct.Struct(">i")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_FEEDBACK = struct.Struct(">dqd")

#: Sanity bound so a corrupt length prefix cannot allocate gigabytes.
MAX_MESSAGE_BYTES = 64 * 1024 * 1024
_MAX_ID = 2**64 - 1

VALID_TYPES = ("get", "put", "mget", "stats", "probe", "reply", "load_report")
_CODES = {name: code for code, name in enumerate(VALID_TYPES, start=1)}

_OK, _ERROR, _IN_FLIGHT, _EXTRA = 1, 2, 4, 8
_REPLY_FIELDS = frozenset(("ok", "values", "error", "feedback", "in_flight"))
_MISSING = _I32.pack(-1)
_NO_TAGS = b"\x00\x00"


class MalformedMessage(ProtocolError):
    """A whole frame arrived but its body does not parse.

    The stream is still in step (the length prefix was good), so the
    receiver can answer ``message_id`` and keep reading.
    """

    def __init__(self, message_id: int, problem: str):
        super().__init__(problem)
        self.message_id = message_id


@dataclass
class Message:
    """One protocol message (either direction)."""

    type: str
    id: int
    fields: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.type not in _CODES:
            raise ProtocolError(f"invalid message type {self.type!r}")
        if not isinstance(self.id, int) or not 0 <= self.id <= _MAX_ID:
            raise ProtocolError(f"invalid message id {self.id!r}")

    def encode(self) -> bytes:
        """The whole frame: length prefix, header and body."""
        parts: List[Any] = [b""]
        try:
            _ENCODERS[self.type](self.fields, parts)
            size = sum(map(len, parts)) + _TYPE_ID.size
            if size > MAX_MESSAGE_BYTES:
                raise ProtocolError(f"message too large: {size} bytes")
            parts[0] = _HEAD.pack(size, _CODES[self.type], self.id)
            return b"".join(parts)
        except KeyError as exc:
            raise ProtocolError(f"{self.type} message missing field {exc}") from exc
        except (struct.error, TypeError, ValueError, AttributeError) as exc:
            raise ProtocolError(f"cannot encode {self.type} message: {exc}") from exc

    @classmethod
    def decode(cls, raw: bytes) -> "Message":
        """Parse one frame body (everything after the length prefix)."""
        if len(raw) < _TYPE_ID.size:
            raise ProtocolError(
                f"malformed frame: {len(raw)} bytes is too short for a header"
            )
        code, mid = _TYPE_ID.unpack_from(raw)
        if not 1 <= code <= len(VALID_TYPES):
            raise MalformedMessage(mid, f"unknown message type code {code}")
        mtype = VALID_TYPES[code - 1]
        try:
            fields, end = _DECODERS[code - 1](raw, _TYPE_ID.size)
        except (struct.error, IndexError, ValueError, RecursionError) as exc:
            raise MalformedMessage(mid, f"malformed {mtype} body: {exc}") from exc
        if end != len(raw):
            extra = len(raw) - end
            problem = "truncated" if extra < 0 else f"{extra} trailing bytes"
            raise MalformedMessage(mid, f"malformed {mtype} body: {problem}")
        return cls(mtype, mid, fields)


# ----------------------------------------------------------------------
# Encoders: append the body's pieces to ``parts``.
# ----------------------------------------------------------------------
def _put_str16(parts: list, text: str) -> None:
    raw = text.encode()
    parts += (_U16.pack(len(raw)), raw)


def _put_tags(parts: list, tags: Optional[Dict[str, Any]]) -> None:
    if not tags:
        parts.append(_NO_TAGS)
        return
    numbers, flags = [], []
    for name, value in tags.items():
        raw = name.encode()
        if value is True or value is False:
            flags += (_U8.pack(len(raw)), raw, b"\x01" if value else b"\x00")
        else:
            numbers += (_U8.pack(len(raw)), raw, _F64.pack(value))
    parts.append(_U8.pack(len(numbers) // 3))
    parts += numbers
    parts.append(_U8.pack(len(flags) // 3))
    parts += flags


def _encode_get(fields: Dict[str, Any], parts: list) -> None:
    _put_str16(parts, fields["key"])
    _put_tags(parts, fields.get("tags"))


def _encode_mget(fields: Dict[str, Any], parts: list) -> None:
    keys = fields["keys"]
    parts.append(_U32.pack(len(keys)))
    for key in keys:
        _put_str16(parts, key)
    _put_tags(parts, fields.get("tags"))


def _encode_put(fields: Dict[str, Any], parts: list) -> None:
    _put_str16(parts, fields["key"])
    value = fields["value"]
    parts += (_U32.pack(len(value)), value)
    _put_tags(parts, fields.get("tags"))


def _encode_empty(fields: Dict[str, Any], parts: list) -> None:
    pass


def _put_feedback(parts: list, feedback: Dict[str, Any]) -> None:
    parts.append(_FEEDBACK.pack(
        feedback["queued_work"], feedback["queue_length"], feedback["rate_sample"]
    ))


def _encode_reply(fields: Dict[str, Any], parts: list) -> None:
    error = fields.get("error")
    in_flight = fields.get("in_flight")
    extra = None
    for name in fields:
        if name not in _REPLY_FIELDS:
            extra = {k: v for k, v in fields.items() if k not in _REPLY_FIELDS}
            break
    flags = (
        (_OK if fields["ok"] else 0)
        | (_ERROR if error is not None else 0)
        | (_IN_FLIGHT if in_flight is not None else 0)
        | (_EXTRA if extra is not None else 0)
    )
    parts.append(_U8.pack(flags))
    _put_feedback(parts, fields["feedback"])
    if in_flight is not None:
        parts.append(_I64.pack(in_flight))
    if error is not None:
        raw = error.encode()
        parts += (_U32.pack(len(raw)), raw)
    values = fields.get("values") or {}
    parts.append(_U32.pack(len(values)))
    for key, value in values.items():
        _put_str16(parts, key)
        if value is None:
            parts.append(_MISSING)
        else:
            parts += (_I32.pack(len(value)), value)
    if extra is not None:
        raw = json.dumps(extra, separators=(",", ":")).encode()
        parts += (_U32.pack(len(raw)), raw)


def _encode_load_report(fields: Dict[str, Any], parts: list) -> None:
    _put_feedback(parts, fields["feedback"])
    parts.append(_I64.pack(fields["in_flight"]))


_ENCODERS = {
    "get": _encode_get,
    "put": _encode_put,
    "mget": _encode_mget,
    "stats": _encode_empty,
    "probe": _encode_empty,
    "reply": _encode_reply,
    "load_report": _encode_load_report,
}


# ----------------------------------------------------------------------
# Decoders: ``(fields, end offset)`` from a body starting at ``off``.
# An end offset past the body means a length field overran it.
# ----------------------------------------------------------------------
def _read_str16(raw: bytes, off: int) -> Tuple[str, int]:
    (size,) = _U16.unpack_from(raw, off)
    off += 2
    return raw[off:off + size].decode(), off + size


def _read_tags(raw: bytes, off: int) -> Tuple[Dict[str, Any], int]:
    tags: Dict[str, Any] = {}
    count = raw[off]
    off += 1
    for _ in range(count):
        size = raw[off]
        name = raw[off + 1:off + 1 + size].decode()
        off += 1 + size
        (tags[name],) = _F64.unpack_from(raw, off)
        off += 8
    count = raw[off]
    off += 1
    for _ in range(count):
        size = raw[off]
        name = raw[off + 1:off + 1 + size].decode()
        off += 1 + size
        flag = raw[off]
        if flag > 1:
            raise ValueError(f"boolean tag {name!r} has byte {flag}")
        tags[name] = flag == 1
        off += 1
    return tags, off


def _decode_get(raw: bytes, off: int):
    key, off = _read_str16(raw, off)
    tags, off = _read_tags(raw, off)
    return {"key": key, "tags": tags}, off


def _decode_mget(raw: bytes, off: int):
    (count,) = _U32.unpack_from(raw, off)
    off += 4
    keys = []
    for _ in range(count):
        key, off = _read_str16(raw, off)
        keys.append(key)
    tags, off = _read_tags(raw, off)
    return {"keys": keys, "tags": tags}, off


def _decode_put(raw: bytes, off: int):
    key, off = _read_str16(raw, off)
    (size,) = _U32.unpack_from(raw, off)
    off += 4
    value = raw[off:off + size]
    off += size
    tags, off = _read_tags(raw, off)
    return {"key": key, "value": value, "tags": tags}, off


def _decode_empty(raw: bytes, off: int):
    return {}, off


def _read_feedback(raw: bytes, off: int) -> Tuple[Dict[str, Any], int]:
    queued_work, queue_length, rate_sample = _FEEDBACK.unpack_from(raw, off)
    feedback = {
        "queued_work": queued_work,
        "queue_length": queue_length,
        "rate_sample": rate_sample,
    }
    return feedback, off + _FEEDBACK.size


def _decode_reply(raw: bytes, off: int):
    flags = raw[off]
    if flags > _OK | _ERROR | _IN_FLIGHT | _EXTRA:
        raise ValueError(f"unknown reply flags {flags:#04x}")
    feedback, off = _read_feedback(raw, off + 1)
    fields: Dict[str, Any] = {"ok": bool(flags & _OK), "feedback": feedback}
    if flags & _IN_FLIGHT:
        (fields["in_flight"],) = _I64.unpack_from(raw, off)
        off += 8
    error = None
    if flags & _ERROR:
        (size,) = _U32.unpack_from(raw, off)
        off += 4
        error = raw[off:off + size].decode()
        off += size
    fields["error"] = error
    (count,) = _U32.unpack_from(raw, off)
    off += 4
    values: Dict[str, Optional[bytes]] = {}
    for _ in range(count):
        key, off = _read_str16(raw, off)
        (size,) = _I32.unpack_from(raw, off)
        off += 4
        if size == -1:
            values[key] = None
        elif size < 0:
            raise ValueError(f"value length {size} for key {key!r}")
        else:
            values[key] = raw[off:off + size]
            off += size
    fields["values"] = values
    if flags & _EXTRA:
        (size,) = _U32.unpack_from(raw, off)
        off += 4
        extra = json.loads(raw[off:off + size])
        off += size
        if not isinstance(extra, dict) or not _REPLY_FIELDS.isdisjoint(extra):
            raise ValueError("JSON section must be an object of extra fields")
        fields.update(extra)
    return fields, off


def _decode_load_report(raw: bytes, off: int):
    feedback, off = _read_feedback(raw, off)
    (in_flight,) = _I64.unpack_from(raw, off)
    return {"feedback": feedback, "in_flight": in_flight}, off + 8


# Indexed by type code - 1, in VALID_TYPES order.
_DECODERS = (
    _decode_get,
    _decode_put,
    _decode_mget,
    _decode_empty,
    _decode_empty,
    _decode_reply,
    _decode_load_report,
)


# ----------------------------------------------------------------------
# Stream I/O
# ----------------------------------------------------------------------
async def write_message(writer: asyncio.StreamWriter, message: Message) -> None:
    """Serialize and send one message as a single ``write()``."""
    writer.write(message.encode())
    await writer.drain()


async def read_message(reader: asyncio.StreamReader) -> Optional[Message]:
    """Read one message; returns None on clean EOF.

    Raises :class:`MalformedMessage` when a whole frame arrived but its
    body is bad (the stream stays in step), and plain
    :class:`~repro.errors.ProtocolError` when the framing itself is
    broken.
    """
    try:
        header = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between messages
        raise ProtocolError("connection closed mid-header") from exc
    (length,) = _LEN.unpack(header)
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"declared message length {length} exceeds limit")
    try:
        raw = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-message") from exc
    return Message.decode(raw)


def encode_value(value: Any) -> bytes:
    """A value as it enters a message: bytes-like in, ``bytes`` out."""
    if type(value) is bytes:
        return value
    if isinstance(value, (bytearray, memoryview)):
        return bytes(value)
    raise ProtocolError(f"invalid value: expected bytes, got {type(value).__name__}")


def decode_value(value: Any) -> bytes:
    """A value as it leaves a message: checked to be ``bytes``."""
    return encode_value(value)
