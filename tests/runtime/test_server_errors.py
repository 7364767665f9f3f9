"""Runtime server behaviour on malformed and edge-case requests."""

import asyncio
import struct

from repro.runtime.protocol import Message, read_message, write_message
from repro.runtime.server import KVServer

FRAME_HEADER = struct.Struct(">BQ")
GET_CODE = 1


def run(coro):
    return asyncio.run(coro)


async def raw_call(port: int, message: Message) -> Message:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        await write_message(writer, message)
        return await read_message(reader)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class TestServerErrorHandling:
    def test_missing_field_reported_not_fatal(self):
        async def scenario():
            server = KVServer(scheduler="fcfs", byte_rate=None)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                # A get whose header parses but whose body stops short of
                # the key: the frame is whole, the body is not.
                body = FRAME_HEADER.pack(GET_CODE, 1) + b"\x00"
                writer.write(len(body).to_bytes(4, "big") + body)
                reply = await read_message(reader)
                assert reply.type == "reply"
                assert reply.id == 1
                assert reply.fields["ok"] is False
                assert "malformed get body" in reply.fields["error"]
                # The same connection still serves a valid request.
                await write_message(
                    writer, Message(type="get", id=2, fields={"key": "ghost"})
                )
                reply2 = await read_message(reader)
                assert reply2.id == 2
                assert reply2.fields["ok"] is True
                assert reply2.fields["values"]["ghost"] is None
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()

        run(scenario())

    def test_bad_value_encoding_reported(self):
        async def scenario():
            server = KVServer(scheduler="fcfs", byte_rate=None)
            await server.start()
            try:
                frame = Message(
                    type="put", id=1, fields={"key": "k", "value": b"abc"}
                ).encode()
                # Claim a longer value than the frame carries.
                at = frame.index(b"abc") - 4
                bad = frame[:at] + (1000).to_bytes(4, "big") + frame[at + 4:]
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(bad)
                reply = await read_message(reader)
                assert reply.fields["ok"] is False
                assert "malformed put body" in reply.fields["error"]
                writer.close()
                await writer.wait_closed()
                # Nothing was stored, and the server serves a valid put.
                reply = await raw_call(
                    server.port, Message(type="get", id=2, fields={"key": "k"})
                )
                assert reply.fields["values"]["k"] is None
                reply = await raw_call(
                    server.port,
                    Message(type="put", id=3, fields={"key": "k", "value": b"abc"}),
                )
                assert reply.fields["ok"] is True
            finally:
                await server.stop()

        run(scenario())

    def test_failing_operation_reported_not_fatal(self):
        async def scenario():
            server = KVServer(scheduler="fcfs", byte_rate=None)
            await server.start()

            def broken_put(*args, **kwargs):
                raise RuntimeError("disk on fire")

            server.storage.put = broken_put
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                await write_message(
                    writer,
                    Message(type="put", id=1, fields={"key": "k", "value": b"v"}),
                )
                reply = await read_message(reader)
                assert reply.id == 1
                assert reply.fields["ok"] is False
                assert "disk on fire" in reply.fields["error"]
                await write_message(
                    writer, Message(type="get", id=2, fields={"key": "k"})
                )
                reply2 = await read_message(reader)
                assert reply2.fields["ok"] is True
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()

        run(scenario())

    def test_garbage_bytes_close_connection_not_server(self):
        async def scenario():
            server = KVServer(scheduler="fcfs", byte_rate=None)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                # A length prefix promising more than the limit.
                writer.write((2**31).to_bytes(4, "big"))
                await writer.drain()
                # The server drops this connection...
                data = await reader.read()
                assert data == b""
                writer.close()
                # ...but keeps serving new ones.
                reply = await raw_call(
                    server.port,
                    Message(type="get", id=1, fields={"key": "x"}),
                )
                assert reply.type == "reply"
            finally:
                await server.stop()

        run(scenario())

    def test_reply_always_carries_feedback(self):
        async def scenario():
            server = KVServer(scheduler="das", byte_rate=None)
            await server.start()
            try:
                reply = await raw_call(
                    server.port, Message(type="get", id=1, fields={"key": "a"})
                )
                feedback = reply.fields["feedback"]
                assert {"queued_work", "queue_length", "rate_sample"} <= set(
                    feedback
                )
            finally:
                await server.stop()

        run(scenario())

    def test_multiple_sequential_requests_same_connection(self):
        async def scenario():
            server = KVServer(scheduler="fcfs", byte_rate=None)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                for i in range(5):
                    await write_message(
                        writer,
                        Message(type="get", id=i, fields={"key": f"k{i}"}),
                    )
                    reply = await read_message(reader)
                    assert reply.id == i
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()

        run(scenario())
