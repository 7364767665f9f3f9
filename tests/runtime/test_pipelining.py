"""Pipelined connections: ordering across requests, delays, and teardown.

One raw connection carries several requests at once.  The server must
dispatch them all into the executor (so the scheduler can order their
operations across requests), keep fault delays holding the connection's
later messages, and leave no task behind when a connection or the server
goes away with messages still in flight.
"""

import asyncio
import gc
import time

from repro.obs import TRACE_REQUESTED
from repro.runtime.faults import DelayReplies, Disconnect
from repro.runtime.protocol import Message, read_message, write_message
from repro.runtime.server import KVServer

VALUE = b"v" * 2000
#: 2000-byte values at 1 MB/s: about 2 ms of emulated service per op.
SLOW_BYTE_RATE = 1e6


def run(coro):
    return asyncio.run(coro)


async def open_raw(server):
    return await asyncio.open_connection("127.0.0.1", server.port)


async def close_raw(writer):
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


async def preload(server, keys):
    reader, writer = await open_raw(server)
    for i, key in enumerate(keys, start=1):
        await write_message(
            writer, Message(type="put", id=i, fields={"key": key, "value": VALUE})
        )
        assert (await read_message(reader)).fields["ok"]
    await close_raw(writer)


def mget(mid, keys, rpt):
    tags = {"rpt": rpt, TRACE_REQUESTED: True}
    return Message(type="mget", id=mid, fields={"keys": keys, "tags": tags})


async def big_then_small(scheduler):
    """One 20-key high-RPT mget, then five 1-key low-RPT mgets, sent
    back to back on one connection.  Returns the reply ids in arrival
    order and each request's op service-start times."""
    server = KVServer(scheduler=scheduler, byte_rate=SLOW_BYTE_RATE)
    await server.start()
    try:
        big_keys = [f"big:{i:02d}" for i in range(20)]
        small_keys = [f"small:{i}" for i in range(5)]
        await preload(server, big_keys + small_keys)
        reader, writer = await open_raw(server)
        frames = [mget(100, big_keys, rpt=1.0)]
        frames += [mget(i, [key], rpt=0.001) for i, key in enumerate(small_keys, 1)]
        writer.write(b"".join(frame.encode() for frame in frames))
        order, starts = [], {}
        for _ in frames:
            reply = await read_message(reader)
            assert reply.fields["ok"]
            order.append(reply.id)
            starts[reply.id] = [span["service_start"] for span in reply.fields["spans"]]
        await close_raw(writer)
        return order, starts
    finally:
        await server.stop()


class TestCrossRequestOrdering:
    def test_das_serves_small_requests_inside_a_big_one(self):
        order, starts = run(big_then_small("das"))
        big_last = max(starts[100])
        small = [t for mid, ts in starts.items() if mid != 100 for t in ts]
        assert all(t < big_last for t in small)
        assert order.index(1) < order.index(100)

    def test_fcfs_serves_the_big_request_first(self):
        order, starts = run(big_then_small("fcfs"))
        big_last = max(starts[100])
        small = [t for mid, ts in starts.items() if mid != 100 for t in ts]
        assert all(t > big_last for t in small)
        assert order[0] == 100


class TestDelayHoldsTheConnection:
    def test_second_reply_waits_out_both_delays(self):
        delay = 0.05

        async def scenario():
            server = KVServer(scheduler="fcfs", byte_rate=None)
            server.faults.add(DelayReplies(delay=delay))
            await server.start()
            try:
                reader, writer = await open_raw(server)
                sent = time.monotonic()
                for mid in (1, 2):
                    await write_message(
                        writer, Message(type="get", id=mid, fields={"key": "k"})
                    )
                replies = [await read_message(reader) for _ in range(2)]
                second = time.monotonic() - sent
                await close_raw(writer)
            finally:
                await server.stop()
            assert sorted(r.id for r in replies) == [1, 2]
            assert second >= 2 * delay

        run(scenario())


class TestTeardownWithMessagesInFlight:
    """Crash, disconnect and stop with pipelined messages still queued."""

    async def _with_inflight(self, server):
        keys = [f"k:{i:02d}" for i in range(8)]
        await preload(server, keys)
        reader, writer = await open_raw(server)
        for mid in range(1, 6):
            await write_message(writer, mget(mid, keys, rpt=1.0))
        # Let the server read and dispatch them.
        while server.executor.in_flight < 8:
            await asyncio.sleep(0.001)
        return reader, writer

    def _scenario(self, end_connection):
        async def scenario():
            errors = []
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(lambda _loop, context: errors.append(context))
            server = KVServer(scheduler="das", byte_rate=SLOW_BYTE_RATE)
            await server.start()
            reader, writer = await self._with_inflight(server)
            await end_connection(server, reader, writer)
            me = asyncio.current_task()
            deadline = time.monotonic() + 5.0
            while True:
                worker = server.executor._worker
                left = [t for t in asyncio.all_tasks() if t is not me and t is not worker]
                if not left or time.monotonic() > deadline:
                    break
                await asyncio.sleep(0.01)
            await close_raw(writer)
            await server.stop()
            gc.collect()
            await asyncio.sleep(0)
            assert left == []
            assert errors == []

        run(scenario())

    def test_crash(self):
        async def end(server, reader, writer):
            executed = server.executor.ops_executed
            await server.crash()
            assert await reader.read() == b""
            # A hard death does not drain: most of the 40 queued ops die.
            assert server.executor.ops_executed - executed < 40

        self._scenario(end)

    def test_disconnect_fault(self):
        async def end(server, reader, writer):
            server.faults.add(Disconnect())
            await write_message(writer, Message(type="get", id=99, fields={"key": "x"}))
            received = asyncio.StreamReader()
            received.feed_data(await reader.read())
            received.feed_eof()
            replies = 0
            while await read_message(received) is not None:
                replies += 1
            # The connection closed at once, abandoning the mgets in flight.
            assert replies < 5
            # The server itself keeps serving.
            reader2, writer2 = await open_raw(server)
            await write_message(writer2, Message(type="get", id=1, fields={"key": "x"}))
            assert (await read_message(reader2)).fields["ok"]
            await close_raw(writer2)

        self._scenario(end)

    def test_stop(self):
        async def end(server, reader, writer):
            await server.stop()

        self._scenario(end)
