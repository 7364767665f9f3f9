"""The asyncio TCP key-value server.

Each server owns a :class:`~repro.kvstore.storage.StorageEngine` and a
:class:`~repro.runtime.scheduling.ScheduledExecutor`; connections submit
operations into the executor and the response carries the executor's
feedback snapshot — the runtime realization of piggybacked feedback.

Connections are pipelined: the read loop hands every data message to its
own task and goes straight back to reading, so the executor's queue holds
the operations of every request in flight on every connection — which is
what lets the scheduler order them across requests.  Each reply is
written, as one frame, when its message's operations finish, so replies
may leave a connection out of order; the client matches them by id.
Control-plane messages (``stats``, ``probe``) are answered inline.

For chaos testing, a :class:`~repro.runtime.faults.FaultInjector` can be
attached: it is consulted when a connection is accepted and once per
message, and can make the server refuse, stall, delay, or disconnect —
the runtime twin of the simulator's outage windows.  :meth:`crash` /
:meth:`restart` additionally model a hard process death: the listener
closes, every live connection is severed, and the executor halts without
draining, until ``restart`` brings the server back on the same port.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import logging
import time
from typing import Any, Dict, Optional, Set

from repro.errors import KeyNotFoundError, ProtocolError
from repro.kvstore.storage import StorageEngine
from repro.obs import MetricsRegistry, OpSpan, TRACE_REQUESTED
from repro.runtime.faults import DELAY, DISCONNECT, DROP, FaultInjector
from repro.runtime.protocol import (
    MalformedMessage,
    Message,
    decode_value,
    encode_value,
    read_message,
    write_message,
)
from repro.runtime.scheduling import ExecutorStoppedError, QueuedOp, ScheduledExecutor

logger = logging.getLogger(__name__)

#: Message types served through the executor (everything else is
#: answered inline from the control plane).
_DATA_TYPES = frozenset(("get", "mget", "put"))


class KVServer:
    """One key-value server listening on a TCP port.

    Parameters
    ----------
    host, port:
        Bind address; port 0 picks a free port (see :attr:`port` after
        :meth:`start`).
    scheduler / scheduler_params:
        Scheduling policy for the executor.
    byte_rate:
        Emulated backend throughput (bytes/s); None disables throttling.
    per_op_overhead:
        Emulated fixed per-operation cost in seconds.
    fault_injector:
        Optional scripted misbehaviour; defaults to a pass-through
        injector so policies can be added later via ``faults.add(...)``.
    registry:
        Metrics registry to record into.  A cluster passes one shared
        registry so every server's series lands in one scrape; a
        standalone server creates its own.  Series survive
        :meth:`crash`/:meth:`restart` (the server keeps its identity).
    load_report_interval:
        When set, the server broadcasts an unsolicited ``load_report``
        message (feedback snapshot + in-flight count) to every open
        connection each interval — the Dodoor-style control plane whose
        cost is O(connections / interval), independent of request rate.
        The broadcaster dies with :meth:`crash` (a dead server gossips
        nothing) and re-arms on :meth:`restart`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        server_id: int = 0,
        scheduler: str = "das",
        scheduler_params: Optional[Dict[str, Any]] = None,
        byte_rate: Optional[float] = 100e6,
        per_op_overhead: float = 50e-6,
        fault_injector: Optional[FaultInjector] = None,
        registry: Optional[MetricsRegistry] = None,
        load_report_interval: Optional[float] = None,
    ):
        if load_report_interval is not None and load_report_interval <= 0:
            raise ValueError("load_report_interval must be positive")
        self.host = host
        self._requested_port = port
        self.server_id = server_id
        self.storage = StorageEngine(server_id=server_id, track_payloads=True)
        self._scheduler = scheduler
        self._scheduler_params = scheduler_params
        self.registry = registry if registry is not None else MetricsRegistry()
        self.executor = ScheduledExecutor(
            policy_name=scheduler,
            policy_params=scheduler_params,
            byte_rate=byte_rate,
            server_id=server_id,
            registry=self.registry,
        )
        self.byte_rate = byte_rate
        self.per_op_overhead = per_op_overhead
        self.faults = fault_injector if fault_injector is not None else FaultInjector()
        self.load_report_interval = load_report_interval
        self._report_task: Optional[asyncio.Task] = None
        self._server: Optional[asyncio.AbstractServer] = None
        #: Open connections and the message tasks in flight on each.
        self._connections: Dict[asyncio.StreamWriter, Set[asyncio.Task]] = {}
        sid = str(server_id)
        self._c_connections = self.registry.counter(
            "server_connections_total", "Connections accepted", server=sid
        )
        self._c_ops_served = self.registry.counter(
            "server_ops_total", "Data messages served OK", server=sid
        )
        self._c_errors = self.registry.counter(
            "server_errors_total", "Error replies returned", server=sid
        )
        self._c_crashes = self.registry.counter(
            "server_crashes_total", "Hard crashes injected", server=sid
        )
        self._c_probes = self.registry.counter(
            "server_probes_total", "Load probes answered", server=sid
        )
        self._c_reports = self.registry.counter(
            "server_load_reports_total",
            "Load-report messages delivered to clients",
            server=sid,
        )
        self.registry.gauge(
            "server_active_connections",
            "Currently open connections",
            fn=lambda: len(self._connections),
            server=sid,
        )

    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("server not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        await self.executor.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port
        )
        # Remember the concrete port so crash/restart reuses it and
        # clients can reconnect to the same endpoint.
        self._requested_port = self.port
        if self.load_report_interval is not None:
            self._report_task = asyncio.create_task(
                self._report_loop(), name=f"kv-load-report-{self.server_id}"
            )

    async def stop(self) -> None:
        await self._stop_report_loop()
        await self._close_listener()
        await self._drop_connections()
        await self.executor.stop()

    async def crash(self) -> None:
        """Hard death: stop listening, sever connections, halt the executor.

        Unlike :meth:`stop` this does not drain queued work — exactly what
        a killed process would do.  :meth:`restart` brings the server back
        on the same port with storage intact (a restart, not a rebuild).
        """
        self._c_crashes.inc()
        await self._stop_report_loop()
        await self._close_listener()
        await self._drop_connections()
        await self.executor.abort()

    async def restart(self) -> None:
        """Come back after :meth:`crash` on the same port."""
        if self._server is not None:
            raise RuntimeError("server is already running")
        self.executor = ScheduledExecutor(
            policy_name=self._scheduler,
            policy_params=self._scheduler_params,
            byte_rate=self.byte_rate,
            server_id=self.server_id,
            registry=self.registry,
        )
        await self.start()

    async def _close_listener(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _drop_connections(self) -> None:
        """Sever every connection and end the message tasks in flight."""
        inflight = []
        for writer, tasks in self._connections.items():
            writer.close()
            inflight.extend(tasks)
        self._connections.clear()
        for task in inflight:
            task.cancel()
        await asyncio.gather(*inflight, return_exceptions=True)

    async def _stop_report_loop(self) -> None:
        if self._report_task is None:
            return
        self._report_task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await self._report_task
        self._report_task = None

    async def _report_loop(self) -> None:
        """Periodic ``load_report`` broadcast to every open connection.

        ``id=0`` never collides with a client correlation id (clients
        count from 1), so receivers absorb the feedback and drop the
        frame.  A writer that fails mid-broadcast is skipped — the
        connection handler owns its teardown.
        """
        assert self.load_report_interval is not None
        while True:
            await asyncio.sleep(self.load_report_interval)
            message = Message(
                type="load_report",
                id=0,
                fields={
                    "feedback": self.executor.feedback(),
                    "in_flight": self.executor.in_flight,
                },
            )
            for writer in list(self._connections):
                try:
                    await write_message(writer, message)
                except (ConnectionError, OSError):
                    continue
                self._c_reports.inc()

    # ------------------------------------------------------------------
    def _demand(self, value_size: int) -> float:
        if self.byte_rate is None:
            return 0.0
        return self.per_op_overhead + value_size / self.byte_rate

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if not self.faults.connection_allowed():
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()
            return
        self._c_connections.inc()
        tasks: Set[asyncio.Task] = set()
        self._connections[writer] = tasks
        eof = False
        try:
            while True:
                try:
                    message = await read_message(reader)
                except MalformedMessage as exc:
                    # The frame was whole, so the stream is still in step:
                    # tell the peer what was wrong and keep serving.
                    self._c_errors.inc()
                    reply = self._reply(exc.message_id, error=str(exc))
                    await write_message(writer, reply)
                    continue
                except ProtocolError as exc:
                    logger.warning("protocol error from peer: %s", exc)
                    break
                if message is None:
                    eof = True
                    break
                decision = self.faults.decide(message)
                if decision.action == DISCONNECT:
                    break
                if decision.action == DROP:
                    continue
                if decision.action == DELAY:
                    # Held in the read loop, so the connection's later
                    # messages wait behind the delay too.
                    delay = decision.delay
                    if decision.delay_per_byte > 0.0:
                        delay += (
                            decision.delay_per_byte
                            * self._message_value_bytes(message)
                        )
                    await asyncio.sleep(delay)
                if message.type in _DATA_TYPES:
                    task = asyncio.create_task(self._respond(message, writer))
                    tasks.add(task)
                    task.add_done_callback(tasks.discard)
                else:
                    await write_message(writer, self._control_reply(message))
        except (ConnectionError, OSError):
            pass  # peer went away (or crash() severed us) mid-exchange
        finally:
            # After a clean EOF the peer may still read: answer what it
            # sent.  Otherwise nobody is left to read the replies.
            if not eof:
                for task in tasks:
                    task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            self._connections.pop(writer, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    def _reply(
        self,
        message_id: int,
        values: Optional[Dict[str, Any]] = None,
        error: Optional[str] = None,
        **extra: Any,
    ) -> Message:
        """A reply frame carrying the executor's current feedback."""
        return Message(
            type="reply",
            id=message_id,
            fields={
                "ok": error is None,
                "values": values if values is not None else {},
                "error": error,
                "feedback": self.executor.feedback(),
                **extra,
            },
        )

    async def _respond(self, message: Message, writer: asyncio.StreamWriter) -> None:
        """Serve one data message and write its reply when it is done."""
        try:
            reply = await self._serve(message)
        except Exception as exc:  # noqa: BLE001 - e.g. an op's work raised
            # Answer anyway: the peer is waiting on this id, and the
            # connection keeps serving its other messages.
            logger.exception("serving message %d failed", message.id)
            self._c_errors.inc()
            reply = self._reply(message.id, error=f"internal error: {exc!r}")
        with contextlib.suppress(ConnectionError, OSError):
            await write_message(writer, reply)

    def _control_reply(self, message: Message) -> Message:
        """Answer a control-plane message without queueing it."""
        if message.type == "stats":
            # A scrape must work on a loaded server.
            self._c_ops_served.inc()
            return self._reply(message.id, stats=self.stats())
        if message.type == "probe":
            # A load probe must reflect the server's congestion *now*, not
            # after waiting out the very queue it is trying to measure.
            # The standard feedback block carries the signals; in_flight
            # adds the in-service operation the queue length misses.
            self._c_ops_served.inc()
            self._c_probes.inc()
            return self._reply(message.id, in_flight=self.executor.in_flight)
        self._c_errors.inc()
        return self._reply(
            message.id, error=f"unexpected message type {message.type!r}"
        )

    async def _serve(self, message: Message) -> Message:
        # Decoded data messages always carry their body's fields.
        fields = message.fields
        try:
            if message.type == "put":
                values, spans = await self._do_put(fields)
            elif message.type == "get":
                values, spans = await self._do_gets([fields["key"]], fields)
            else:
                values, spans = await self._do_gets(fields["keys"], fields)
        except ExecutorStoppedError:
            error = "server shutting down"
        except ProtocolError as exc:
            error = str(exc)
        else:
            self._c_ops_served.inc()
            if spans is None:
                return self._reply(message.id, values)
            return self._reply(message.id, values, spans=spans)
        self._c_errors.inc()
        return self._reply(message.id, error=error)

    async def _do_gets(self, keys: list, fields: Dict[str, Any]):
        tags = fields["tags"]
        futures = []
        ops = []
        for key in keys:
            size = self._stored_size(key)
            op = QueuedOp(key=key, demand=self._demand(size), size=size, tag=dict(tags))
            op.work = self._make_get_work(key)
            ops.append(op)
            futures.append(self.executor.submit(op))
        results = await asyncio.gather(*futures)
        spans = None
        if tags.get(TRACE_REQUESTED):
            spans = [
                dataclasses.asdict(OpSpan.from_op(op, server_id=self.server_id))
                for op in ops
            ]
        return dict(zip(keys, results)), spans

    def _stored_size(self, key: str) -> int:
        """Size lookup for demand estimation (0 when the key is absent)."""
        try:
            return self.storage.get(key, now=time.monotonic()).size
        except KeyNotFoundError:
            return 0

    def _message_value_bytes(self, message: Message) -> int:
        """Value bytes a data message moves (size-dependent fault delays).

        Control-plane messages (stats, probe) move no value bytes, so a
        slow node still answers them promptly — like the real server,
        whose scrapes bypass the service queue.
        """
        fields = message.fields
        if message.type == "get":
            return self._stored_size(fields["key"])
        if message.type == "mget":
            return sum(self._stored_size(k) for k in fields["keys"])
        if message.type == "put":
            return len(fields["value"])
        return 0

    def _make_get_work(self, key: str):
        def work():
            try:
                record = self.storage.get(key, now=time.monotonic())
            except KeyNotFoundError:
                return None
            if record.payload is None:
                return encode_value(b"\x00" * record.size)
            return encode_value(record.payload)

        return work

    async def _do_put(self, fields: Dict[str, Any]):
        key = fields["key"]
        payload = decode_value(fields["value"])
        tags = dict(fields["tags"])
        op = QueuedOp(
            key=key, demand=self._demand(len(payload)), size=len(payload), tag=tags
        )

        def work():
            self.storage.put(
                key, len(payload), now=time.monotonic(), payload=payload
            )
            return True

        op.work = work
        await self.executor.submit(op)
        spans = None
        if tags.get(TRACE_REQUESTED):
            spans = [dataclasses.asdict(OpSpan.from_op(op, server_id=self.server_id))]
        return {}, spans

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def connections(self) -> int:
        return int(self._c_connections.value)

    @property
    def ops_served(self) -> int:
        return int(self._c_ops_served.value)

    @property
    def errors_returned(self) -> int:
        return int(self._c_errors.value)

    @property
    def crashes(self) -> int:
        return int(self._c_crashes.value)

    def stats(self) -> Dict[str, Any]:
        """Counter snapshot for tests and chaos-run reporting.

        The flat keys are kept for back-compatibility; ``metrics`` holds
        the full registry snapshot (the same surface the ``stats`` wire
        message and Prometheus exposition serve).
        """
        return {
            "connections_accepted": self.connections,
            "active_connections": len(self._connections),
            "probes_answered": int(self._c_probes.value),
            "load_reports_sent": int(self._c_reports.value),
            "ops_served": self.ops_served,
            "ops_executed": self.executor.ops_executed,
            "ops_failed": self.executor.ops_failed,
            "errors_returned": self.errors_returned,
            "crashes": self.crashes,
            "faults": self.faults.counters.as_dict(),
            "lanes": self.executor.lane_stats(),
            "metrics": self.registry.snapshot(),
        }

    def metrics_text(self) -> str:
        """Prometheus text exposition of this server's registry."""
        return self.registry.to_prometheus()
