"""The simulated key-value server.

One server = one storage engine + one scheduler queue + one service loop.
The loop is non-preemptive and work-conserving: whenever operations are
queued it serves the one the scheduler picks, for a service time drawn
from the server's :class:`~repro.kvstore.service.ServiceModel` (which may
degrade over time).  Completions are shipped back to the issuing client
with optional piggybacked feedback.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.estimator import EwmaEstimator
from repro.errors import KeyNotFoundError
from repro.kvstore.items import Feedback, OpKind, Operation, Response
from repro.kvstore.network import NetworkModel
from repro.kvstore.service import ServiceModel
from repro.kvstore.storage import StorageEngine
from repro.schedulers.base import ServerQueue
from repro.sim.core import Environment

if TYPE_CHECKING:  # pragma: no cover
    from repro.kvstore.client import Client


class Server:
    """A simulated KV server with a pluggable scheduling queue."""

    def __init__(
        self,
        env: Environment,
        server_id: int,
        queue: ServerQueue,
        service: ServiceModel,
        storage: StorageEngine,
        network: NetworkModel,
        piggyback_feedback: bool = True,
        rate_alpha: float = 0.2,
        outages: tuple = (),
    ):
        self.env = env
        self.server_id = server_id
        self.queue = queue
        self.service = service
        self.storage = storage
        self.network = network
        self.piggyback_feedback = piggyback_feedback
        #: Fault-injection windows: during an ``(start, end)`` outage the
        #: server serves nothing; queued operations wait it out.  An
        #: in-flight operation started before the outage still completes
        #: (non-preemptive service).  Windows are validated, sorted, and
        #: overlapping/contiguous ones merged so the lookup can bisect.
        windows = sorted(tuple(w) for w in outages)
        for start, end in windows:
            if end <= start or start < 0:
                raise ValueError(f"invalid outage window ({start}, {end})")
        merged: list[tuple[float, float]] = []
        for start, end in windows:
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        self.outages = tuple(merged)
        self._outage_starts = [w[0] for w in merged]
        #: client_id -> Client, wired by the cluster after construction.
        self.clients: dict[int, "Client"] = {}

        #: Service-loop state: idle (waiting for work, no step scheduled)
        #: and parked (crashed, waiting for :meth:`recover`).  Exactly
        #: one of these holds, or a step (start, outage wait, service
        #: completion) is pending on the event heap.
        self._idle = False
        self._parked = False
        self._current_finish: Optional[float] = None
        self._rate_ewma = EwmaEstimator(rate_alpha, initial=service.base_speed)

        #: Size-lane support (duck-typed on the queue, like the obs
        #: bridge): the lane layer is pure dispatch order — the service
        #: loop is unchanged — but the server keeps per-lane busy time
        #: so utilization can be split by lane in run stats.
        self.lanes = getattr(queue, "lanes", None)
        self.lane_busy_time: dict[str, float] = {
            lane: 0.0 for lane in (self.lanes or ())
        }

        #: Hard-crash lifecycle (driven by a fault plan): unlike an
        #: outage, a crash *loses* queued operations and refuses new ones
        #: until :meth:`recover`.
        self.crashed = False
        self.crashes = 0

        self.ops_served = 0
        self.ops_failed = 0
        self.ops_dropped = 0
        self.probes_answered = 0
        self.busy_time = 0.0
        # First step at the current instant, where starting a loop
        # process would have put it.
        env.call_soon(self._next)

    # ------------------------------------------------------------------
    # Ingress
    # ------------------------------------------------------------------
    def handle_operation(self, op: Operation) -> None:
        """Network delivery point for a dispatched operation."""
        if self.crashed:
            # A dead process accepts nothing; the op vanishes and the
            # client's timeout (or hedge) has to notice.
            self.ops_dropped += 1
            return
        self.queue.push(op, self.env.now)
        if self._idle:
            self._idle = False
            self.env.call_soon(self._next)

    def handle_probe(self, client_id: int) -> None:
        """Network delivery point for a selection probe.

        Probes live on the control plane: answered immediately from the
        current queue state (no service time), dropped silently when the
        server is crashed — the prober's pool ages the entry out.
        """
        if self.crashed:
            return
        client = self.clients.get(client_id)
        if client is None:  # pragma: no cover - wiring error
            raise RuntimeError(
                f"server {self.server_id} has no route to client {client_id}"
            )
        self.probes_answered += 1
        feedback = self.make_feedback()
        self.network.send(
            ("server", self.server_id),
            ("client", client_id),
            feedback,
            client.receive_probe_reply,
        )

    # ------------------------------------------------------------------
    # Crash / recover lifecycle
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Hard-kill the server: queued operations are dropped.

        This is the fault-plan ``Crash`` semantic — stronger than an
        outage window, which merely parks the queue.  An operation in
        service when the crash lands also dies (detected by the service
        loop via the ``crashes`` epoch).
        """
        if self.crashed:
            return
        self.crashed = True
        self.crashes += 1
        now = self.env.now
        while len(self.queue):
            self.queue.pop(now)
            self.ops_dropped += 1
        if self._idle:
            self._idle = False
            self.env.call_soon(self._next)

    def recover(self) -> None:
        """Bring a crashed server back, empty-queued, ready to serve."""
        if not self.crashed:
            return
        self.crashed = False
        if self._parked:
            self._parked = False
            self.env.call_soon(self._next)

    # ------------------------------------------------------------------
    # Service loop
    # ------------------------------------------------------------------
    def _outage_end(self, now: float) -> Optional[float]:
        """End of the outage covering ``now``, or None when up.

        Windows are merged and sorted at construction, so the covering
        window (if any) is the one with the greatest start <= now.
        """
        i = bisect_right(self._outage_starts, now) - 1
        if i >= 0 and now < self.outages[i][1]:
            return self.outages[i][1]
        return None

    def _next(self, _=None) -> None:
        """One service-loop step: start the next operation or wait.

        Runs as a direct call from the event heap (no process, no wake-up
        event): at start-up, when work arrives at an idle server, when an
        outage ends, after each completion, and on recovery.
        """
        env = self.env
        if self.crashed:
            self._parked = True
            return
        now = env.now
        outage_end = self._outage_end(now)
        if outage_end is not None:
            env.call_later(outage_end - now, self._next)
            return
        if len(self.queue) == 0:
            self._idle = True
            return
        op = self.queue.pop(now)
        op.start_time = now
        ok, size = self._execute(op)
        service_time = self.service.sample_service_time(size, now)
        self._current_finish = now + service_time
        env.call_later(
            service_time, self._finish, (op, self.crashes, ok, size, service_time)
        )

    def _finish(self, job: tuple) -> None:
        """Service completion: account, respond, and take the next step."""
        op, epoch, ok, size, service_time = job
        self._current_finish = None
        if self.crashes != epoch:
            # The server died mid-service; the op dies with it.
            self.ops_dropped += 1
            self._next()
            return
        now = self.env.now
        op.finish_time = now
        self.busy_time += service_time
        if self.lanes is not None:
            lane = op.tag.get("lane")
            if lane in self.lane_busy_time:
                self.lane_busy_time[lane] += service_time
        # Learn our own effective rate from the completed operation.
        observed = self.service.rate_sample(op.demand, service_time)
        self._rate_ewma.update(observed)
        self.queue.on_service_complete(op, now)
        if ok:
            self.ops_served += 1
        else:
            self.ops_failed += 1
        self._respond(op, ok, size)
        self._next()

    def _execute(self, op: Operation) -> tuple[bool, int]:
        """Run the operation against the storage engine.

        Returns (ok, bytes_moved); a miss still consumes overhead time but
        moves no value bytes.
        """
        now = self.env.now
        if op.kind is OpKind.PUT:
            self.storage.put(op.key, op.value_size, now=now)
            return True, op.value_size
        try:
            record = self.storage.get(op.key, now=now)
        except KeyNotFoundError:
            return False, 0
        return True, record.size

    def _respond(self, op: Operation, ok: bool, size: int) -> None:
        feedback = self.make_feedback() if self.piggyback_feedback else None
        response = Response(
            operation=op,
            ok=ok,
            value_size=size,
            feedback=feedback,
            error=None if ok else "key not found",
        )
        client = self.clients.get(op.request.client_id)
        if client is None:  # pragma: no cover - wiring error
            raise RuntimeError(
                f"server {self.server_id} has no route to client "
                f"{op.request.client_id}"
            )
        self.network.send(
            ("server", self.server_id),
            ("client", client.client_id),
            response,
            client.handle_response,
            size_bytes=size,
        )

    # ------------------------------------------------------------------
    # Feedback & introspection
    # ------------------------------------------------------------------
    @property
    def measured_rate(self) -> float:
        """EWMA of observed service speed (demand-seconds per second)."""
        return self._rate_ewma.value_or(self.service.base_speed)

    def in_service_residual(self, now: float) -> float:
        """Remaining service time of the operation on the CPU, if any."""
        if self._current_finish is None:
            return 0.0
        return max(0.0, self._current_finish - now)

    def make_feedback(self) -> Feedback:
        """Snapshot this server's congestion for clients.

        Queued demand is converted to wall time by the *measured* rate, so
        a degraded server correctly reports a longer backlog than its
        queue's raw demand suggests.
        """
        now = self.env.now
        rate = max(self.measured_rate, 1e-9)
        queued_seconds = self.queue.queued_demand / rate + self.in_service_residual(now)
        return Feedback(
            server_id=self.server_id,
            queued_work=queued_seconds,
            queue_length=len(self.queue),
            rate_sample=self.measured_rate,
            timestamp=now,
        )

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` spent serving operations."""
        if elapsed <= 0:
            return 0.0
        return self.busy_time / elapsed

    def __repr__(self) -> str:
        return (
            f"Server(id={self.server_id}, queued={len(self.queue)}, "
            f"served={self.ops_served})"
        )


def make_periodic_broadcaster(
    env: Environment,
    server: Server,
    interval: float,
    deliver: Callable[[Feedback], None],
):
    """Process generator broadcasting feedback snapshots every ``interval``.

    ``deliver`` receives the snapshot and is responsible for fanning it out
    to clients (the cluster wires this through the network model).
    """

    def _broadcast():
        while True:
            yield env.pooled_timeout(interval)
            if server.crashed:
                # A dead server gossips nothing; clients keep their last
                # (stale) view until the failure detector marks it.
                continue
            deliver(server.make_feedback())

    return _broadcast()
