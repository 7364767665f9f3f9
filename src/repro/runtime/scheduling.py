"""Scheduled executor: the simulator's queues driving real work.

The executor owns a :class:`~repro.schedulers.base.ServerQueue` (any
registered policy — FCFS, SBF, DAS, ...) and a single worker task that
repeatedly pops the queue's pick and executes it.  An optional service
throttle emulates a bounded-rate backend so scheduling visibly matters in
demos; production use would set ``byte_rate=None`` and let real storage
latency be the cost.

Zero-cost operations (no throttle) are served back to back: the worker
only yields to the event loop when the queue runs dry or after
``_BURST`` operations in a row, so a flood of them can neither starve
the loop nor pay a loop round-trip each.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.core.estimator import EwmaEstimator
from repro.obs import MetricsRegistry, register_queue_gauges
from repro.schedulers.base import QueueContext, SchedulingPolicy, ServerQueue
from repro.schedulers.registry import create_policy

#: Zero-cost operations served in a row before the worker yields.
_BURST = 64


class ExecutorStoppedError(RuntimeError):
    """Submit rejected because the executor has been stopped or aborted.

    Raised synchronously by :meth:`ScheduledExecutor.submit` so a caller
    can never be handed a future that no worker will ever resolve.
    """


@dataclass
class QueuedOp:
    """The minimal operation shape the scheduler queues require.

    Mirrors the fields of :class:`repro.kvstore.items.Operation` that the
    queue disciplines read: ``demand``, ``tag``, and ``enqueue_time`` (set
    by the queue itself on push).
    """

    key: str
    demand: float
    #: Value bytes the operation moves — what a size-laned queue routes on.
    size: int = 0
    tag: Dict[str, Any] = field(default_factory=dict)
    enqueue_time: float = float("nan")
    #: Resolved when the operation has been executed (created at submit).
    done: Optional[asyncio.Future] = None
    #: The actual work to run, set by the server.
    work: Optional[Callable[[], Any]] = None

    # The queue bookkeeping also reads nothing else; timestamps below are
    # filled by the executor for observability.
    start_time: float = float("nan")
    finish_time: float = float("nan")


class ScheduledExecutor:
    """Single-worker executor ordered by a scheduling policy.

    Parameters
    ----------
    policy_name / policy_params:
        Scheduler to instantiate from the registry.
    byte_rate:
        When set, each operation additionally sleeps ``bytes / byte_rate``
        seconds to emulate a bounded-throughput backend.
    seed:
        Seed for policies that randomize (e.g. ``random``).
    """

    def __init__(
        self,
        policy_name: str = "das",
        policy_params: Optional[Dict[str, Any]] = None,
        byte_rate: Optional[float] = 100e6,
        server_id: int = 0,
        rate_alpha: float = 0.2,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.policy: SchedulingPolicy = create_policy(
            policy_name, **(policy_params or {})
        )
        self.queue: ServerQueue = self.policy.make_queue(
            QueueContext(server_id=server_id, rng=np.random.default_rng(server_id))
        )
        self.byte_rate = byte_rate
        self._rate_ewma = EwmaEstimator(rate_alpha, initial=1.0)
        self._wakeup = asyncio.Event()
        self._worker: Optional[asyncio.Task] = None
        self._stopping = False
        #: The operation in service, if any.
        self._current: Optional[QueuedOp] = None
        #: Lane names when the policy built a size-laned queue (dispatch
        #: order changes, the worker does not), else None.
        self.lanes = getattr(self.queue, "lanes", None)
        #: Registry instruments.  A shared registry (e.g. the cluster's)
        #: keeps one series per server across executor restarts; a fresh
        #: one is created for standalone use.
        self.registry = registry if registry is not None else MetricsRegistry()
        sid = str(server_id)
        self._ops_executed = self.registry.counter(
            "executor_ops_total", "Operations executed to completion", server=sid
        )
        self._ops_failed = self.registry.counter(
            "executor_op_failures_total", "Operations whose work raised", server=sid
        )
        self._rejected = self.registry.counter(
            "executor_rejected_total", "Submits refused after stop/abort", server=sid
        )
        self._service_hist = self.registry.histogram(
            "executor_service_seconds", "Per-operation service time", server=sid
        )
        self.registry.gauge(
            "executor_rate",
            "EWMA of measured service rate (demand-seconds/second)",
            fn=lambda: self.measured_rate,
            server=sid,
        )
        register_queue_gauges(self.registry, self.queue, server_id)

    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._worker is not None:
            raise RuntimeError("executor already started")
        self._stopping = False
        self._worker = asyncio.create_task(self._run(), name="scheduled-executor")

    async def stop(self) -> None:
        self._stopping = True
        self._wakeup.set()
        if self._worker is not None:
            await self._worker
            self._worker = None

    async def abort(self) -> None:
        """Halt immediately without draining queued work (crash semantics).

        Queued operations' futures, and the one in service, are cancelled
        so no submitter awaits a result that will never come.
        """
        self._stopping = True
        if self._worker is not None:
            self._worker.cancel()
            try:
                await self._worker
            except asyncio.CancelledError:
                pass
            self._worker = None
        orphans = [self._current] if self._current is not None else []
        self._current = None
        while len(self.queue) > 0:
            orphans.append(self.queue.pop(time.monotonic()))
        for op in orphans:
            if op.done is not None and not op.done.done():
                op.done.cancel()

    def submit(self, op: QueuedOp) -> asyncio.Future:
        """Enqueue an operation; the returned future resolves with its result.

        Submitting before :meth:`start` is allowed (the batch is served
        once the worker runs); submitting after :meth:`stop` or
        :meth:`abort` raises :class:`ExecutorStoppedError` immediately —
        the queue is dead and a future enqueued onto it would hang its
        awaiter forever.
        """
        if self._stopping:
            self._rejected.inc()
            raise ExecutorStoppedError("executor is stopped; operation rejected")
        if op.done is None:
            op.done = asyncio.get_running_loop().create_future()
        self.queue.push(op, time.monotonic())
        self._wakeup.set()
        return op.done

    # ------------------------------------------------------------------
    async def _run(self) -> None:
        burst = 0
        while True:
            if len(self.queue) == 0:
                self._wakeup.clear()
                if self._stopping:
                    return
                burst = 0
                await self._wakeup.wait()
                continue
            op = self.queue.pop(time.monotonic())
            op.start_time = time.monotonic()
            self._current = op
            throttled = self.byte_rate is not None and op.demand > 0
            try:
                result = op.work() if op.work is not None else None
                if throttled:
                    await asyncio.sleep(op.demand)
            except Exception as exc:  # noqa: BLE001 - forwarded to the waiter
                # The queue saw this op leave service even though it
                # failed; skipping the hook would desynchronize adaptive
                # state (EWMAs, controller) from reality.
                op.finish_time = time.monotonic()
                self._current = None
                self._ops_failed.inc()
                self._service_hist.observe(op.finish_time - op.start_time)
                self.queue.on_service_complete(op, op.finish_time)
                if not op.done.done():
                    op.done.set_exception(exc)
            else:
                op.finish_time = time.monotonic()
                self._current = None
                elapsed = op.finish_time - op.start_time
                if op.demand > 0 and elapsed > 0:
                    self._rate_ewma.update(op.demand / elapsed)
                self._ops_executed.inc()
                self._service_hist.observe(elapsed)
                self.queue.on_service_complete(op, op.finish_time)
                if not op.done.done():
                    op.done.set_result(result)
            if not throttled:
                burst += 1
                if burst >= _BURST:
                    # Bound how long a run of zero-cost ops holds the loop.
                    burst = 0
                    await asyncio.sleep(0)

    # ------------------------------------------------------------------
    @property
    def ops_executed(self) -> int:
        """Operations executed to completion (registry-backed)."""
        return int(self._ops_executed.value)

    @property
    def ops_failed(self) -> int:
        """Operations whose work raised (registry-backed)."""
        return int(self._ops_failed.value)

    @property
    def measured_rate(self) -> float:
        return self._rate_ewma.value_or(1.0)

    @property
    def in_flight(self) -> int:
        """Operations queued plus the one currently in service."""
        return len(self.queue) + (1 if self._current is not None else 0)

    def feedback(self) -> Dict[str, float]:
        """Feedback snapshot in the wire-protocol shape."""
        rate = max(self.measured_rate, 1e-9)
        return {
            "queued_work": self.queue.queued_demand / rate,
            "queue_length": len(self.queue),
            "rate_sample": self.measured_rate,
        }

    def lane_stats(self) -> Optional[Dict[str, Any]]:
        """Per-lane depth and cutoff snapshot, None for unlaned queues."""
        if self.lanes is None:
            return None
        queue = self.queue
        return {
            "cutoff": queue.cutoff,
            "lanes": {
                lane: {
                    "share": queue.share(lane),
                    "queued": queue.lane_length(lane),
                    "routed": queue.routed[lane],
                    "served": queue.served[lane],
                }
                for lane in self.lanes
            },
        }
