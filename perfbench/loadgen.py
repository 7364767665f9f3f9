"""Closed- and open-loop load generators for the runtime workload.

The open loop times every request from the instant it was *due*, not from
when the generator got round to sending it.  If the event loop stalls,
requests due during the stall are sent late, and that lateness is part of
their latency, as a user arriving on schedule would see it.  Timing from
the send instead (``repro.runtime.loadgen.LoadGenerator`` does this) hides
stalls: the coordinated-omission error.  The generator's own lateness and
its backlog of due-but-unsent requests are recorded beside the latencies.

A request whose call raises, or that has not finished when the drain
timeout ends, is a failure; in the open loop its latency is infinite, so
it misses any limit.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from statistics import median
from typing import Awaitable, Callable, Iterator, List, Optional

import numpy as np

from perfbench.tracing import ContextTracer

#: How long a phase waits for its last requests before failing them.
DRAIN_S = 10.0

Call = Callable[[object], Awaitable[bool]]


@dataclass
class PhaseResult:
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(why)


@dataclass
class ClosedLoopResult(PhaseResult):
    seconds: float = 0.0
    window_s: float = 0.5
    #: Completion instants, seconds after the phase started.
    finished: List[float] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return len(self.finished)

    def capacity(self) -> float:
        """Median completions per second over the phase's full windows."""
        windows = max(int(self.seconds / self.window_s), 1)
        counts = [0] * windows
        for t in self.finished:
            w = int(t / self.window_s)
            if w < windows:
                counts[w] += 1
        return median(counts) / self.window_s


@dataclass
class OpenLoopResult(PhaseResult):
    due: List[float] = field(default_factory=list)
    sent: List[float] = field(default_factory=list)
    #: Finish instant per request; ``inf`` for a failure.
    finish: List[float] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return sum(1 for f in self.finish if f != float("inf"))

    def latencies_with_failures(self) -> List[float]:
        return [f - d for d, f in zip(self.due, self.finish)]

    def lags(self) -> List[float]:
        return [s - d for d, s in zip(self.due, self.sent)]

    def backlog_max(self) -> int:
        """Most requests ever due but not yet sent (the one being sent included)."""
        return max(
            (bisect_right(self.due, s) - i for i, s in enumerate(self.sent)),
            default=0,
        )


async def _send(call: Call, request, index: int, tracer: Optional[ContextTracer],
                phase: PhaseResult) -> bool:
    try:
        if tracer is None:
            ok = await call(request)
        else:
            with tracer.request(index):
                ok = await call(request)
    except Exception as exc:  # noqa: BLE001 - a failed request is a result
        phase.fail(f"request {index}: {type(exc).__name__}: {exc}")
        return False
    if not ok:
        phase.fail(f"request {index}: wrong answer")
    return ok


async def _drain(tasks: List[asyncio.Task], phase: PhaseResult) -> None:
    if not tasks:
        return
    done, pending = await asyncio.wait(tasks, timeout=DRAIN_S)
    for task in pending:
        task.cancel()
    if pending:
        await asyncio.wait(pending)
        phase.problems.append(f"{len(pending)} tasks still running after the drain timeout")
    for task in done:
        task.result()


async def run_closed_loop(call: Call, plan: Iterator, in_flight: int, seconds: float,
                          window_s: float, tracer: Optional[ContextTracer] = None
                          ) -> ClosedLoopResult:
    """``in_flight`` workers, each sending its next request when one returns."""
    result = ClosedLoopResult(seconds=seconds, window_s=window_s)
    numbers = itertools.count()
    start = time.perf_counter()
    stop = start + seconds

    async def worker() -> None:
        while time.perf_counter() < stop:
            index = next(numbers)
            result.attempted += 1
            if await _send(call, next(plan), index, tracer, result):
                result.finished.append(time.perf_counter() - start)

    tasks = [asyncio.create_task(worker()) for _ in range(in_flight)]
    await _drain(tasks, result)
    # A request cut off by the drain timeout was attempted but never counted.
    result.failed += result.attempted - result.completed - result.failed
    return result


async def run_open_loop(call: Call, plan: Iterator, rate: float, seconds: float,
                        seed: int, tracer: Optional[ContextTracer] = None) -> OpenLoopResult:
    """Seeded Poisson arrivals at ``rate`` for ``seconds``, timed from due instants."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1 << 20,)))
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 2) + 16)
    offsets = np.cumsum(gaps)
    offsets = offsets[offsets < seconds].tolist()
    result = OpenLoopResult()
    start = time.perf_counter()
    result.due = [start + o for o in offsets]
    result.sent = [0.0] * len(offsets)
    result.finish = [float("inf")] * len(offsets)

    async def one(index: int, request) -> None:
        if await _send(call, request, index, tracer, result):
            result.finish[index] = time.perf_counter()

    tasks = []
    for index, due in enumerate(result.due):
        now = time.perf_counter()
        if due > now:
            await asyncio.sleep(due - now)
            now = time.perf_counter()
        result.sent[index] = now
        result.attempted += 1
        tasks.append(asyncio.create_task(one(index, next(plan))))
    await _drain(tasks, result)
    result.failed = sum(1 for f in result.finish if f == float("inf"))
    return result
