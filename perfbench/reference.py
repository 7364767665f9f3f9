"""A fixed CPU reference kernel that corrects host throughput for drift.

On a shared machine the speed a process gets drifts by a quarter or more
from one run to the next (neighbours on the same cores, clock changes).
This kernel runs beside each measured block; how long it took says how
fast the machine was just then, and :func:`at_nominal` scales the block's
throughput (:func:`seconds_at_nominal` its duration) to what it would
have been at a fixed nominal kernel time.

The program does not speed up and slow down one for one with the kernel:
it is more memory-bound, and on the 2-core shared machine this was sized
on, log program rate against log kernel rate had slopes of 0.49–0.65
(correlation 0.67–0.96) across the four workloads over ten runs each.
Simulator set-up time tracked the kernel one for one (slopes near 1, the
256-server X5 build 0.5, the runtime's socket-bound start 0.4).
:data:`ELASTICITY` is that slope.  Whatever its value, the scaled rate is
proportional to the program's own speed at a given machine state, so two
commits measured with the same kernel and constants compare fairly; the
constant only decides how much of the drift is removed.

The kernel mimics the program's character: a heap-driven event loop over
small objects with attribute updates, dict lookups and float arithmetic,
over a working set large enough to feel cache pressure.  This module is
part of the benchmark's definition: changing it changes every scaled
value, so two commits are only compared under one version of it.
"""

from __future__ import annotations

import gc
import heapq
import random
import time


#: Slope of log program rate against log kernel rate (see above).
ELASTICITY = 0.7
#: Kernel duration that defines the nominal machine speed.
NOMINAL_S = 0.08


def at_nominal(rate: float, kernel_s: float) -> float:
    """``rate``, measured while one kernel run took ``kernel_s``, scaled to
    a machine on which the kernel takes :data:`NOMINAL_S`."""
    return rate * (kernel_s / NOMINAL_S) ** ELASTICITY


def seconds_at_nominal(elapsed: float, kernel_s: float) -> float:
    """A duration scaled the same way as :func:`at_nominal` scales a rate."""
    return elapsed * (NOMINAL_S / kernel_s) ** ELASTICITY


class _Item:
    __slots__ = ("key", "work", "done", "hits")

    def __init__(self, key: str, work: float):
        self.key = key
        self.work = work
        self.done = 0.0
        self.hits = 0


def kernel(events: int = 20_000, pending_size: int = 4096, keys: int = 20_000) -> float:
    """Run the reference event loop once; returns a checksum.

    The heap and the key table are sized like a simulator cell's pending
    set and keyspace, so the kernel feels the same cache pressure.
    """
    rng = random.Random(7)
    names = [f"key{i:06d}" for i in range(keys)]
    table = {}
    totals = {}
    pending = []
    seq = 0
    now = 0.0
    for i in range(pending_size):
        heapq.heappush(pending, (rng.random(), seq, _Item(names[i], rng.random())))
        seq += 1
    for _ in range(events):
        now, _, item = heapq.heappop(pending)
        item.done += item.work
        key = names[int(rng.random() * keys)]
        entry = table.get(key)
        if entry is None:
            entry = table[key] = _Item(key, 0.0)
        entry.hits += 1
        entry.done += item.work
        totals[item.key] = totals.get(item.key, 0.0) + item.work
        heapq.heappush(pending, (now + rng.expovariate(2.0), seq, _Item(key, rng.random())))
        seq += 1
    return now + sum(totals.values())


def seconds() -> float:
    """Host seconds one kernel run takes right now.

    The collector is off while it runs: a collection's cost grows with
    everything else the process holds, which would make the kernel
    measure the caller's heap instead of the machine.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
