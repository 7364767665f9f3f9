"""Runtime workload ``rt-mixed``: the asyncio store driven from one process.

``LocalCluster`` with two DAS servers and no emulated service sleep, so
what is measured is the data plane's own CPU cost: codec, framing, the
executor and the event loop.  A thousand keys are preloaded, each with
bytes that follow from the seed and the key, so every read can be
checked.  The mix is 90% four-key multigets and 10% puts that rewrite a
key with the same bytes.

Two phases: a closed loop at a fixed in-flight count gives the capacity,
in one-second bursts each paired with a reference kernel run (see
:mod:`perfbench.reference`); a seeded Poisson open loop well below
capacity gives the latencies, timed from each request's due instant (see
:mod:`perfbench.loadgen`).
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import hashlib
import time
from dataclasses import dataclass
from statistics import median
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

import repro.runtime.client as runtime_client
import repro.runtime.server as runtime_server
from repro.runtime.cluster import LocalCluster
from repro.runtime.protocol import Message
from repro.runtime.scheduling import ScheduledExecutor

from perfbench import reference
from perfbench.loadgen import (
    ClosedLoopResult, OpenLoopResult, PhaseResult, run_closed_loop, run_open_loop,
)
from perfbench.tracing import ContextTracer, patched


@dataclass(frozen=True)
class RtWorkload:
    n_servers: int = 2
    scheduler: str = "das"
    keys: int = 1000
    multiget_keys: int = 4
    put_fraction: float = 0.1
    in_flight: int = 16
    open_rate: float = 500.0
    #: Cluster start + preload repetitions; ``setup_s`` is their median.
    setups: int = 5
    #: Share of the run's seconds given to the closed-loop phase, which
    #: runs in bursts of ``burst_s``.
    closed_share: float = 0.75
    burst_s: float = 1.0
    #: Width of the windows whose median completion rate is the capacity.
    window_s: float = 0.5


WORKLOAD = RtWorkload()
RT_LAYERS = ("codec", "transport", "executor")


def key_name(index: int) -> str:
    return f"key{index:05d}"


def value_of(seed: int, key: str) -> bytes:
    """The key's bytes: 64–1023 of them, fixed by ``(seed, key)``."""
    digest = hashlib.blake2b(f"{seed}/{key}".encode(), digest_size=64).digest()
    size = 64 + int.from_bytes(digest[:2], "big") % 960
    return (digest * (size // len(digest) + 1))[:size]


def request_plan(seed: int, phase: int, workload: RtWorkload) -> Iterator[Tuple[str, List[str]]]:
    """Endless seeded stream of ``("mget", keys)`` / ``("put", [key])``."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(phase,)))
    while True:
        if rng.random() < workload.put_fraction:
            yield "put", [key_name(int(rng.integers(workload.keys)))]
        else:
            picks = rng.choice(workload.keys, workload.multiget_keys, replace=False)
            yield "mget", [key_name(int(k)) for k in picks]


class Checker:
    """Sends one planned request and checks its answer."""

    def __init__(self, client, values: Dict[str, bytes]):
        self.client = client
        self.values = values
        self.wrong = 0

    async def __call__(self, request: Tuple[str, List[str]]) -> bool:
        kind, keys = request
        if kind == "put":
            await self.client.put(keys[0], self.values[keys[0]])
            return True
        got = await self.client.multiget(keys)
        if got != {k: self.values[k] for k in keys}:
            self.wrong += 1
            return False
        return True


async def start_cluster(workload: RtWorkload, values: Dict[str, bytes]) -> LocalCluster:
    cluster = LocalCluster(
        n_servers=workload.n_servers, scheduler=workload.scheduler,
        byte_rate=None, trace_sample_rate=0,
    )
    await cluster.start()
    await cluster.preload(values)
    return cluster


class RtProbe:
    """Counters the traced phases gather beside their spans."""

    def __init__(self) -> None:
        self.encoded_bytes = 0
        self.ops: List[Any] = []

    def on_encode(self, _args, frame: bytes) -> None:
        self.encoded_bytes += len(frame)

    def on_submit(self, args, _future) -> None:
        self.ops.append(args[1])


def trace_patches(tracer: ContextTracer, probe: RtProbe):
    decode = vars(Message)["decode"].__func__
    patches = [
        (Message, "encode", tracer.wrap(vars(Message)["encode"], "codec",
                                        observe=probe.on_encode)),
        (Message, "decode", classmethod(tracer.wrap(decode, "codec"))),
        (ScheduledExecutor, "submit", tracer.wrap(vars(ScheduledExecutor)["submit"],
                                                  "executor", observe=probe.on_submit)),
    ]
    for module in (runtime_client, runtime_server):
        for name in ("encode_value", "decode_value"):
            patches.append((module, name, tracer.wrap(vars(module)[name], "codec")))
        patches.append((module, "write_message",
                        tracer.wrap_async(vars(module)["write_message"], "transport")))
    return patches


def _quantile_ms(values: List[float], q: float) -> float:
    # Nearest rank: failures are infinite, and interpolating between two
    # of them is undefined.
    return float(np.percentile(values, q, method="inverted_cdf")) * 1e3 if values else 0.0


@dataclass
class Phases:
    """One closed loop, in bursts each preceded by a reference kernel run,
    then one open loop."""

    bursts: List[Tuple[ClosedLoopResult, float]]
    opened: OpenLoopResult

    def results(self) -> List[PhaseResult]:
        return [closed for closed, _ in self.bursts] + [self.opened]

    @property
    def completed(self) -> int:
        return sum(closed.completed for closed, _ in self.bursts) + self.opened.completed

    def capacity(self) -> float:
        return median(closed.capacity() for closed, _ in self.bursts)

    def nominal_capacity(self) -> float:
        return median(reference.at_nominal(closed.capacity(), ref_s)
                      for closed, ref_s in self.bursts)


async def _phases(check: Checker, seed: int, seconds: float, phase: int,
                  workload: RtWorkload, tracer: Optional[ContextTracer] = None,
                  probe: Optional[RtProbe] = None) -> Phases:
    plan = request_plan(seed, phase, workload)
    n_bursts = max(round(seconds * workload.closed_share / workload.burst_s), 1)
    bursts = []
    for _ in range(n_bursts):
        ref_s = reference.seconds()
        closed = await run_closed_loop(
            check, plan, workload.in_flight, workload.burst_s, workload.window_s, tracer,
        )
        bursts.append((closed, ref_s))
    if probe is not None:
        probe.ops.clear()
    opened = await run_open_loop(
        check, request_plan(seed, phase + 1, workload), workload.open_rate,
        seconds * (1 - workload.closed_share), seed, tracer,
    )
    return Phases(bursts, opened)


def _open_metrics(opened: OpenLoopResult) -> Dict[str, float]:
    lat = opened.latencies_with_failures()
    return {
        "rt_p50_ms": _quantile_ms(lat, 50),
        "rt_p99_ms": _quantile_ms(lat, 99),
        "loadgen.lag_ms_p99": _quantile_ms(opened.lags(), 99),
        "loadgen.backlog_max": opened.backlog_max(),
    }


async def _run(seed: int, seconds: float, trace: bool, workload: RtWorkload) -> Dict[str, Any]:
    values = {key_name(i): value_of(seed, key_name(i)) for i in range(workload.keys)}
    setups = []  # (seconds, reference kernel seconds just before)
    cluster = None
    for _ in range(workload.setups):
        if cluster is not None:
            await cluster.stop()
        ref_s = reference.seconds()
        t0 = time.perf_counter()
        cluster = await start_cluster(workload, values)
        setups.append((time.perf_counter() - t0, ref_s))
    gc.collect()
    problems: List[str] = []
    try:
        check = Checker(cluster.client, values)
        share = seconds / 2 if trace else seconds
        untraced = await _phases(check, seed, share, 0, workload)
        results = untraced.results()
        out: Dict[str, Any] = {
            "end_to_end": {
                "nominal_req_per_s": untraced.nominal_capacity(),
                "setup_s": median(reference.seconds_at_nominal(t, r) for t, r in setups),
            },
            "detail": dict(
                _open_metrics(untraced.opened),
                **{"host.req_per_s": untraced.capacity(),
                   "host.setup_s": median(t for t, _ in setups),
                   "host.ref_per_s": 1.0 / median(r for _, r in untraced.bursts)},
            ),
        }
        if trace:
            tracer = ContextTracer(RT_LAYERS)
            probe = RtProbe()
            with patched(trace_patches(tracer, probe)):
                traced = await _phases(check, seed, share, 2, workload, tracer, probe)
            results += traced.results()
            layers = tracer.by_layer()
            requests = max(traced.completed, 1)
            waits = [op.start_time - op.enqueue_time for op in probe.ops]
            services = [op.finish_time - op.start_time for op in probe.ops]
            out["layers"] = {
                "codec.calls": layers["codec"]["calls"],
                "codec.self_s": layers["codec"]["self_s"],
                "codec.bytes_per_req": probe.encoded_bytes / requests,
                "transport.frames_per_req": layers["transport"]["calls"] / requests,
                "transport.self_s": layers["transport"]["self_s"],
                "executor.ops": len(probe.ops),
                "executor.wait_ms_p50": _quantile_ms(waits, 50),
                "executor.wait_ms_p99": _quantile_ms(waits, 99),
                "executor.service_ms_mean": 1e3 * float(np.mean(services)) if services else 0.0,
                "trace.spans": len(tracer),
                "trace_overhead_frac": 1.0 - traced.capacity() / untraced.capacity(),
            }
            out["spans"] = tracer
        for result in results:
            problems += result.problems
        if check.wrong:
            problems.append(f"{check.wrong} multigets returned wrong bytes")
        out["attempted"] = sum(r.attempted for r in results)
        out["failed"] = sum(r.failed for r in results)
    finally:
        await cluster.stop()
    out["params"] = dataclasses.asdict(workload)
    out["problems"] = problems
    return out


def run(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    if name != "rt-mixed":
        raise KeyError(name)
    return asyncio.run(_run(seed, seconds, trace, WORKLOAD))
