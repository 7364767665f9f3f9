"""Simulator workloads: scenario cells driven through ``Cluster``.

One run builds and runs a fixed list of *cells* — the same scenario cell
under ``cells`` seeds derived from the benchmark seed — then keeps
re-running them in order until the run's time is up.  Every re-run must
reproduce its first run bit for bit.  Host throughput is the median over
all cells run, each scaled by the reference kernel run just before it
(see :mod:`perfbench.reference`); the simulated RCT metrics pool the
steady-state requests of the first pass, so they depend on the seed alone.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import itertools
import time
from contextlib import nullcontext
from dataclasses import dataclass
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.estimator import ServerEstimates
from repro.experiments.scenarios import get_scenario
from repro.kvstore.client import Client
from repro.kvstore.cluster import Cluster, RunResult
from repro.kvstore.config import ClusterConfig, SimulationConfig
from repro.kvstore.network import NetworkModel
from repro.kvstore.partitioning import ConsistentHashRing
from repro.kvstore.replication import ReplicaPlacement
from repro.kvstore.server import Server
from repro.kvstore.storage import StorageEngine
from repro.metrics.collector import MetricsCollector
from repro.schedulers.base import ClientTagger, ServerQueue
from repro.sharding.cutoff import WindowedQuantileCutoff
from repro.workload.requests import RequestFactory

from perfbench import reference
from perfbench.tracing import NO_REQUEST, StackTracer, patched, subclasses_defining


@dataclass(frozen=True)
class SimWorkload:
    """One scenario cell plus how much of it a run measures."""

    scenario: str
    point: Any
    scheduler: str
    #: Requests per cell (the scenario's own ``max_requests`` is ignored).
    requests: int
    #: Distinct seeds per run; their first pass feeds the RCT metrics.
    cells: int

    def params(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


WORKLOADS: Dict[str, SimWorkload] = {
    "sim-das-e1": SimWorkload("E1", 0.8, "DAS", requests=3000, cells=8),
    "sim-lanes-x4": SimWorkload("X4", "pareto-1.3", "Lanes+DAS", requests=2000, cells=8),
    "sim-fleet-x5": SimWorkload("X5", "256s/dodoor", "DAS", requests=2000, cells=8),
}

SIM_LAYERS = (
    "workload", "tagger", "queue", "sharding", "selection", "network",
    "estimator", "server", "client", "metrics",
)


def cell_config(workload: SimWorkload, seed: int) -> Tuple[ClusterConfig, SimulationConfig]:
    """The workload's scenario cell with its scheduler and ``seed`` applied."""
    scenario = get_scenario(workload.scenario, 1.0)
    point = next(p for p in scenario.points if p.x == workload.point)
    spec = next(s for s in scenario.schedulers if s.label == workload.scheduler)
    config = dataclasses.replace(
        point.config, scheduler=spec.name, scheduler_params=dict(spec.params), seed=seed
    )
    sim = dataclasses.replace(point.sim, max_requests=workload.requests)
    return config, sim


def cell_seeds(seed: int, cells: int) -> List[int]:
    return [seed * 1000 + i for i in range(cells)]


@dataclass
class CellRun:
    seed: int
    setup_s: float
    run_s: float
    completed: int
    failed: int
    problems: List[str]
    fingerprint: str
    rcts: np.ndarray  # steady-state window, seconds
    #: Duration of the reference kernel run just before this cell.
    ref_s: float = float("nan")

    @property
    def rate(self) -> float:
        return self.completed / self.run_s

    @property
    def nominal_rate(self) -> float:
        return reference.at_nominal(self.rate, self.ref_s)

    @property
    def nominal_setup_s(self) -> float:
        return reference.seconds_at_nominal(self.setup_s, self.ref_s)


def check_cell(config: ClusterConfig, sim: SimulationConfig, result: RunResult,
               cluster: Cluster) -> Tuple[int, List[str]]:
    """Count failed requests and name every broken invariant of a cell."""
    problems = []
    target = sim.max_requests
    missing = target - result.requests_completed
    if missing or result.requests_sent != target:
        problems.append(f"sent {result.requests_sent}, completed "
                        f"{result.requests_completed} of {target}")
    ops_bad = sum(result.server_ops_failed) + sum(result.server_ops_dropped)
    if ops_bad:
        problems.append(f"{ops_bad} failed or dropped operations")
    if cluster.network.messages_dropped:
        problems.append(f"{cluster.network.messages_dropped} dropped messages")
    all_rcts = result.collector.rcts(0.0)
    too_fast = int(np.count_nonzero(all_rcts < 2 * config.network_base_delay))
    if too_fast:
        problems.append(f"{too_fast} RCTs below two network hops")
    return max(missing, 0) + ops_bad + too_fast, problems


def fingerprint(result: RunResult) -> str:
    """Digest of everything simulated: each request's arrival and finish."""
    digest = hashlib.sha256(np.array(
        [(r.request_id, r.arrival_time, r.completion_time)
         for r in result.collector.records],
        dtype=np.float64,
    ).tobytes())
    digest.update(repr((result.sim_time, result.warmup_time,
                        result.server_utilizations)).encode())
    return digest.hexdigest()


def rct_metrics(rcts: np.ndarray) -> Dict[str, float]:
    """Mean/p50/p99 and, when ten samples lie beyond it, p99.9 — in ms."""
    out = {
        "rct_mean_ms": float(rcts.mean()) * 1e3,
        "rct_p50_ms": float(np.percentile(rcts, 50)) * 1e3,
        "rct_p99_ms": float(np.percentile(rcts, 99)) * 1e3,
    }
    if rcts.size * 0.001 >= 10:
        out["rct_p999_ms"] = float(np.percentile(rcts, 99.9)) * 1e3
    return out


# ----------------------------------------------------------------------
# Tracing: which public calls belong to which layer
# ----------------------------------------------------------------------
def _rid_arg(index: int):
    """Request id of ``args[index]`` (an op, request or response), if any."""
    def rid(args: tuple) -> int:
        obj = args[index]
        value = getattr(obj, "request_id", None)
        if value is None:
            value = getattr(getattr(obj, "operation", None), "request_id", None)
        return NO_REQUEST if value is None else int(value)
    return rid


def _patches(tracer: StackTracer, owners, name: str, layer: str, rid=None, observe=None):
    return [(cls, name, tracer.wrap(vars(cls)[name], layer, rid, observe)) for cls in owners]


class SimTrace:
    """Span logs and counters of one traced cell.

    Construction and run are logged apart: the run log's self times plus
    the kernel residual must add up to the run's wall time.
    """

    def __init__(self) -> None:
        self.setup = StackTracer(["setup.preload", "setup.ring"])
        self.spans = StackTracer(SIM_LAYERS)
        self.top_queues: set = set()
        self.waits: List[float] = []
        self.len_max = 0

    def _on_push(self, args, _result) -> None:
        queue = args[0]
        if id(queue) in self.top_queues and len(queue) > self.len_max:
            self.len_max = len(queue)

    def _on_pop(self, args, op) -> None:
        if id(args[0]) in self.top_queues:
            self.waits.append(args[1] - op.enqueue_time)

    def setup_patches(self):
        t = self.setup
        return (_patches(t, [StorageEngine], "bulk_put", "setup.preload")
                + _patches(t, [ConsistentHashRing], "preference_list", "setup.ring"))

    def run_patches(self):
        t = self.spans
        queues = lambda name: subclasses_defining(ServerQueue, name)  # noqa: E731
        return (
            _patches(t, [RequestFactory], "make_request", "workload")
            + _patches(t, [RequestFactory], "next_interarrival", "workload")
            + _patches(t, subclasses_defining(ClientTagger, "tag_request"), "tag_request",
                       "tagger", _rid_arg(1))
            + _patches(t, queues("push"), "push", "queue", _rid_arg(1), self._on_push)
            + _patches(t, queues("pop"), "pop", "queue", None, self._on_pop)
            + _patches(t, queues("on_service_complete"), "on_service_complete", "queue",
                       _rid_arg(1))
            + _patches(t, [WindowedQuantileCutoff], "observe", "sharding")
            + _patches(t, [WindowedQuantileCutoff], "is_small", "sharding")
            + _patches(t, [ReplicaPlacement], "select_read_replica", "selection")
            + _patches(t, [ReplicaPlacement], "observe_feedback", "selection")
            + _patches(t, [NetworkModel], "send", "network", _rid_arg(3))
            + _patches(t, [ServerEstimates], "observe", "estimator")
            + _patches(t, [Server], "handle_operation", "server", _rid_arg(1))
            + _patches(t, [StorageEngine], "get", "server")
            + _patches(t, [Client], "handle_response", "client", _rid_arg(1))
            + _patches(t, [Client], "receive_feedback", "client")
            + _patches(t, [MetricsCollector], "record_request", "metrics", _rid_arg(1))
        )

    def metrics(self, cluster: Cluster, result: RunResult, run_s: float) -> Dict[str, float]:
        """Per-layer metrics; checks that self times add up to the root spans."""
        layers = self.spans.by_layer()
        roots = self.spans.root_time()
        covered = sum(self.spans.self_times())
        if abs(covered - roots) > 1e-6 * max(1.0, roots):
            raise AssertionError(f"self times {covered} do not add up to root spans {roots}")
        setup = self.setup.by_layer()
        requests = max(result.requests_completed, 1)
        servers = list(cluster.servers.values())
        served = sum(s.ops_served for s in servers)
        lanes = cluster.lane_stats()
        routed = {"small": 0, "large": 0}
        for stats in lanes.values():
            for lane, lane_stats in stats["lanes"].items():
                routed[lane] += lane_stats["routed"]
        selection = cluster.selection_stats()
        decisions = sum(s["decisions"] for s in selection.values())
        blind = sum(s.get("blind_decisions", 0) for s in selection.values())
        ctrl = sum(s["control_plane"]["messages_total"] for s in selection.values())
        pool = cluster.env.pool_stats()
        timeouts = pool["timeout_pool_hits"] + pool["timeout_pool_misses"]
        return {
            "workload.calls": layers["workload"]["calls"],
            "workload.self_s": layers["workload"]["self_s"],
            "tagger.calls": layers["tagger"]["calls"],
            "tagger.self_s": layers["tagger"]["self_s"],
            "queue.ops": layers["queue"]["calls"],
            "queue.self_s": layers["queue"]["self_s"],
            "queue.wait_ms_mean": 1e3 * float(np.mean(self.waits)) if self.waits else 0.0,
            "queue.len_max": self.len_max,
            "sharding.self_s": layers["sharding"]["self_s"],
            "sharding.large_frac": routed["large"] / max(sum(routed.values()), 1),
            "sharding.cutoff_updates": sum(s["cutoff_updates"] for s in lanes.values()),
            "selection.calls": layers["selection"]["calls"],
            "selection.self_s": layers["selection"]["self_s"],
            "selection.ctrl_msgs_per_req": ctrl / requests,
            "selection.blind_frac": blind / decisions if decisions else 0.0,
            "network.msgs_per_req": cluster.network.messages_sent / requests,
            "network.self_s": layers["network"]["self_s"],
            "estimator.calls": layers["estimator"]["calls"],
            "estimator.self_s": layers["estimator"]["self_s"],
            "server.ops": served,
            "server.self_s": layers["server"]["self_s"],
            "server.service_ms_mean": 1e3 * sum(s.busy_time for s in servers) / max(served, 1),
            "server.util": result.mean_utilization,
            "client.calls": layers["client"]["calls"],
            "client.self_s": layers["client"]["self_s"],
            "metrics.self_s": layers["metrics"]["self_s"],
            "sim.self_s": run_s - roots,
            "sim.timeouts_per_req": timeouts / requests,
            "sim.pool_hit_rate": pool["timeout_pool_hit_rate"],
            "setup.preload_s": setup["setup.preload"]["self_s"],
            "setup.ring_s": setup["setup.ring"]["self_s"],
            "trace.run_s": run_s,
            "trace.spans": len(self.spans),
        }


def run_cell(workload: SimWorkload, seed: int, trace: Optional[SimTrace] = None
             ) -> Tuple[CellRun, Cluster, RunResult]:
    """Build and run one cell; with a trace, every layer's calls are wrapped."""
    config, sim = cell_config(workload, seed)
    t0 = time.perf_counter()
    with patched(trace.setup_patches()) if trace else nullcontext():
        cluster = Cluster(config)
    t1 = time.perf_counter()
    if trace:
        trace.top_queues = {id(s.queue) for s in cluster.servers.values()}
    with patched(trace.run_patches()) if trace else nullcontext():
        t2 = time.perf_counter()
        result = cluster.run(sim)
        t3 = time.perf_counter()
    failed, problems = check_cell(config, sim, result, cluster)
    run = CellRun(seed, t1 - t0, t3 - t2, result.requests_completed, failed,
                  problems, fingerprint(result), result.rcts())
    return run, cluster, result


def run(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Run one simulator workload; returns metrics, counts and problems."""
    workload = WORKLOADS[name]
    seeds = cell_seeds(seed, workload.cells)
    deadline = time.perf_counter() + seconds
    runs: List[CellRun] = []
    first: Dict[int, CellRun] = {}
    problems: List[str] = []
    # Every cell once, then (untraced runs only) repeats until time is up,
    # at least one; a traced run repeats its first cell traced instead.
    for i in itertools.count():
        if i >= len(seeds) and (trace or (i > len(seeds) and time.perf_counter() >= deadline)):
            break
        cell_seed = seeds[i % len(seeds)]
        gc.collect()
        ref_s = reference.seconds()
        cell, _, _ = run_cell(workload, cell_seed)
        cell.ref_s = ref_s
        problems += [f"seed {cell_seed}: {p}" for p in cell.problems]
        if cell_seed in first:
            if cell.fingerprint != first[cell_seed].fingerprint:
                problems.append(f"seed {cell_seed}: re-run is not bit-identical")
        else:
            first[cell_seed] = cell
        runs.append(cell)
    pooled = np.concatenate([first[s].rcts for s in seeds])
    out: Dict[str, Any] = {
        "params": dict(workload.params(), seeds=seeds, cell_runs=len(runs)),
        "attempted": workload.requests * len(runs),
        "failed": sum(c.failed for c in runs),
        "end_to_end": {
            "nominal_req_per_s": median(c.nominal_rate for c in runs),
            "setup_s": median(c.nominal_setup_s for c in runs),
        },
        "detail": dict(
            rct_metrics(pooled),
            **{"host.req_per_s": median(c.rate for c in runs),
               "host.setup_s": median(c.setup_s for c in runs),
               "host.ref_per_s": 1.0 / median(c.ref_s for c in runs)},
        ),
    }
    if trace:
        gc.collect()
        sim_trace = SimTrace()
        traced, cluster, result = run_cell(workload, seeds[0], sim_trace)
        layer_values = sim_trace.metrics(cluster, result, traced.run_s)
        out["attempted"] += workload.requests
        out["failed"] += traced.failed
        problems += [f"traced seed {seeds[0]}: {p}" for p in traced.problems]
        if traced.fingerprint != first[seeds[0]].fingerprint:
            problems.append("tracing changed the simulated outcome")
        untraced = median(c.rate for c in runs if c.seed == seeds[0])
        layer_values["trace_overhead_frac"] = 1.0 - traced.rate / untraced
        out["layers"] = layer_values
        out["spans"] = sim_trace.spans
    out["problems"] = problems
    return out
