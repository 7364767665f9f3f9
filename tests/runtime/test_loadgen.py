"""Tests for the runtime load generator."""

import asyncio
import time

import pytest

from repro.errors import ConfigError
from repro.runtime import LocalCluster
from repro.runtime.loadgen import LoadGenerator
from repro.workload.arrivals import DeterministicArrivals, PoissonArrivals
from repro.workload.fanout import FixedFanout
from repro.workload.popularity import UniformPopularity


def run(coro):
    return asyncio.run(coro)


async def make_cluster_and_keys(n_servers=2, n_keys=50):
    cluster = LocalCluster(n_servers=n_servers, scheduler="das", byte_rate=None)
    await cluster.start()
    items = {f"key:{i:04d}": b"v" * 64 for i in range(n_keys)}
    await cluster.preload(items)
    return cluster, list(items)


class TestLoadGenerator:
    def test_fires_requested_count(self):
        async def scenario():
            cluster, keys = await make_cluster_and_keys()
            try:
                gen = LoadGenerator(
                    cluster.client, keys,
                    arrivals=DeterministicArrivals(rate=500.0),
                    fanout=FixedFanout(k=3),
                    popularity=UniformPopularity(),
                )
                result = await gen.run(n_requests=40)
                assert result.launched == 40
                assert len(result.latencies) == 40
                assert result.errors == 0
                assert result.summary().mean > 0
                assert result.throughput > 0
            finally:
                await cluster.stop()

        run(scenario())

    def test_duration_bound(self):
        async def scenario():
            cluster, keys = await make_cluster_and_keys()
            try:
                gen = LoadGenerator(
                    cluster.client, keys,
                    arrivals=DeterministicArrivals(rate=200.0),
                    fanout=FixedFanout(k=2),
                    popularity=UniformPopularity(),
                )
                result = await gen.run(duration=0.1)
                # ~200/s for 0.1s: about 20 launches, bounded either side.
                assert 10 <= result.launched <= 25
            finally:
                await cluster.stop()

        run(scenario())

    def test_exactly_one_stopping_rule(self):
        async def scenario():
            cluster, keys = await make_cluster_and_keys()
            try:
                gen = LoadGenerator(
                    cluster.client, keys,
                    arrivals=PoissonArrivals(rate=100.0),
                    fanout=FixedFanout(k=1),
                    popularity=UniformPopularity(),
                )
                with pytest.raises(ConfigError):
                    await gen.run()
                with pytest.raises(ConfigError):
                    await gen.run(n_requests=5, duration=1.0)
            finally:
                await cluster.stop()

        run(scenario())

    def test_validation(self):
        async def scenario():
            cluster, keys = await make_cluster_and_keys(n_keys=2)
            try:
                with pytest.raises(ConfigError, match="fanout"):
                    LoadGenerator(
                        cluster.client, keys,
                        arrivals=PoissonArrivals(rate=10.0),
                        fanout=FixedFanout(k=5),
                        popularity=UniformPopularity(),
                    )
                with pytest.raises(ConfigError, match="empty"):
                    LoadGenerator(
                        cluster.client, [],
                        arrivals=PoissonArrivals(rate=10.0),
                        fanout=FixedFanout(k=1),
                        popularity=UniformPopularity(),
                    )
            finally:
                await cluster.stop()

        run(scenario())

    def test_closed_loop_fires_requested_count(self):
        async def scenario():
            cluster, keys = await make_cluster_and_keys()
            try:
                gen = LoadGenerator(
                    cluster.client, keys,
                    arrivals=PoissonArrivals(rate=1.0),  # ignored in closed mode
                    fanout=FixedFanout(k=2),
                    popularity=UniformPopularity(),
                    mode="closed",
                    closed_concurrency=3,
                )
                result = await gen.run(n_requests=30)
                assert result.launched == 30
                assert len(result.latencies) == 30
                assert result.errors == 0
            finally:
                await cluster.stop()

        run(scenario())

    def test_mode_validation(self):
        async def scenario():
            cluster, keys = await make_cluster_and_keys()
            try:
                with pytest.raises(ConfigError, match="mode"):
                    LoadGenerator(
                        cluster.client, keys,
                        arrivals=PoissonArrivals(rate=10.0),
                        fanout=FixedFanout(k=1),
                        popularity=UniformPopularity(),
                        mode="half-open",
                    )
                with pytest.raises(ConfigError, match="closed_concurrency"):
                    LoadGenerator(
                        cluster.client, keys,
                        arrivals=PoissonArrivals(rate=10.0),
                        fanout=FixedFanout(k=1),
                        popularity=UniformPopularity(),
                        mode="closed",
                        closed_concurrency=0,
                    )
            finally:
                await cluster.stop()

        run(scenario())


    def test_deterministic_given_seed(self):
        async def scenario():
            cluster, keys = await make_cluster_and_keys()
            try:
                def build():
                    return LoadGenerator(
                        cluster.client, keys,
                        arrivals=PoissonArrivals(rate=1000.0),
                        fanout=FixedFanout(k=2),
                        popularity=UniformPopularity(),
                        seed=9,
                    )

                a = build()
                b = build()
                # The samplers replay identically: same fan-outs and keys.
                draws_a = [a._popularity.sample_distinct(2).tolist() for _ in range(5)]
                draws_b = [b._popularity.sample_distinct(2).tolist() for _ in range(5)]
                assert draws_a == draws_b
            finally:
                await cluster.stop()

        run(scenario())


class TestFromSpec:
    def test_builds_from_registry_spec(self):
        async def scenario():
            from repro.workload.registry import workload

            cluster, keys = await make_cluster_and_keys(n_keys=100)
            try:
                spec = workload("closed-loop")
                gen = LoadGenerator.from_spec(cluster.client, keys, spec)
                assert gen.mode == "closed"
                assert gen.closed_concurrency == spec.closed_concurrency
                result = await gen.run(n_requests=16)
                assert len(result.latencies) == 16
            finally:
                await cluster.stop()

        run(scenario())

    def test_trace_spec_rejected(self):
        async def scenario():
            from repro.errors import WorkloadError
            from repro.workload.registry import workload

            cluster, keys = await make_cluster_and_keys()
            try:
                with pytest.raises(WorkloadError, match="simulator only"):
                    LoadGenerator.from_spec(
                        cluster.client, keys, workload("trace-sample")
                    )
            finally:
                await cluster.stop()

        run(scenario())


class StallingClient:
    """Answers instantly, except one call that blocks the event loop."""

    def __init__(self, stall_on: int, stall_s: float):
        self.stall_on = stall_on
        self.stall_s = stall_s
        self.calls = 0

    async def multiget(self, keys):
        self.calls += 1
        if self.calls == self.stall_on:
            time.sleep(self.stall_s)  # a synchronous stall: nothing else runs
        return {key: b"" for key in keys}


class TestCoordinatedOmission:
    def test_requests_due_during_a_stall_show_the_wait(self):
        stall_s = 0.2
        gen = LoadGenerator(
            StallingClient(stall_on=5, stall_s=stall_s),
            [f"k{i}" for i in range(10)],
            arrivals=DeterministicArrivals(rate=100.0),
            fanout=FixedFanout(k=1),
            popularity=UniformPopularity(),
        )
        result = run(gen.run(n_requests=40))
        assert result.launched == 40 and result.errors == 0
        # The stalled request plus the ~10 due in the stall's first half
        # (every 10 ms) waited at least 0.1 s past their due instants.
        # Timed from launch instead, only the stalled one would.
        assert sum(lat >= 0.1 for lat in result.latencies) >= 10
        assert max(result.latencies) >= stall_s
        # The request due 10 ms into the stall launched ~190 ms late.
        assert len(result.lateness) == 40
        assert result.max_lateness >= stall_s - 0.02
        assert min(result.lateness) >= 0.0

    def test_closed_mode_records_no_lateness(self):
        gen = LoadGenerator(
            StallingClient(stall_on=0, stall_s=0.0),
            [f"k{i}" for i in range(10)],
            arrivals=DeterministicArrivals(rate=100.0),
            fanout=FixedFanout(k=1),
            popularity=UniformPopularity(),
            mode="closed",
        )
        result = run(gen.run(n_requests=8))
        assert len(result.latencies) == 8
        assert result.lateness == [] and result.max_lateness == 0.0
