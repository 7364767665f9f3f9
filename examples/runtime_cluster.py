#!/usr/bin/env python
"""The asyncio runtime: DAS scheduling real TCP multigets.

Starts an in-process cluster of real asyncio KV servers (throttled to an
emulated backend rate so scheduling matters), loads a small keyspace with
a few large "blob" values, then fires concurrent multigets: many small
2-key requests racing one 40-key giant.  Compare FCFS and DAS: under
FCFS the small requests queue behind the giant's operations; DAS serves
them first, so their mean latency drops to about a third, while the
giant, which now waits for them, finishes about half again later.

Run:  python examples/runtime_cluster.py
"""

import asyncio
import gc
import statistics
import time

from repro.runtime import LocalCluster

N_SERVERS = 4
SMALL_REQUESTS = 60
GIANT_KEYS = 40
VALUE = b"x" * 2048
BYTE_RATE = 2e6  # deliberately slow backend so queueing dominates


async def load_keys(cluster: LocalCluster) -> None:
    items = {f"small:{i:04d}": VALUE for i in range(200)}
    items.update({f"giant:{i:04d}": VALUE * 8 for i in range(GIANT_KEYS)})
    await cluster.preload(items)


async def run_mix(scheduler: str) -> dict:
    async with LocalCluster(
        n_servers=N_SERVERS, scheduler=scheduler, byte_rate=BYTE_RATE
    ) as cluster:
        await load_keys(cluster)
        client = cluster.client

        async def small(i: int) -> float:
            keys = [f"small:{(i * 2 + d) % 200:04d}" for d in range(2)]
            t0 = time.monotonic()
            await client.multiget(keys)
            return time.monotonic() - t0

        async def giant() -> float:
            keys = [f"giant:{i:04d}" for i in range(GIANT_KEYS)]
            t0 = time.monotonic()
            await client.multiget(keys)
            return time.monotonic() - t0

        giant_task = asyncio.create_task(giant())
        await asyncio.sleep(0)  # let the giant enqueue first
        small_latencies = await asyncio.gather(
            *(small(i) for i in range(SMALL_REQUESTS))
        )
        giant_latency = await giant_task
        return {
            "small_mean": statistics.mean(small_latencies),
            "small_p95": sorted(small_latencies)[int(0.95 * len(small_latencies))],
            "giant": giant_latency,
        }


async def main() -> None:
    print(
        f"{N_SERVERS} real asyncio servers, {SMALL_REQUESTS} small multigets "
        f"racing one {GIANT_KEYS}-key giant\n"
    )
    for scheduler in ("fcfs", "das"):
        # Measure each scheduler from a clean GC state: otherwise the first
        # run's surviving allocations can push a full collection into the
        # second run's window and skew the comparison by tens of ms.
        gc.collect()
        stats = await run_mix(scheduler)
        print(
            f"  {scheduler:>5}: small mean {stats['small_mean'] * 1e3:7.1f}ms  "
            f"small p95 {stats['small_p95'] * 1e3:7.1f}ms  "
            f"giant {stats['giant'] * 1e3:7.1f}ms"
        )
    print("\nDAS cuts the small requests' latency; the giant, served after")
    print("them, pays for it with a later finish.")


if __name__ == "__main__":
    asyncio.run(main())
