"""Network latency model for client <-> server messages.

Messages are delivered after a sampled one-way delay; delivery order
between a fixed (src, dst) pair is preserved by construction when delays
are constant and may reorder when jitter is enabled — as in a real
datacenter network.

Two implementations:

* :class:`UniformLatencyNetwork` — every pair has the same base delay plus
  optional exponential jitter.  This matches the paper's single-datacenter
  simulation setting.
* :class:`TopologyNetwork` — delays from shortest-path distances on a
  weighted ``networkx`` graph, for multi-rack/multi-zone extensions.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Optional

import networkx as nx
import numpy as np

from repro.errors import ConfigError
from repro.sim.core import Environment
from repro.sim.rand import as_batched

Handler = Callable[[Any], None]


class NetworkModel:
    """Base class: computes delays and delivers messages after them."""

    def __init__(self, env: Environment):
        self.env = env
        self.messages_sent = 0
        self.bytes_sent = 0
        #: Optional :class:`~repro.faults.sim.LinkFaults` installed by a
        #: fault driver; consulted per message when present.
        self.faults = None
        self.messages_dropped = 0

    def delay(self, src: Hashable, dst: Hashable) -> float:
        """One-way delay for a message from ``src`` to ``dst``."""
        raise NotImplementedError

    def send(
        self,
        src: Hashable,
        dst: Hashable,
        payload: Any,
        handler: Handler,
        size_bytes: int = 0,
    ) -> float:
        """Deliver ``payload`` to ``handler`` after the sampled delay.

        Returns the sampled delay (useful for tests and tracing);
        ``inf`` means the message was dropped by an active link fault.
        """
        self.messages_sent += 1
        self.bytes_sent += size_bytes
        d = self.delay(src, dst)
        if d < 0:
            raise ConfigError(f"sampled negative delay {d}")
        if self.faults is not None and self.faults.active:
            extra = self.faults.verdict(src, dst)
            if extra == float("inf"):
                self.messages_dropped += 1
                return extra
            d += extra
        # Deliveries are the hottest entry kind and nothing waits on them,
        # so they ride the kernel's direct-call lane (no Event objects).
        # A zero delay still goes through the heap for deterministic order.
        if d == 0:
            self.env.call_soon(handler, payload)
        else:
            self.env.call_later(d, handler, payload)
        return d


class UniformLatencyNetwork(NetworkModel):
    """Identical base delay between all pairs, optional exponential jitter.

    Parameters
    ----------
    base_delay:
        Deterministic one-way delay component in seconds.
    jitter_mean:
        Mean of an additive exponential jitter term; 0 disables jitter.
    rng:
        Generator for jitter; required when ``jitter_mean > 0``.
    """

    def __init__(
        self,
        env: Environment,
        base_delay: float = 50e-6,
        jitter_mean: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__(env)
        if base_delay < 0:
            raise ConfigError("base_delay must be >= 0")
        if jitter_mean < 0:
            raise ConfigError("jitter_mean must be >= 0")
        if jitter_mean > 0 and rng is None:
            raise ConfigError("jitter requires an rng")
        self.base_delay = base_delay
        self.jitter_mean = jitter_mean
        self._rng = as_batched(rng) if rng is not None else None

    def delay(self, src: Hashable, dst: Hashable) -> float:
        d = self.base_delay
        if self.jitter_mean > 0:
            d += self._rng.exponential(self.jitter_mean)
        return d


class TopologyNetwork(NetworkModel):
    """Delays derived from shortest paths on a weighted graph.

    Nodes are endpoint ids (client ids and server ids must be distinct
    hashables, e.g. ``("client", 0)`` and ``("server", 3)``); edge weights
    are one-way delays in seconds.
    """

    def __init__(
        self,
        env: Environment,
        graph: nx.Graph,
        jitter_mean: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__(env)
        if jitter_mean < 0:
            raise ConfigError("jitter_mean must be >= 0")
        if jitter_mean > 0 and rng is None:
            raise ConfigError("jitter requires an rng")
        self.graph = graph
        self.jitter_mean = jitter_mean
        self._rng = as_batched(rng) if rng is not None else None
        self._dists: Dict[Hashable, Dict[Hashable, float]] = {}

    def _distances_from(self, src: Hashable) -> Dict[Hashable, float]:
        cached = self._dists.get(src)
        if cached is None:
            if src not in self.graph:
                raise ConfigError(f"endpoint {src!r} not in topology")
            cached = nx.single_source_dijkstra_path_length(
                self.graph, src, weight="weight"
            )
            self._dists[src] = cached
        return cached

    def delay(self, src: Hashable, dst: Hashable) -> float:
        if src == dst:
            return 0.0
        dists = self._distances_from(src)
        try:
            d = dists[dst]
        except KeyError:
            raise ConfigError(f"no path from {src!r} to {dst!r}") from None
        if self.jitter_mean > 0:
            d += self._rng.exponential(self.jitter_mean)
        return d


def fat_tree_like_topology(
    n_servers: int,
    n_clients: int,
    intra_rack_delay: float = 20e-6,
    inter_rack_delay: float = 80e-6,
    rack_size: int = 8,
) -> nx.Graph:
    """Build a simple two-tier (rack/spine) topology graph.

    Servers fill racks of ``rack_size``; clients attach to the spine.  Edge
    weights are one-way delays so shortest-path distance is end-to-end
    delay.
    """
    if n_servers < 1 or n_clients < 1:
        raise ConfigError("need at least one server and one client")
    g = nx.Graph()
    g.add_node("spine")
    n_racks = (n_servers + rack_size - 1) // rack_size
    for r in range(n_racks):
        tor = ("tor", r)
        g.add_edge("spine", tor, weight=inter_rack_delay / 2)
        for s in range(r * rack_size, min((r + 1) * rack_size, n_servers)):
            g.add_edge(tor, ("server", s), weight=intra_rack_delay / 2)
    for c in range(n_clients):
        g.add_edge("spine", ("client", c), weight=inter_rack_delay / 2)
    return g
