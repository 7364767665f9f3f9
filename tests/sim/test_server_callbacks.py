"""The server's service loop on the kernel's direct-call lane.

``Server`` steps its loop with ``call_soon``/``call_later`` instead of a
generator process.  These scripted crash/outage/recover timelines pin
the exact counters, service windows and RCTs the process-based loop
produced, so the callback loop is held to the same behaviour to the bit.
"""

import numpy as np
import pytest

from repro.kvstore.items import OpKind, Operation, Request
from repro.kvstore.network import UniformLatencyNetwork
from repro.kvstore.server import Server
from repro.kvstore.service import ServiceModel
from repro.kvstore.storage import StorageEngine
from repro.schedulers.base import QueueContext
from repro.schedulers.registry import create_policy
from repro.sim import Environment


class RecordingClient:
    """Logs (key, ok, start, finish, rct) for every response received."""

    client_id = 0

    def __init__(self, env):
        self.env = env
        self.received = []

    def handle_response(self, response):
        op = response.operation
        self.received.append(
            (op.key, response.ok, op.start_time, op.finish_time,
             self.env.now - op.request.arrival_time)
        )


def play(outages, script):
    """Run ``script`` — ``(time, action)`` with action a key, "crash" or
    "recover" — against one FCFS server (2 ms per stored 1000-byte GET,
    50 us network) and return its counters and the client's log."""
    env = Environment()
    queue = create_policy("fcfs").make_queue(
        QueueContext(server_id=0, rng=np.random.default_rng(0))
    )
    service = ServiceModel(per_op_overhead=1e-3, byte_rate=1e6)
    network = UniformLatencyNetwork(env, base_delay=50e-6)
    server = Server(env, 0, queue, service, StorageEngine(server_id=0), network,
                    outages=outages)
    client = RecordingClient(env)
    server.clients[0] = client
    for i in range(10):
        server.storage.put(f"k{i}", 1000)

    def driver():
        for rid, (at, action) in enumerate(script):
            if at > env.now:
                yield env.timeout(at - env.now)
            if action == "crash":
                server.crash()
            elif action == "recover":
                server.recover()
            else:
                request = Request(request_id=rid, client_id=0, arrival_time=env.now)
                op = Operation(request=request, key=action, kind=OpKind.GET,
                               value_size=1000, server_id=0, demand=2e-3)
                request.operations.append(op)
                server.handle_operation(op)

    env.process(driver())
    env.run()
    return {
        "ops_served": server.ops_served,
        "ops_failed": server.ops_failed,
        "ops_dropped": server.ops_dropped,
        "crashes": server.crashes,
        "busy_time": server.busy_time,
        "received": client.received,
        "end": env.now,
    }


# Expected values were computed with the generator-process service loop.
CASES = {
    "crash_mid_service": (
        (),
        [(0.0, "k0"), (0.0, "k1"), (0.0, "k2"), (0.0, "k3"), (0.003, "crash"),
         (0.010, "recover"), (0.010, "k4"), (0.010, "k5"), (0.020, "k6")],
        {"ops_served": 4, "ops_failed": 0, "ops_dropped": 3, "crashes": 1,
         "busy_time": 0.008,
         "received": [("k0", True, 0.0, 0.002, 0.00205),
                      ("k4", True, 0.01, 0.012, 0.0020499999999999997),
                      ("k5", True, 0.012, 0.014, 0.00405),
                      ("k6", True, 0.02, 0.022, 0.0020499999999999997)],
         "end": 0.02205},
    ),
    "crash_while_idle": (
        (),
        [(0.0, "k0"), (0.005, "crash"), (0.006, "k1"), (0.008, "recover"),
         (0.009, "k2"), (0.012, "crash"), (0.012, "recover"), (0.012, "k3")],
        {"ops_served": 3, "ops_failed": 0, "ops_dropped": 1, "crashes": 2,
         "busy_time": 0.006,
         "received": [("k0", True, 0.0, 0.002, 0.00205),
                      ("k2", True, 0.009, 0.011, 0.0020499999999999997),
                      ("k3", True, 0.012, 0.014, 0.0020499999999999997)],
         "end": 0.01405},
    ),
    "crash_during_outage": (
        ((0.001, 0.010),),
        [(0.0, "k0"), (0.0005, "k1"), (0.004, "crash"), (0.006, "recover"),
         (0.007, "k2"), (0.007, "k3")],
        {"ops_served": 3, "ops_failed": 0, "ops_dropped": 1, "crashes": 1,
         "busy_time": 0.006,
         "received": [("k0", True, 0.0, 0.002, 0.00205),
                      ("k2", True, 0.01, 0.012, 0.00505),
                      ("k3", True, 0.012, 0.014, 0.00705)],
         "end": 0.01405},
    ),
    "recover_after_outage": (
        ((0.001, 0.005),),
        [(0.0, "k0"), (0.0005, "k1"), (0.003, "crash"), (0.008, "recover"),
         (0.009, "k2"), (0.0095, "missing")],
        {"ops_served": 2, "ops_failed": 1, "ops_dropped": 1, "crashes": 1,
         "busy_time": 0.005,
         "received": [("k0", True, 0.0, 0.002, 0.00205),
                      ("k2", True, 0.009, 0.011, 0.0020499999999999997),
                      ("missing", False, 0.011, 0.012, 0.00255)],
         "end": 0.01205},
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_lifecycle_matches_process_loop(case):
    outages, script, expected = CASES[case]
    assert play(outages, script) == expected


def test_idle_server_schedules_nothing():
    env = Environment()
    queue = create_policy("fcfs").make_queue(
        QueueContext(server_id=0, rng=np.random.default_rng(0))
    )
    Server(env, 0, queue, ServiceModel(), StorageEngine(server_id=0),
           UniformLatencyNetwork(env))
    assert env.pending == 1  # the start-up step
    env.run()
    assert env.pending == 0
