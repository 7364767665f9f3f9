"""Open- and closed-loop bookkeeping: lateness, backlog and capacity."""

import asyncio

import pytest

from perfbench.loadgen import ClosedLoopResult, OpenLoopResult, run_open_loop


def test_backlog_counts_due_but_unsent_requests():
    # Three requests due at 0, 1, 2; the generator stalls and sends the
    # first at 2.5, so all three are overdue at that moment.
    result = OpenLoopResult(due=[0.0, 1.0, 2.0], sent=[2.5, 2.6, 2.7],
                            finish=[3.0, 3.0, float("inf")])
    assert result.backlog_max() == 3
    assert result.lags() == pytest.approx([2.5, 1.6, 0.7])
    # Latency is timed from the due instant; a failure never finishes.
    assert result.latencies_with_failures() == [3.0, 2.0, float("inf")]
    assert result.completed == 2


def test_capacity_is_the_median_window_rate():
    result = ClosedLoopResult(seconds=2.0, window_s=0.5,
                              finished=[0.1, 0.2, 0.6, 0.7, 0.8, 1.2, 1.6, 1.7, 2.1])
    # Windows hold 2, 3, 1, 2 completions; the one past the phase is ignored.
    assert result.capacity() == pytest.approx(2 / 0.5)


def test_open_loop_times_from_due_instants_and_counts_failures():
    calls = []

    async def call(request):
        calls.append(request)
        if request == 1:
            raise ConnectionError("refused")
        await asyncio.sleep(0.002)
        return True

    plan = iter(range(10_000))
    result = asyncio.run(run_open_loop(call, plan, rate=200.0, seconds=0.2, seed=3))
    assert result.attempted == len(result.due) == len(calls) > 10
    assert result.failed == 1
    latencies = result.latencies_with_failures()
    assert latencies[1] == float("inf")
    assert all(lat >= lag for lat, lag in zip(latencies, result.lags()))
