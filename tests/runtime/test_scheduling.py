"""Tests for the scheduled asyncio executor."""

import asyncio

import pytest

from repro.runtime.scheduling import (
    _BURST,
    ExecutorStoppedError,
    QueuedOp,
    ScheduledExecutor,
)


def run(coro):
    return asyncio.run(coro)


def make_queued_op(key="k", demand=0.0, tag=None, result="ok"):
    op = QueuedOp(key=key, demand=demand, tag=dict(tag or {}))
    op.work = lambda: result
    return op


class TestExecutor:
    def test_executes_submitted_op(self):
        async def scenario():
            executor = ScheduledExecutor(policy_name="fcfs", byte_rate=None)
            await executor.start()
            result = await executor.submit(make_queued_op(result=42))
            await executor.stop()
            assert result == 42
            assert executor.ops_executed == 1

        run(scenario())

    def test_fcfs_order(self):
        async def scenario():
            executor = ScheduledExecutor(policy_name="fcfs", byte_rate=None)
            order = []
            ops = []
            for i in range(5):
                op = QueuedOp(key=f"k{i}", demand=0.0)
                op.work = lambda i=i: order.append(i)
                ops.append(op)
            futures = [executor.submit(op) for op in ops]
            await executor.start()
            await asyncio.gather(*futures)
            await executor.stop()
            assert order == [0, 1, 2, 3, 4]

        run(scenario())

    def test_priority_order_with_sjf(self):
        async def scenario():
            # Submit before starting so the whole batch is queued, then the
            # scheduler picks smallest demand first.
            executor = ScheduledExecutor(policy_name="sjf-op", byte_rate=None)
            order = []
            futures = []
            for demand in (3.0, 1.0, 2.0):
                op = QueuedOp(key="k", demand=0.0, tag={})
                op.demand = 0.0  # no sleep
                op.tag["demand_label"] = demand
                op.work = lambda d=demand: order.append(d)
                # sjf-op keys on op.demand; emulate demand without sleeping
                # by setting demand then disabling the throttle.
                op.demand = demand
                futures.append(executor.submit(op))
            await executor.start()
            await asyncio.gather(*futures)
            await executor.stop()
            assert order == [1.0, 2.0, 3.0]

        run(scenario())

    def test_das_tags_respected(self):
        async def scenario():
            executor = ScheduledExecutor(
                policy_name="das", policy_params={"last_band": False},
                byte_rate=None,
            )
            order = []
            futures = []
            for rpt in (5.0, 1.0, 3.0):
                op = QueuedOp(key="k", demand=0.0, tag={"rpt": rpt})
                op.work = lambda r=rpt: order.append(r)
                futures.append(executor.submit(op))
            await executor.start()
            await asyncio.gather(*futures)
            await executor.stop()
            assert order == [1.0, 3.0, 5.0]

        run(scenario())

    def test_work_exception_propagates_to_future(self):
        async def scenario():
            executor = ScheduledExecutor(policy_name="fcfs", byte_rate=None)
            await executor.start()
            op = QueuedOp(key="k", demand=0.0)

            def boom():
                raise ValueError("work failed")

            op.work = boom
            with pytest.raises(ValueError, match="work failed"):
                await executor.submit(op)
            # The executor keeps serving after a failure.
            assert await executor.submit(make_queued_op(result="still alive")) == (
                "still alive"
            )
            await executor.stop()

        run(scenario())

    def test_throttle_sleeps_for_demand(self):
        async def scenario():
            executor = ScheduledExecutor(policy_name="fcfs", byte_rate=1.0)
            await executor.start()
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            await executor.submit(make_queued_op(demand=0.05))
            elapsed = loop.time() - t0
            await executor.stop()
            assert elapsed >= 0.04

        run(scenario())

    def test_feedback_shape(self):
        async def scenario():
            executor = ScheduledExecutor(policy_name="fcfs", byte_rate=None)
            feedback = executor.feedback()
            assert set(feedback) == {"queued_work", "queue_length", "rate_sample"}
            assert feedback["queue_length"] == 0

        run(scenario())

    def test_double_start_rejected(self):
        async def scenario():
            executor = ScheduledExecutor(policy_name="fcfs", byte_rate=None)
            await executor.start()
            with pytest.raises(RuntimeError):
                await executor.start()
            await executor.stop()

        run(scenario())

    def test_stop_drains_queue(self):
        async def scenario():
            executor = ScheduledExecutor(policy_name="fcfs", byte_rate=None)
            futures = [executor.submit(make_queued_op(result=i)) for i in range(5)]
            await executor.start()
            await executor.stop()
            results = [f.result() for f in futures]
            assert results == [0, 1, 2, 3, 4]

        run(scenario())


class TestLifecycleRejection:
    """submit() after stop/abort must fail fast, never hang the awaiter."""

    def test_submit_after_stop_raises(self):
        async def scenario():
            executor = ScheduledExecutor(policy_name="fcfs", byte_rate=None)
            await executor.start()
            await executor.stop()
            with pytest.raises(ExecutorStoppedError):
                executor.submit(make_queued_op())
            assert executor.registry.value(
                "executor_rejected_total", server="0"
            ) == 1.0

        run(scenario())

    def test_submit_after_abort_raises(self):
        async def scenario():
            executor = ScheduledExecutor(policy_name="fcfs", byte_rate=None)
            await executor.start()
            await executor.abort()
            with pytest.raises(ExecutorStoppedError):
                executor.submit(make_queued_op())

        run(scenario())

    def test_submit_before_start_still_allowed(self):
        async def scenario():
            executor = ScheduledExecutor(policy_name="fcfs", byte_rate=None)
            future = executor.submit(make_queued_op(result="queued early"))
            await executor.start()
            assert await future == "queued early"
            await executor.stop()

        run(scenario())


    def test_abort_cancels_the_op_in_service(self):
        async def scenario():
            executor = ScheduledExecutor(policy_name="fcfs", byte_rate=1.0)
            await executor.start()
            future = executor.submit(make_queued_op(demand=60.0))
            while len(executor.queue) > 0:
                await asyncio.sleep(0)
            assert executor.in_flight == 1
            await executor.abort()
            assert future.cancelled()
            assert executor.in_flight == 0

        run(scenario())


def service_log(n_ops, byte_rate, demand):
    """Interleaving of ``n_ops`` served ops ("op") and turns of a task
    that does nothing but yield ("tick")."""

    async def scenario():
        executor = ScheduledExecutor(policy_name="fcfs", byte_rate=byte_rate)
        log = []
        futures = []
        for _ in range(n_ops):
            op = QueuedOp(key="k", demand=demand)
            op.work = lambda: log.append("op")
            futures.append(executor.submit(op))
        done = False

        async def ticker():
            while not done:
                log.append("tick")
                await asyncio.sleep(0)

        tick_task = asyncio.create_task(ticker())
        await executor.start()
        await asyncio.gather(*futures)
        done = True
        await tick_task
        await executor.stop()
        return log

    return run(scenario())


def longest_op_run(log):
    longest = current = 0
    for entry in log:
        current = current + 1 if entry == "op" else 0
        longest = max(longest, current)
    return longest


class TestBackToBackService:
    def test_zero_cost_ops_run_without_yielding(self):
        log = service_log(10, byte_rate=None, demand=0.0)
        assert log.count("op") == 10
        assert longest_op_run(log) == 10

    def test_zero_cost_runs_yield_after_the_burst_bound(self):
        log = service_log(3 * _BURST + 5, byte_rate=None, demand=0.0)
        assert log.count("op") == 3 * _BURST + 5
        assert longest_op_run(log) == _BURST

    def test_throttled_ops_still_yield_each(self):
        log = service_log(5, byte_rate=1e6, demand=1e-4)
        assert log.count("op") == 5
        assert longest_op_run(log) == 1


class TestFailurePath:
    def test_failed_op_still_completes_queue_bookkeeping(self):
        async def scenario():
            executor = ScheduledExecutor(policy_name="fcfs", byte_rate=None)
            completed = []
            original = executor.queue.on_service_complete
            executor.queue.on_service_complete = (
                lambda op, now: (completed.append(op), original(op, now))
            )
            await executor.start()
            bad = QueuedOp(key="k", demand=0.0)

            def boom():
                raise ValueError("work failed")

            bad.work = boom
            with pytest.raises(ValueError):
                await executor.submit(bad)
            good = make_queued_op()
            await executor.submit(good)
            await executor.stop()
            # The completion hook ran for the failure too — adaptive
            # queue state must not drift when work raises.
            assert completed == [bad, good]
            assert bad.finish_time >= bad.start_time

        run(scenario())

    def test_failures_counted_separately_from_successes(self):
        async def scenario():
            executor = ScheduledExecutor(policy_name="fcfs", byte_rate=None)
            await executor.start()
            bad = QueuedOp(key="k", demand=0.0)
            bad.work = lambda: (_ for _ in ()).throw(RuntimeError("nope"))
            with pytest.raises(RuntimeError):
                await executor.submit(bad)
            await executor.submit(make_queued_op())
            await executor.stop()
            assert executor.ops_executed == 1
            assert executor.ops_failed == 1
            hist = executor.registry.get("executor_service_seconds", server="0")
            assert hist.count == 2  # failures are observed too

        run(scenario())
