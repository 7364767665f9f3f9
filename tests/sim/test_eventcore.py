"""The event core: one heap of event entries and direct-call entries.

The environment keeps a single binary heap ordered by
``(time, priority, seq)``.  Event entries run an :class:`Event`'s
callbacks; call entries (:meth:`Environment.call_soon` /
:meth:`Environment.call_later`) invoke ``fn(arg)`` directly.  Both kinds
take their ``seq`` from the same counter, so the firing order is one
total order whatever mix of entries a simulation schedules.  The
properties below check that order against a reference ``heapq`` model,
and check that a plan driven by call entries fires exactly like the same
plan driven by processes, timeouts and interrupts.
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Interrupt
from repro.sim.core import EmptySchedule
from repro.sim.events import NORMAL, URGENT


class TestCallLane:
    def test_same_instant_fifo_by_seq_across_events_and_calls(self):
        env = Environment()
        log = []
        env.call_later(1.0, log.append, "call-a")
        env.timeout(1.0).callbacks.append(lambda _e: log.append("event-b"))
        env.call_later(1.0, log.append, "call-c")
        env.pooled_timeout(1.0).callbacks.append(lambda _e: log.append("event-d"))
        env.run()
        assert log == ["call-a", "event-b", "call-c", "event-d"]

    def test_call_soon_fifo_with_succeeded_events(self):
        env = Environment()
        log = []
        env.call_soon(log.append, 1)
        env.event().succeed().callbacks.append(lambda _e: log.append(2))
        env.call_soon(log.append, 3)
        env.run()
        assert log == [1, 2, 3]

    def test_urgent_calls_before_normal_at_same_instant(self):
        env = Environment()
        log = []

        def at_one(_):
            # Scheduled while t=1 is being processed: the URGENT call
            # overtakes the NORMAL entries already due at t=1.
            env.call_later(0.0, log.append, "normal-late")
            env.call_soon(log.append, "urgent")

        env.call_later(1.0, at_one)
        env.call_later(1.0, log.append, "normal-early")
        env.run()
        assert log == ["urgent", "normal-early", "normal-late"]

    def test_call_soon_runs_before_timeout_due_now(self):
        env = Environment()
        log = []
        env.timeout(0.0).callbacks.append(lambda _e: log.append("timeout"))
        env.call_soon(log.append, "call")
        env.run()
        assert log == ["call", "timeout"]

    def test_call_gets_its_argument_and_clock(self):
        env = Environment()
        seen = []
        env.call_later(2.5, lambda arg: seen.append((env.now, arg)), {"k": 1})
        env.call_later(1.0, lambda arg: seen.append((env.now, arg)))
        env.run()
        assert seen == [(1.0, None), (2.5, {"k": 1})]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="negative delay"):
            Environment().call_later(-1e-9, print)

    def test_step_and_peek_with_call_entries(self):
        env = Environment()
        log = []
        env.call_later(2.0, log.append, "b")
        env.call_later(1.0, log.append, "a")
        env.timeout(3.0).callbacks.append(lambda _e: log.append("c"))
        assert env.peek() == 1.0
        env.step()
        assert (env.now, log) == (1.0, ["a"])
        assert env.peek() == 2.0
        env.step()
        assert (env.now, log) == (2.0, ["a", "b"])
        assert env.peek() == 3.0
        env.step()
        assert log == ["a", "b", "c"]
        assert env.peek() == float("inf")
        with pytest.raises(EmptySchedule):
            env.step()

    def test_run_until_time_leaves_later_calls_pending(self):
        env = Environment()
        log = []
        for t in (1.0, 2.0, 3.0, 4.0):
            env.call_later(t, log.append, t)
        env.run(until=2.5)
        assert env.now == 2.5
        assert log == [1.0, 2.0]
        assert env.pending == 2
        env.run()
        assert log == [1.0, 2.0, 3.0, 4.0]

    def test_run_until_time_stops_before_calls_due_then(self):
        env = Environment()
        log = []
        env.call_later(2.0, log.append, "at-2")
        env.run(until=2.0)
        assert log == []
        env.run()
        assert log == ["at-2"]

    def test_exception_in_call_propagates_out_of_run(self):
        env = Environment()

        def boom(arg):
            raise KeyError(arg)

        env.call_later(1.0, boom, "lost")
        with pytest.raises(KeyError, match="lost"):
            env.run()
        assert env.now == 1.0

    def test_exception_in_call_propagates_out_of_step(self):
        env = Environment()
        env.call_soon(lambda _: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            env.step()

    def test_calls_drive_a_process_waiting_on_an_event(self):
        env = Environment()
        gate = env.event()
        got = []

        def waiter():
            got.append((yield gate))

        env.process(waiter())
        env.call_later(4.0, gate.succeed, "open")
        env.run()
        assert got == ["open"]
        assert env.now == 4.0


def _fire_plan(plan):
    """Schedule a random mix of entries; return their firing order."""
    env = Environment()
    log = []
    for i, (delay, kind) in enumerate(plan):
        if kind == "call_later":
            env.call_later(delay, log.append, i)
        elif kind == "timeout":
            env.timeout(delay).callbacks.append(lambda _e, i=i: log.append(i))
        elif kind == "call_soon":
            env.call_soon(log.append, i)
        else:
            env.event().succeed().callbacks.append(lambda _e, i=i: log.append(i))
    env.run()
    return log


# Random (delay, priority, as_call) plans for the reference-model properties.
schedule_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        st.sampled_from([URGENT, NORMAL]),
        st.booleans(),
    ),
    min_size=1,
    max_size=200,
)


def _schedule_entry(env, log, seq, delay, prio, as_call):
    """Schedule one entry that logs ``seq``; return its (time, priority).

    A NORMAL call is a ``call_later``; an URGENT call is a ``call_soon``
    (which ignores ``delay``); every other entry is a bare event put on
    the heap at ``(now + delay, prio)``.
    """
    if as_call and prio == NORMAL:
        env.call_later(delay, log.append, seq)
        return env.now + delay, prio
    if as_call:
        env.call_soon(log.append, seq)
        return env.now, prio
    event = env.event()
    event.callbacks.append(lambda _e: log.append(seq))
    env._schedule(event, delay=delay, priority=prio)
    return env.now + delay, prio


class TestCoreOrderProperty:
    @given(plan=schedule_strategy)
    @settings(max_examples=60, deadline=None)
    def test_random_schedules_fire_identically(self, plan):
        env = Environment()
        log, keys = [], []
        for seq, (delay, prio, as_call) in enumerate(plan):
            keys.append((*_schedule_entry(env, log, seq, delay, prio, as_call), seq))
        env.run()
        assert log == [seq for _t, _p, seq in sorted(keys)]

    @given(plan=schedule_strategy, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_interleaved_pops_fire_identically(self, plan, data):
        env = Environment()
        reference = []
        log, expected = [], []
        for seq, (delay, prio, as_call) in enumerate(plan):
            t, p = _schedule_entry(env, log, seq, delay, prio, as_call)
            heapq.heappush(reference, (t, p, seq))
            if data.draw(st.booleans()):
                t, _p, seq_ref = heapq.heappop(reference)
                env.step()
                expected.append(seq_ref)
                assert (env.now, log) == (t, expected)
        env.run()
        expected.extend(seq for _t, _p, seq in sorted(reference))
        assert log == expected


def _run_cancellation_plan(worker_delays, cancellations):
    """Workers sleeping on timeouts while cancellers interrupt them."""
    env = Environment()
    log = []
    procs = []

    def worker(i, delays):
        try:
            for d in delays:
                yield env.timeout(d)
                log.append(("fired", round(env.now, 9), i))
        except Interrupt as interrupt:
            log.append(("interrupted", round(env.now, 9), i, interrupt.cause))

    def canceller(delay, victim):
        yield env.timeout(delay)
        if procs[victim].is_alive:
            procs[victim].interrupt(f"cancel-{victim}")
            log.append(("cancelled", round(env.now, 9), victim))

    for i, delays in enumerate(worker_delays):
        procs.append(env.process(worker(i, delays)))
    for delay, victim in cancellations:
        env.process(canceller(delay, victim))
    env.run()
    return log


def _run_cancellation_calls(worker_delays, cancellations):
    """The same plan as call entries only: no process, timeout or interrupt.

    A process start and an interrupt delivery are URGENT at the current
    instant (``call_soon``); a timeout is NORMAL after its delay
    (``call_later``).  An interrupted worker's pending wake-up stays on
    the heap and is ignored when it fires.
    """
    env = Environment()
    log = []
    step = [0] * len(worker_delays)
    alive = [True] * len(worker_delays)

    def wait(i):
        env.call_later(worker_delays[i][step[i]], fire, i)

    def fire(i):
        if not alive[i]:
            return
        log.append(("fired", round(env.now, 9), i))
        step[i] += 1
        if step[i] < len(worker_delays[i]):
            wait(i)
        else:
            alive[i] = False

    def deliver(victim):
        log.append(("interrupted", round(env.now, 9), victim, f"cancel-{victim}"))
        alive[victim] = False

    def cancel(victim):
        if alive[victim]:
            env.call_soon(deliver, victim)
            log.append(("cancelled", round(env.now, 9), victim))

    for i in range(len(worker_delays)):
        env.call_soon(wait, i)
    for delay, victim in cancellations:
        env.call_soon(lambda arg: env.call_later(arg[0], cancel, arg[1]), (delay, victim))
    env.run()
    return log


class TestEnvironmentOrderProperty:
    @given(
        worker_delays=st.lists(
            st.lists(
                st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
                min_size=1,
                max_size=5,
            ),
            min_size=1,
            max_size=6,
        ),
        cancellations=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
                st.integers(min_value=0, max_value=5),
            ),
            max_size=4,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_schedules_with_cancellations_identical(
        self, worker_delays, cancellations
    ):
        cancellations = [
            (d, v % len(worker_delays)) for d, v in cancellations
        ]
        log_events = _run_cancellation_plan(worker_delays, cancellations)
        log_calls = _run_cancellation_calls(worker_delays, cancellations)
        assert log_calls == log_events

    @given(
        plan=st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]),
                st.sampled_from(["call_later", "timeout", "call_soon", "succeed"]),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_mixed_entries_fire_in_total_order(self, plan):
        # call_soon/succeed are URGENT at now=0; the others NORMAL at delay.
        def key(i):
            delay, kind = plan[i]
            if kind in ("call_soon", "succeed"):
                return (0.0, 0, i)
            return (delay, 1, i)

        assert _fire_plan(plan) == sorted(range(len(plan)), key=key)


class TestEnvironmentFacade:
    def test_step_on_empty_names_pending_state(self):
        env = Environment(initial_time=2.0)
        with pytest.raises(EmptySchedule, match="no scheduled events at now=2.0"):
            env.step()

    def test_run_until_negative_raises(self):
        with pytest.raises(ValueError, match="negative"):
            Environment().run(until=-1.0)

    def test_run_until_nan_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            Environment().run(until=float("nan"))

    def test_core_stats_exposed(self):
        env = Environment()
        env.pooled_timeout(1.0)
        env.run()
        env.pooled_timeout(1.0)
        assert env.engine == "heap" and env.pending == 1
        assert env.pool_stats() == {
            "timeout_pool_hits": 1,
            "timeout_pool_misses": 1,
            "timeout_pool_hit_rate": 0.5,
        }

    def test_repr_names_engine(self):
        assert "engine=heap" in repr(Environment())

    def test_pending_counts_events_and_calls(self):
        env = Environment()
        env.timeout(1.0)
        env.call_later(1.0, print)
        env.call_soon(print)
        assert env.pending == 3
        assert env.engine == "heap"

    def test_run_until_time_semantics(self):
        env = Environment()
        log = []

        def proc():
            while True:
                yield env.timeout(1.0)
                log.append(env.now)

        env.process(proc())
        env.run(until=5.0)
        assert env.now == 5.0
        assert log == [1.0, 2.0, 3.0, 4.0]
