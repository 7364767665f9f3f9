"""The simulation environment: virtual clock plus event loop.

The pending set is one binary heap of ``(time, priority, seq, fn, obj)``
entries, ordered by ``(time, priority, seq)`` with ``seq`` breaking ties
in insertion order.  Two kinds of entry share it:

* **event entries** (``fn is None``): a triggered :class:`Event` whose
  callbacks the loop runs — what processes, conditions and stores wait on;
* **call entries** (:meth:`Environment.call_soon` /
  :meth:`Environment.call_later`): a plain ``fn(obj)`` the loop invokes
  directly, with no Event, callback list or closure behind it — for hot
  internal paths where nothing ever waits on the occurrence (network
  deliveries, server service steps).
"""

from __future__ import annotations

import heapq
from itertools import count
from math import inf
from typing import Any, Callable, Generator, Optional, Union

from repro.sim.events import (
    NORMAL,
    URGENT,
    AllOf,
    AnyOf,
    Event,
    Process,
    StopSimulation,
    Timeout,
)

__all__ = [
    "EmptySchedule",
    "Environment",
]


class EmptySchedule(Exception):
    """Raised internally when the event queue runs dry."""


class Environment:
    """Execution environment for a discrete-event simulation.

    Time is a float starting at ``initial_time`` and only moves forward.
    Events scheduled for the same instant run in FIFO order within the same
    priority class, which makes runs fully deterministic.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock.
    """

    #: Free-list bounds: enough to absorb every in-flight pooled object of
    #: a large cell without pinning unbounded garbage after a burst.
    _TIMEOUT_POOL_MAX = 4096
    _CB_POOL_MAX = 8192

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        #: The pending set: a heap of ``(time, priority, seq, fn, obj)``;
        #: ``fn`` is None for event entries (``obj`` is the Event).
        self._queue: list[tuple] = []
        self._eid = count()
        self._active_process: Optional[Process] = None
        #: Free lists (see :meth:`pooled_timeout`): recycled Timeout
        #: objects and recycled callback lists.  ``_cb_pool`` must exist
        #: before any Event is constructed — Event.__init__ reads it.
        self._cb_pool: list[list] = []
        self._timeout_pool: list[Timeout] = []
        self.timeout_pool_hits = 0
        self.timeout_pool_misses = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def engine(self) -> str:
        """Name of the event core (always ``"heap"``; kept for provenance)."""
        return "heap"

    @property
    def pending(self) -> int:
        """Number of scheduled entries (events and calls) not yet run."""
        return len(self._queue)

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    @property
    def active_process_generator(self):
        """The running process's generator (SimPy-compat convenience)."""
        proc = self._active_process
        return proc._generator if proc is not None else None

    def __repr__(self) -> str:
        return (
            f"<Environment now={self._now} queued={len(self._queue)} "
            f"engine={self.engine}>"
        )

    # ------------------------------------------------------------------
    # Event factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def pooled_timeout(self, delay: float, value: Any = None) -> Timeout:
        """A :class:`Timeout` recycled through a free list after it fires.

        Identical semantics to :meth:`timeout` up to the firing, after
        which the object is returned to the pool and later reused —
        callers must not retain a reference past the callbacks (internal
        hot paths: interarrival gaps, op timers, broadcast periods).
        Wrapping one in :class:`AllOf`/:class:`AnyOf` is safe: conditions
        pin their members.  Where nothing needs an Event at all, prefer
        :meth:`call_later`.
        """
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise ValueError(f"negative delay {delay}")
            self.timeout_pool_hits += 1
            t = pool.pop()
            t._delay = float(delay)
            t._ok = True
            t._value = value
            t.defused = False
            t._recyclable = True
            cb_pool = self._cb_pool
            t.callbacks = cb_pool.pop() if cb_pool else []
            self._schedule(t, delay=t._delay, priority=NORMAL)
            return t
        self.timeout_pool_misses += 1
        t = Timeout(self, delay, value)
        t._recyclable = True
        return t

    def pool_stats(self) -> dict:
        """Free-list counters: hits, misses, and the resulting hit rate."""
        hits, misses = self.timeout_pool_hits, self.timeout_pool_misses
        total = hits + misses
        return {
            "timeout_pool_hits": hits,
            "timeout_pool_misses": misses,
            "timeout_pool_hit_rate": hits / total if total else 0.0,
        }

    def process(self, generator: Generator) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator)

    def all_of(self, events) -> AllOf:
        """Event that fires once all of ``events`` have succeeded."""
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        """Event that fires once any of ``events`` has succeeded."""
        return AnyOf(self, events)

    # ------------------------------------------------------------------
    # Scheduling and stepping
    # ------------------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0, priority: int = URGENT) -> None:
        """Put a triggered event on the queue ``delay`` from now.

        Callers pass the right priority themselves (:class:`Timeout`
        schedules itself at NORMAL) — this method is the hottest function
        in the simulator and does no classification of its own.
        """
        heapq.heappush(
            self._queue, (self._now + delay, priority, next(self._eid), None, event)
        )

    def call_soon(self, fn: Callable[[Any], Any], arg: Any = None) -> None:
        """Run ``fn(arg)`` at the current instant, at URGENT priority.

        The call takes the slot a ``succeed()``-ed event would: after
        everything already scheduled for this instant at URGENT, before
        any timeout due now.  Nothing can wait on it; an exception raised
        by ``fn`` propagates out of :meth:`run`.
        """
        heapq.heappush(self._queue, (self._now, URGENT, next(self._eid), fn, arg))

    def call_later(self, delay: float, fn: Callable[[Any], Any], arg: Any = None) -> None:
        """Run ``fn(arg)`` ``delay`` from now, at NORMAL priority.

        Ordered exactly like a :class:`Timeout` created at the same point
        would be, without allocating one.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        heapq.heappush(
            self._queue, (self._now + delay, NORMAL, next(self._eid), fn, arg)
        )

    def peek(self) -> float:
        """Time of the next scheduled entry, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else inf

    def step(self) -> None:
        """Process the single next entry; advance the clock to it."""
        try:
            when, _, _, fn, event = heapq.heappop(self._queue)
        except IndexError:
            raise EmptySchedule(
                f"no scheduled events at now={self._now}"
            ) from None
        self._now = when
        if fn is not None:
            fn(event)
            return
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event.defused:
            # Nobody consumed the failure: surface it rather than losing it.
            exc = event._value
            raise exc
        self._recycle(event, callbacks)

    def _recycle(self, event: Event, callbacks: list) -> None:
        """Return a processed event's dead carcass to the free lists."""
        callbacks.clear()
        if len(self._cb_pool) < self._CB_POOL_MAX:
            self._cb_pool.append(callbacks)
        if (
            type(event) is Timeout
            and event._recyclable
            and len(self._timeout_pool) < self._TIMEOUT_POOL_MAX
        ):
            event._value = None  # drop the payload reference while pooled
            self._timeout_pool.append(event)

    def run(self, until: Union[Event, float, None] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` — run until no events remain.
            a number — run until the clock reaches that time; must be
            finite-or-inf, non-negative, not NaN, and not in the past
            (``ValueError`` otherwise).
            an :class:`Event` — run until that event triggers, returning its
            value (or raising its failure).
        """
        stop_event: Optional[Event] = None
        if until is None:
            pass
        elif isinstance(until, Event):
            stop_event = until
            if stop_event.callbacks is None:
                # Already processed: nothing to run.
                if stop_event._ok:
                    return stop_event._value
                stop_event.defused = True
                raise stop_event._value
            stop_event.callbacks.append(_stop_callback)
        else:
            at = float(until)
            if at != at:
                raise ValueError("until must not be NaN")
            if at < 0.0:
                raise ValueError(f"until={at} is negative")
            if at < self._now:
                raise ValueError(f"until={at} is in the past (now={self._now})")
            stop_event = Event(self)
            stop_event._ok = True
            stop_event._value = None
            stop_event.callbacks.append(_stop_callback)
            # seq -1: the stop fires before anything else due at ``at``.
            heapq.heappush(self._queue, (at, URGENT, -1, None, stop_event))

        try:
            self._drain()
        except StopSimulation as stop:
            return stop.value
        if stop_event is not None and not stop_event.triggered:
            if isinstance(until, Event):
                raise RuntimeError(
                    "simulation ran out of events before the awaited "
                    f"event {until!r} triggered"
                )
        return None

    def _drain(self) -> None:
        """Run entries until the heap is empty or :class:`StopSimulation`."""
        # Inlined event loop (rather than `while True: self.step()`): the
        # loop body runs once per simulated event, so the method-call and
        # attribute-lookup overhead of delegating to step() is measurable.
        queue = self._queue
        pop = heapq.heappop
        cb_pool = self._cb_pool
        timeout_pool = self._timeout_pool
        cb_pool_max = self._CB_POOL_MAX
        timeout_pool_max = self._TIMEOUT_POOL_MAX
        while queue:
            when, _, _, fn, event = pop(queue)
            self._now = when
            if fn is not None:
                fn(event)
                continue
            callbacks = event.callbacks
            event.callbacks = None
            for callback in callbacks:
                callback(event)
            if not event._ok and not event.defused:
                # Nobody consumed the failure: surface it rather than
                # losing it.
                raise event._value
            # Inlined _recycle (same reasoning as inlining the loop).
            callbacks.clear()
            if len(cb_pool) < cb_pool_max:
                cb_pool.append(callbacks)
            if (
                type(event) is Timeout
                and event._recyclable
                and len(timeout_pool) < timeout_pool_max
            ):
                event._value = None
                timeout_pool.append(event)

    def run_until_idle(self) -> None:
        """Drain every remaining event (alias of ``run()`` with no bound)."""
        self.run(until=None)


def _stop_callback(event: Event) -> None:
    if event._ok:
        raise StopSimulation(event._value)
    event.defused = True
    raise event._value
