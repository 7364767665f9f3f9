"""Span recording for the traced benchmark run.

A span is one call into a layer: its layer, start, end, the span that was
open when it began (its parent) and the request id, when the wrapped
call's arguments carry one.  Spans are kept in memory as parallel columns
and summarised (or written out) once the run ends.

Two ways to find a span's parent:

* :class:`StackTracer` — the simulator's callbacks are synchronous, so
  spans nest through a plain stack;
* :class:`ContextTracer` — asyncio tasks interleave, so each task reads
  its parent from a :mod:`contextvars` variable that it inherited when it
  was created.

A layer's *self time* is the span's duration minus the part of that
interval its child spans cover (children of an async span may overlap, so
the covered part is the union of their intervals).  A layer's *calls*
count only boundary entries: spans whose parent belongs to another layer
(or that have none), so a laned queue delegating to its inner queue is one
queue operation, not two.
"""

from __future__ import annotations

import contextvars
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

NO_PARENT = -1
NO_REQUEST = -1

#: ``rid(args) -> int``: pulls a request id out of a wrapped call's args.
RidFn = Callable[[tuple], int]
#: ``observe(args, result)``: runs after the span closes (extra counters).
ObserveFn = Callable[[tuple, object], None]


class SpanLog:
    """Spans as parallel columns: layer id, parent index, request id, times."""

    def __init__(self, layers: Sequence[str], clock: Callable[[], float] = time.perf_counter):
        self.layers: List[str] = list(layers)
        self._ids: Dict[str, int] = {name: i for i, name in enumerate(self.layers)}
        self.clock = clock
        self.layer = array("i")
        self.parent = array("q")
        self.rid = array("q")
        self.start = array("d")
        self.end = array("d")

    def __len__(self) -> int:
        return len(self.start)

    def layer_id(self, name: str) -> int:
        return self._ids[name]

    def _open(self, layer_id: int, parent: int, rid: int) -> int:
        index = len(self.start)
        self.layer.append(layer_id)
        self.parent.append(parent)
        self.rid.append(rid)
        self.end.append(0.0)
        self.start.append(self.clock())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = self.clock()

    # -- summaries ---------------------------------------------------------
    def self_times(self) -> List[float]:
        """Per-span duration minus the union of its children's intervals."""
        n = len(self)
        start, end, parent = self.start, self.end, self.parent
        own = [end[i] - start[i] for i in range(n)]
        children: Dict[int, List[int]] = {}
        for i in range(n):
            p = parent[i]
            if p != NO_PARENT:
                children.setdefault(p, []).append(i)
        for p, kids in children.items():
            lo, hi = start[p], end[p]
            covered = 0.0
            cur_lo = cur_hi = None
            for k in sorted(kids, key=start.__getitem__):
                a, b = max(start[k], lo), min(end[k], hi)
                if b <= a:
                    continue
                if cur_hi is None or a > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = a, b
                elif b > cur_hi:
                    cur_hi = b
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            own[p] -= covered
        return own

    def root_time(self) -> float:
        """Total duration of spans without a parent (what they cover)."""
        return sum(
            self.end[i] - self.start[i]
            for i in range(len(self))
            if self.parent[i] == NO_PARENT
        )

    def by_layer(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"calls": boundary entries, "self_s": self time}}``."""
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.layers}
        layer, parent = self.layer, self.parent
        for i, own in enumerate(self.self_times()):
            stats = out[self.layers[layer[i]]]
            stats["self_s"] += own
            p = parent[i]
            if p == NO_PARENT or layer[p] != layer[i]:
                stats["calls"] += 1
        return out

    def save(self, path) -> None:
        """Write the spans as columns of an ``.npz`` file."""
        np.savez(
            path,
            layers=np.array(self.layers),
            layer=np.frombuffer(self.layer, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            rid=np.frombuffer(self.rid, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


class StackTracer(SpanLog):
    """Synchronous nesting: the open span is the top of a plain stack."""

    def __init__(self, layers: Sequence[str], clock: Callable[[], float] = time.perf_counter):
        super().__init__(layers, clock)
        self._stack: List[int] = []

    def wrap(
        self, fn: Callable, layer: str, rid: Optional[RidFn] = None,
        observe: Optional[ObserveFn] = None,
    ) -> Callable:
        lid = self.layer_id(layer)
        stack, open_, close = self._stack, self._open, self._close

        def traced(*args, **kwargs):
            index = open_(
                lid, stack[-1] if stack else NO_PARENT,
                rid(args) if rid is not None else NO_REQUEST,
            )
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                close(index)
            if observe is not None:
                observe(args, result)
            return result

        return traced


class ContextTracer(SpanLog):
    """Async nesting: each task takes its parent from a context variable.

    The request id follows the same route: :meth:`request` tags every span
    opened below it (in this task or in tasks it creates) whose wrapped
    arguments carry no id of their own.
    """

    def __init__(self, layers: Sequence[str], clock: Callable[[], float] = time.perf_counter):
        super().__init__(layers, clock)
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_span", default=NO_PARENT
        )
        self._request: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_request", default=NO_REQUEST
        )

    @contextmanager
    def request(self, rid: int) -> Iterator[None]:
        token = self._request.set(rid)
        try:
            yield
        finally:
            self._request.reset(token)

    def _enter(self, lid: int, rid: Optional[RidFn], args: tuple) -> Tuple[int, contextvars.Token]:
        request = rid(args) if rid is not None else NO_REQUEST
        if request == NO_REQUEST:
            request = self._request.get()
        index = self._open(lid, self._current.get(), request)
        return index, self._current.set(index)

    def wrap(
        self, fn: Callable, layer: str, rid: Optional[RidFn] = None,
        observe: Optional[ObserveFn] = None,
    ) -> Callable:
        lid = self.layer_id(layer)

        def traced(*args, **kwargs):
            index, token = self._enter(lid, rid, args)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._current.reset(token)
                self._close(index)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def wrap_async(
        self, fn: Callable, layer: str, rid: Optional[RidFn] = None,
        observe: Optional[ObserveFn] = None,
    ) -> Callable:
        lid = self.layer_id(layer)

        async def traced(*args, **kwargs):
            index, token = self._enter(lid, rid, args)
            try:
                result = await fn(*args, **kwargs)
            finally:
                self._current.reset(token)
                self._close(index)
            if observe is not None:
                observe(args, result)
            return result

        return traced


@contextmanager
def patched(replacements: Sequence[Tuple[object, str, object]]) -> Iterator[None]:
    """Set ``owner.name = value`` for each triple; restore on exit.

    The original is read from the owner's ``__dict__`` so that class and
    static methods come back as they were.
    """
    saved = []
    try:
        for owner, name, value in replacements:
            saved.append((owner, name, vars(owner)[name]))
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def subclasses_defining(base: type, name: str) -> List[type]:
    """``base`` and every loaded subclass whose own body defines ``name``."""
    found, todo, seen = [], [base], set()
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if name in vars(cls):
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found
