"""Self-time arithmetic of the span recorders, on a hand-driven clock."""

import asyncio

import pytest

from perfbench.tracing import ContextTracer, StackTracer, patched


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_nested_sync_spans_subtract_children():
    clock = Clock()
    tracer = StackTracer(["outer", "inner"], clock=clock)

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        traced_inner()
        clock.now += 3.0
        traced_inner()

    traced_inner = tracer.wrap(inner, "inner")
    tracer.wrap(outer, "outer")()

    layers = tracer.by_layer()
    assert layers["outer"] == {"calls": 1, "self_s": pytest.approx(4.0)}
    assert layers["inner"] == {"calls": 2, "self_s": pytest.approx(4.0)}
    assert tracer.root_time() == pytest.approx(8.0)
    assert sum(tracer.self_times()) == pytest.approx(tracer.root_time())


def test_same_layer_nesting_counts_one_call():
    clock = Clock()
    tracer = StackTracer(["queue"], clock=clock)
    inner = tracer.wrap(lambda: None, "queue")

    def outer():
        clock.now += 1.0
        inner()

    tracer.wrap(outer, "queue")()
    assert tracer.by_layer()["queue"]["calls"] == 1


def test_stack_unwinds_when_the_call_raises():
    tracer = StackTracer(["a"], clock=Clock())

    def boom():
        raise ValueError

    with pytest.raises(ValueError):
        tracer.wrap(boom, "a")()
    tracer.wrap(lambda: None, "a")()
    assert list(tracer.parent) == [-1, -1]


def test_async_children_overlap_counts_their_union():
    clock = Clock()
    tracer = ContextTracer(["request", "io"], clock=clock)
    gates = [asyncio.Event() for _ in range(4)]

    async def io(i):
        await gates[i].wait()

    async def request():
        traced_io = tracer.wrap_async(io, "io")
        first = asyncio.ensure_future(traced_io(0))   # opens at t=0
        await asyncio.sleep(0)
        clock.now = 1.0
        second = asyncio.ensure_future(traced_io(1))  # opens at t=1
        await asyncio.sleep(0)
        clock.now = 3.0
        gates[0].set()
        await first                                   # closes at t=3
        clock.now = 4.0
        gates[1].set()
        await second                                  # closes at t=4
        clock.now = 10.0

    async def unrelated():
        # A task with no span open: its spans have no parent even while
        # the request span is open.
        await tracer.wrap_async(io, "io")(2)

    async def main():
        other = asyncio.ensure_future(unrelated())
        await asyncio.sleep(0)
        await tracer.wrap_async(request, "request")()
        gates[2].set()
        await other

    asyncio.run(main())
    names = [tracer.layers[i] for i in tracer.layer]
    request_index = names.index("request")
    # The request span covers 0..10; its children cover 0..4 together.
    assert tracer.self_times()[request_index] == pytest.approx(6.0)
    io_parents = [p for p, n in zip(tracer.parent, names) if n == "io"]
    assert io_parents.count(request_index) == 2
    assert io_parents.count(-1) == 1


def test_request_ids_follow_the_context():
    tracer = ContextTracer(["codec"], clock=Clock())
    encode = tracer.wrap(lambda: None, "codec")

    async def main():
        with tracer.request(7):
            await asyncio.gather(asyncio.sleep(0), asyncio.to_thread(lambda: None))
            encode()
        encode()

    asyncio.run(main())
    assert list(tracer.rid) == [7, -1]


def test_patched_restores_class_and_static_methods():
    class Thing:
        @classmethod
        def make(cls):
            return "class"

    original = vars(Thing)["make"]
    with patched([(Thing, "make", classmethod(lambda cls: "patched"))]):
        assert Thing.make() == "patched"
    assert vars(Thing)["make"] is original
    assert Thing.make() == "class"
