"""Generator-based processes: values, exceptions, misuse."""

import numpy as np
import pytest

from repro.simulation import Simulator


def test_process_returns_value(sim):
    def body(sim):
        yield sim.timeout(1.0)
        return 99

    assert sim.run(until=sim.process(body(sim))) == 99


def test_process_requires_generator(sim):
    with pytest.raises(TypeError, match="generator"):
        sim.process(lambda: None)


def test_yielded_value_receives_event_value(sim):
    def body(sim):
        got = yield sim.timeout(1.0, value="hello")
        return got

    assert sim.run(until=sim.process(body(sim))) == "hello"


def test_process_exception_fails_the_process_event(sim):
    def body(sim):
        yield sim.timeout(0.5)
        raise KeyError("inside")

    process = sim.process(body(sim))
    with pytest.raises(KeyError):
        sim.run(until=process)
    assert process.triggered and not process.ok


def test_failed_event_raises_inside_waiter(sim):
    failing = sim.event()

    def body(sim):
        try:
            yield failing
        except ValueError as exc:
            return f"caught {exc}"

    process = sim.process(body(sim))
    failing.fail(ValueError("deliberate"))
    assert sim.run(until=process) == "caught deliberate"


def test_yielding_non_event_fails_process(sim):
    def body(value):
        yield value

    # Nothing but an exact float or int is a delay.
    for value in ("42", None, np.float64(1.0), True):
        with pytest.raises(TypeError, match="must.*yield Event"):
            sim.run(until=sim.process(body(value)))


def test_yielding_a_float_is_a_delay(sim):
    def body(sim):
        yield 2.5
        return sim.now

    assert sim.run(until=sim.process(body(sim))) == 2.5


def _zero_delay_order(as_timeout: bool):
    """A process yields a zero delay while two events are queued at ``now``."""
    sim = Simulator()
    order = []

    def body():
        sim.event().succeed().add_callback(lambda _: order.append("queued-1"))
        sim.event().succeed().add_callback(lambda _: order.append("queued-2"))
        yield sim.timeout(0) if as_timeout else 0
        order.append("resumed")

    sim.process(body())
    sim.run()
    return order


def test_zero_delay_runs_after_events_already_queued_at_now():
    assert _zero_delay_order(False) == ["queued-1", "queued-2", "resumed"]
    assert _zero_delay_order(False) == _zero_delay_order(True)


def test_negative_delay_fails_process(sim):
    def body(sim):
        yield -1.0

    with pytest.raises(ValueError, match="non-negative"):
        sim.run(until=sim.process(body(sim)))


def _interleaved_trace(as_timeout: bool):
    """A delay-yielding process among Timeout-yielding ones, ``(now, order)``
    at every resumption; ``as_timeout`` makes the first one a Timeout twin."""
    sim = Simulator()
    trace = []

    def subject():
        for delay in (0.0, 0.5, 0.25, 0.25, 0, 1):
            yield sim.timeout(delay) if as_timeout else delay
            trace.append((sim.now, "subject"))

    def other(name, delays):
        for delay in delays:
            yield sim.timeout(delay)
            trace.append((sim.now, name))

    sim.process(other("a", (0.5, 0.0, 0.5)))
    sim.process(subject())
    sim.process(other("b", (0.0, 0.75, 0.25, 0.0)))
    sim.run()
    return trace


def test_delay_and_timeout_twins_produce_identical_traces():
    delays = _interleaved_trace(False)
    assert len(delays) == 13
    assert delays == _interleaved_trace(True)


def test_yielding_foreign_event_fails_process(sim):
    other = Simulator()

    def body(sim):
        yield other.timeout(1.0)

    with pytest.raises(ValueError, match="different simulator"):
        sim.run(until=sim.process(body(sim)))


def test_processes_wait_on_each_other(sim):
    def child(sim):
        yield sim.timeout(2.0)
        return "child-result"

    def parent(sim):
        result = yield sim.process(child(sim))
        return f"got {result}"

    assert sim.run(until=sim.process(parent(sim))) == "got child-result"
    assert sim.now == 2.0


def test_is_alive(sim):
    def body(sim):
        yield sim.timeout(1.0)

    process = sim.process(body(sim))
    assert process.is_alive
    sim.run()
    assert not process.is_alive


def test_immediate_return_process(sim):
    def body(sim):
        return "instant"
        yield  # pragma: no cover - makes it a generator

    assert sim.run(until=sim.process(body(sim))) == "instant"
    assert sim.now == 0.0
