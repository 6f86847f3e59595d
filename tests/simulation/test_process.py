"""Generator-based processes: values, exceptions, misuse."""

import pytest


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
    def body(sim):
        yield 42

    with pytest.raises(TypeError, match="must.*yield Event"):
        sim.run(until=sim.process(body(sim)))


def test_yielding_foreign_event_fails_process(sim):
    from repro.simulation import Simulator

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
