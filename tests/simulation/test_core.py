"""Simulator event-loop behaviour: ordering, run modes, determinism."""

import pytest

from repro.simulation import Simulator
from repro.simulation.core import StopSimulation


def test_time_starts_at_zero():
    assert Simulator().now == 0.0


def test_timeout_advances_time(sim):
    sim.timeout(2.5)
    sim.run()
    assert sim.now == 2.5


def test_negative_timeout_rejected(sim):
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_events_process_in_time_order(sim):
    order = []
    for delay in (3.0, 1.0, 2.0):
        sim.timeout(delay).add_callback(lambda e, d=delay: order.append(d))
    sim.run()
    assert order == [1.0, 2.0, 3.0]


def test_ties_break_by_schedule_order(sim):
    order = []
    for tag in range(5):
        sim.timeout(1.0).add_callback(lambda e, t=tag: order.append(t))
    sim.run()
    assert order == list(range(5))


def test_run_until_time_stops_exactly(sim):
    fired = []
    sim.timeout(1.0).add_callback(lambda e: fired.append(1))
    sim.timeout(5.0).add_callback(lambda e: fired.append(5))
    sim.run(until=2.0)
    assert fired == [1]
    assert sim.now == 2.0


def test_run_until_past_deadline_rejected(sim):
    sim.run(until=3.0)
    with pytest.raises(ValueError):
        sim.run(until=1.0)


def test_run_until_event_returns_value(sim):
    def proc(sim):
        yield sim.timeout(1.0)
        return "done"

    result = sim.run(until=sim.process(proc(sim)))
    assert result == "done"
    assert sim.now == 1.0


def test_run_until_event_raises_its_failure(sim):
    def proc(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        sim.run(until=sim.process(proc(sim)))


def test_run_until_processed_event_returns_its_value_again(sim):
    def proc(sim):
        yield sim.timeout(1.0)
        return "done"

    process = sim.process(proc(sim))
    later = sim.timeout(5.0)
    assert sim.run(until=process) == "done"
    # Asking again must answer from the processed event, not leak the
    # internal StopSimulation, and must not dispatch anything.
    assert sim.run(until=process) == "done"
    assert sim.now == 1.0 and not later.processed


def test_run_until_processed_failed_event_raises_its_failure_again(sim):
    def proc(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("boom")

    process = sim.process(proc(sim))
    for _ in range(2):
        with pytest.raises(RuntimeError, match="boom"):
            sim.run(until=process)
    assert sim.now == 1.0


def test_run_until_never_triggered_event_errors(sim):
    pending = sim.event()
    sim.timeout(1.0)
    with pytest.raises(RuntimeError, match="ran out of events"):
        sim.run(until=pending)


def test_unhandled_failed_event_surfaces(sim):
    event = sim.event()
    event.fail(ValueError("lost failure"))
    with pytest.raises(ValueError, match="lost failure"):
        sim.run()


def test_defused_failure_does_not_surface(sim):
    event = sim.event()
    event.fail(ValueError("handled"))
    event.defuse()
    sim.run()  # no raise


def test_peek_reports_next_event_time(sim):
    assert sim.peek() == float("inf")
    sim.timeout(4.0)
    sim.timeout(2.0)
    assert sim.peek() == 2.0


def test_no_reentrant_run(sim):
    def proc(sim):
        with pytest.raises(RuntimeError, match="already running"):
            sim.run()
        yield sim.timeout(0.1)

    sim.process(proc(sim))
    sim.run()


def test_determinism_same_seed_same_trace():
    def trace_run(seed):
        sim = Simulator(seed=seed)
        log = []

        def worker(sim, name):
            rng = sim.rng.stream("delays")
            for _ in range(10):
                yield sim.timeout(float(rng.uniform(0.0, 1.0)))
                log.append((sim.now, name))

        for name in ("a", "b", "c"):
            sim.process(worker(sim, name))
        sim.run()
        return log

    assert trace_run(42) == trace_run(42)
    assert trace_run(42) != trace_run(43)


def test_record_noop_without_tracer(sim):
    sim.record("kind", value=1)  # must not raise
    assert sim.tracer is None


def test_record_with_tracer():
    sim = Simulator(trace=True)
    sim.record("op", value=1)
    assert len(sim.tracer) == 1
    assert sim.tracer.records[0].kind == "op"
    assert sim.tracer.records[0]["value"] == 1


def test_stop_simulation_is_an_exception():
    assert issubclass(StopSimulation, Exception)
