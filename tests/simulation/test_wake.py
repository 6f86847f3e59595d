"""A :class:`Wake` is a bare queue entry the dispatcher runs as ``fire(wake)``.

It takes the same ``(time, arrival)`` place in the queue an event would,
counts in ``pending`` and ``peek`` like one, and leaves the queue exactly as
an event's callback would when it stops the loop.
"""

from __future__ import annotations

import math

import pytest

from repro.simulation import Simulator
from repro.simulation.events import Wake


def _logging_wake(sim, log, label):
    return Wake(lambda wake: log.append((sim.now, label)))


def _logging_timeout(sim, log, label, delay):
    sim.timeout(delay).add_callback(lambda event: log.append((sim.now, label)))


def test_wake_keeps_fifo_order_with_events_at_one_instant():
    sim = Simulator()
    log = []
    _logging_timeout(sim, log, "t0", 1.0)
    sim._schedule(1.0, _logging_wake(sim, log, "w1"))
    _logging_timeout(sim, log, "t2", 1.0)
    sim._schedule(1.0, _logging_wake(sim, log, "w3"))
    sim._schedule(0.0, _logging_wake(sim, log, "w-now"))
    sim.event().succeed().callbacks.append(lambda event: log.append((sim.now, "s-now")))
    sim.run()
    assert log == [
        (0.0, "w-now"), (0.0, "s-now"),
        (1.0, "t0"), (1.0, "w1"), (1.0, "t2"), (1.0, "w3"),
    ]


def test_wake_reads_as_a_processed_success_with_value_none():
    sim = Simulator()
    seen = []
    wake = Wake(seen.append)
    assert wake._ok is True and wake._value is None
    assert not hasattr(wake, "__dict__")
    sim._schedule(2.0, wake)
    sim.run()
    assert seen == [wake] and sim.now == 2.0


def test_step_dispatches_a_wake_alone_then_runs_the_flush():
    sim = Simulator()
    log = []

    def fire(wake):
        log.append("fire")
        sim.request_flush(lambda: log.append("flush"))

    sim._schedule(1.0, Wake(fire))
    _logging_timeout(sim, log, "later", 2.0)
    sim.step()
    assert log == ["fire", "flush"]
    assert sim.now == 1.0 and sim.pending == 1


def test_pending_and_peek_count_a_wake():
    sim = Simulator()
    log = []
    assert sim.pending == 0 and sim.peek() == math.inf
    sim._schedule(3.0, _logging_wake(sim, log, "lone"))
    assert sim.pending == 1 and sim.peek() == 3.0
    sim._schedule(3.0, _logging_wake(sim, log, "pair"))
    sim._schedule(0.0, _logging_wake(sim, log, "now"))
    assert sim.pending == 3 and sim.peek() == 0.0 and not sim.settled()
    sim.step()
    assert sim.pending == 2 and sim.peek() == 3.0 and sim.settled()
    sim.run()
    assert sim.pending == 0 and [label for _, label in log] == ["now", "lone", "pair"]


def test_wake_stays_queued_after_run_until_an_earlier_time():
    sim = Simulator()
    log = []
    sim._schedule(5.0, _logging_wake(sim, log, "w"))
    sim.run(until=4.0)
    assert log == [] and sim.now == 4.0
    assert sim.pending == 1 and sim.peek() == 5.0
    sim.run()
    assert log == [(5.0, "w")]


def test_a_raising_wake_leaves_the_rest_of_its_bucket_queued():
    sim = Simulator()
    log = []

    def boom(wake):
        log.append("boom")
        raise ValueError("wake failed")

    sim._schedule(1.0, _logging_wake(sim, log, "a"))
    sim._schedule(1.0, Wake(boom))
    sim._schedule(1.0, _logging_wake(sim, log, "c"))
    _logging_timeout(sim, log, "d", 1.0)
    with pytest.raises(ValueError, match="wake failed"):
        sim.run()
    assert log == [(1.0, "a"), "boom"]
    assert sim.pending == 2 and not sim.settled()
    sim.run()
    assert log == [(1.0, "a"), "boom", (1.0, "c"), (1.0, "d")]
