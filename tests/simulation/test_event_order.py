"""The time-bucket event queue dispatches in exact ``(time, arrival)`` order.

The simulator never materialises a sequence number: order inside an instant
is the append order of that instant's bucket.  These tests hold the queue to
an oracle computed independently of it — every scheduling act is logged by
the test with its fire time and a test-owned arrival counter, and the
observed dispatch log must equal a stable sort of those records by
``(time, arrival index)`` — and then walk the places where a bucket queue
could go wrong: appends to the bucket being drained, events triggered after
it drained, runs that stop mid-bucket, and the two population regimes (few
timestamps, many timestamps) the retired calendar wheel existed for.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.simulation import Simulator


class _Recorder:
    """Schedules labelled events and keeps the independent oracle."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.scheduled = []  # (fire time, arrival index, label)
        self.log = []  # (dispatch time, label)

    def _note(self, when: float, label: str) -> None:
        self.scheduled.append((when, len(self.scheduled), label))

    def timeout(self, delay: float, label: str, then=None):
        self._note(self.sim.now + delay, label)
        return self._watch(self.sim.timeout(delay), label, then)

    def succeed(self, label: str, then=None):
        self._note(self.sim.now, label)
        return self._watch(self.sim.event().succeed(), label, then)

    def _watch(self, event, label, then):
        def _cb(_event):
            self.log.append((self.sim.now, label))
            if then is not None:
                then()

        event.add_callback(_cb)
        return event

    def expected(self):
        return [(when, label) for when, _, label in sorted(self.scheduled)]


def _random_schedule(seed: int, drive) -> _Recorder:
    """Replay a seeded random workload under ``drive(sim)``.

    Mixes duplicate fire times, sub-microsecond spacing, long gaps, and
    callbacks that schedule more work mid-flight — zero-delay timeouts and
    ``succeed()`` included, i.e. appends to the bucket being drained.
    """
    rng = random.Random(seed)
    sim = Simulator()
    rec = _Recorder(sim)

    def chain(label, depth):
        def _then():
            if depth <= 0:
                return
            if rng.random() < 0.3:
                rec.succeed(f"{label}!", chain(f"{label}!", depth - 1))
            else:
                delay = rng.choice([0.0, 0.0, 0.00007, 0.5])
                rec.timeout(delay, f"{label}+", chain(f"{label}+", depth - 1))

        return _then

    delays = [0.0, 0.0001, 0.0001, 0.003, 0.25, 1.0, 1.0, 7.5]
    for i in range(200):
        delay = rng.choice(delays)
        if rng.random() < 0.25:
            rec.timeout(delay, f"c{i}", chain(f"c{i}", rng.randint(1, 3)))
        else:
            rec.timeout(delay, f"e{i}")
    drive(sim)
    return rec


def _step_all(sim: Simulator) -> None:
    while sim.pending:
        sim.step()


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_dispatch_is_stable_sort_by_time_then_arrival(seed):
    rec = _random_schedule(seed, Simulator.run)
    assert rec.log == rec.expected()  # exact: same times, same order
    assert len(rec.log) >= 200


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_step_loop_equals_run(seed):
    stepped = _random_schedule(seed, _step_all)
    ran = _random_schedule(seed, Simulator.run)
    assert stepped.log == ran.log == ran.expected()


def test_duplicate_fire_times_are_fifo():
    sim = Simulator()
    order = []
    for i in range(50):
        sim.timeout(1.0).add_callback(lambda e, i=i: order.append(i))
    sim.run()
    assert order == list(range(50))


def test_second_and_third_arrival_keep_a_lone_bucket_in_order():
    # A lone event is stored bare; its second arrival builds the list.
    sim = Simulator()
    rec = _Recorder(sim)
    rec.timeout(2.0, "lone-a")
    rec.timeout(1.0, "lone-b")
    rec.timeout(2.0, "second")
    rec.timeout(2.0, "third")
    assert sim.pending == 4
    sim.run()
    assert [label for _, label in rec.log] == ["lone-b", "lone-a", "second", "third"]
    assert rec.log == rec.expected()


def test_same_instant_appends_while_the_bucket_drains():
    sim = Simulator()
    rec = _Recorder(sim)
    rec.timeout(1.0, "a", lambda: rec.timeout(0.0, "a.zero", lambda: rec.succeed("a.zero.s")))
    rec.timeout(1.0, "b", lambda: rec.succeed("b.s"))
    rec.timeout(1.0, "c")
    sim.run()
    # Follow-ups queue behind everything already due at the instant.
    assert [label for _, label in rec.log] == ["a", "b", "c", "a.zero", "b.s", "a.zero.s"]
    assert rec.log == rec.expected()
    assert sim.now == 1.0


def test_absorbed_delay_joins_the_current_instant():
    sim = Simulator()
    rec = _Recorder(sim)
    tiny = 1e-30  # 1e6 + 1e-30 == 1e6: the delay vanishes in the addition

    def at_big():
        rec.timeout(tiny, "absorbed")
        rec.succeed("after")

    rec.timeout(1e6, "big", at_big)
    sim.run()
    assert [label for _, label in rec.log] == ["big", "absorbed", "after"]
    assert sim.now == 1e6


def test_event_triggered_by_flush_after_the_bucket_drained():
    sim = Simulator()
    rec = _Recorder(sim)
    flushed = []

    def flush():
        flushed.append(sim.now)
        rec.succeed("from-flush", lambda: rec.timeout(0.0, "from-flush.zero"))

    rec.timeout(1.0, "a", lambda: sim.request_flush(flush))
    rec.timeout(1.0, "b")
    rec.timeout(2.0, "later")
    sim.run()
    # The flush fires once the instant's bucket is empty; what it triggers
    # reopens the same instant and runs before time advances.
    assert flushed == [1.0]
    assert rec.log == [
        (1.0, "a"), (1.0, "b"), (1.0, "from-flush"), (1.0, "from-flush.zero"), (2.0, "later"),
    ]
    assert rec.log == rec.expected()


def test_flush_requested_from_a_flush_callback_folds_into_the_instant():
    sim = Simulator()
    calls = []

    def second():
        calls.append(("second", sim.now))

    def first():
        calls.append(("first", sim.now))
        sim.request_flush(second)

    sim.timeout(1.0).add_callback(lambda e: sim.request_flush(first))
    sim.timeout(3.0).add_callback(lambda e: calls.append(("event", sim.now)))
    sim.run()
    assert calls == [("first", 1.0), ("second", 1.0), ("event", 3.0)]


def test_flush_fires_before_a_deadline_return_and_at_the_deadline_instant():
    sim = Simulator()
    rec = _Recorder(sim)
    flushed = []
    rec.timeout(1.0, "a", lambda: sim.request_flush(lambda: flushed.append(sim.now)))
    rec.timeout(2.0, "at-deadline")
    rec.timeout(2.5, "beyond")
    sim.run(until=2.0)
    assert flushed == [1.0]
    assert rec.log == [(1.0, "a"), (2.0, "at-deadline")]  # deadline is inclusive
    assert sim.now == 2.0 and sim.pending == 1 and sim.peek() == 2.5


def test_scheduling_at_now_after_a_deadline_run():
    sim = Simulator()
    rec = _Recorder(sim)
    rec.timeout(1.0, "early")
    rec.timeout(9.0, "late")
    sim.run(until=5.0)
    assert sim.now == 5.0 and sim.settled()
    rec.succeed("now.s")
    rec.timeout(0.0, "now.zero")
    rec.timeout(4.0, "joins-late")  # lands in the bucket "late" opened
    assert not sim.settled() and sim.peek() == 5.0
    sim.run()
    assert rec.log == [
        (1.0, "early"), (5.0, "now.s"), (5.0, "now.zero"), (9.0, "late"), (9.0, "joins-late"),
    ]
    assert rec.log == rec.expected()


def test_run_until_event_stops_mid_bucket_and_run_resumes_in_order():
    sim = Simulator()
    rec = _Recorder(sim)
    rec.timeout(1.0, "a")
    target = rec.timeout(1.0, "b", lambda: rec.succeed("b.s"))
    rec.timeout(1.0, "c")
    rec.timeout(2.0, "d")
    assert sim.run(until=target) is None
    assert [label for _, label in rec.log] == ["a", "b"]
    assert sim.now == 1.0 and sim.pending == 3 and not sim.settled()
    sim.run()
    assert [label for _, label in rec.log] == ["a", "b", "c", "b.s", "d"]
    assert rec.log == rec.expected()


def test_unhandled_failure_leaves_the_rest_of_the_bucket_queued():
    sim = Simulator()
    rec = _Recorder(sim)
    rec.timeout(1.0, "a")
    sim.timeout(1.0).add_callback(lambda e: sim.event().fail(ValueError("lost")))
    rec.timeout(1.0, "c")
    with pytest.raises(ValueError, match="lost"):
        sim.run()
    assert [label for _, label in rec.log] == ["a", "c"]  # the failure sat behind c
    assert sim.settled()
    sim.run()  # nothing left, and nothing is dispatched twice
    assert len(rec.log) == 2


def test_infinite_timeouts_sort_last():
    sim = Simulator()
    rec = _Recorder(sim)
    rec.timeout(math.inf, "end-a")
    rec.timeout(2.0, "x")
    rec.timeout(math.inf, "end-b")
    rec.timeout(1e300, "huge")
    assert sim.peek() == 2.0
    sim.run(until=1e300)
    assert sim.peek() == math.inf and sim.pending == 2
    sim.run()
    assert [label for _, label in rec.log] == ["x", "huge", "end-a", "end-b"]
    assert sim.now == math.inf


def test_peek_pending_settled_exact_at_every_step():
    rng = random.Random(5)
    sim = Simulator()
    rec = _Recorder(sim)
    for i in range(120):
        delay = rng.choice([0.0, 0.5, 0.5, 1.25, 3.0])
        follow = (lambda i=i: rec.succeed(f"s{i}")) if i % 3 == 0 else None
        rec.timeout(delay, f"e{i}", follow)
    assert sim.peek() == 0.0 and not sim.settled()
    while sim.pending:
        # Everything scheduled so far and not yet dispatched is pending;
        # step() may only add to both lists.
        remaining = sorted(rec.scheduled)[len(rec.log):]
        assert sim.pending == len(remaining)
        assert sim.peek() == remaining[0][0]
        assert sim.settled() == (remaining[0][0] > sim.now)
        sim.step()
        assert rec.log[-1] == (remaining[0][0], remaining[0][2])
    assert sim.peek() == math.inf and sim.settled() and sim.pending == 0
    with pytest.raises(IndexError):
        sim.step()
    assert rec.log == rec.expected()


def test_settled_reads_true_inside_a_lone_event_and_false_with_company():
    sim = Simulator()
    seen = {}
    sim.timeout(1.0).add_callback(lambda e: seen.setdefault("lone", sim.settled()))
    sim.timeout(2.0).add_callback(lambda e: seen.setdefault("first-of-two", sim.settled()))
    sim.timeout(2.0).add_callback(lambda e: seen.setdefault("last-of-two", sim.settled()))
    sim.run()
    assert seen == {"lone": True, "first-of-two": False, "last-of-two": True}


def test_instants_and_events_processed_count_per_bucket():
    sim = Simulator()
    sim.event().succeed()  # due at t=0: an event, but no time advance
    for when in (1.0, 1.0, 1.0, 2.0, 4.0, 4.0):
        sim.timeout(when)
    sim.run(until=1.0)
    assert (sim.instants, sim.events_processed) == (1, 4)
    sim.step()
    assert (sim.instants, sim.events_processed) == (2, 5)
    sim.run()
    assert (sim.instants, sim.events_processed) == (3, 7)
    assert sim.scheduler_switches == 0  # retired: there is one queue


def test_scheduler_knob_is_gone():
    with pytest.raises(TypeError):
        Simulator(scheduler="heap")
    assert not hasattr(Simulator(), "active_scheduler")


def test_smoke_100k_events_on_three_timestamps():
    sim = Simulator()
    fired = []
    note = fired.append
    for i in range(100_000):
        sim.timeout((1.0, 2.0, 3.0)[i % 3]).add_callback(lambda e, i=i: note(i))
    assert sim.pending == 100_000
    sim.run()
    expected = [i for r in range(3) for i in range(r, 100_000, 3)]
    assert fired == expected
    assert (sim.instants, sim.events_processed) == (3, 100_000)


def test_smoke_100k_distinct_timestamps():
    rng = random.Random(9)
    delays = rng.sample(range(1, 10_000_000), 100_000)
    sim = Simulator()
    fired = []
    note = fired.append
    for delay in delays:
        sim.timeout(delay * 1e-3).add_callback(lambda e: note(sim.now))
    sim.run()
    assert fired == sorted(delay * 1e-3 for delay in delays)
    assert (sim.instants, sim.events_processed) == (100_000, 100_000)
