"""Model-based RWLock testing: random schedules vs a reference model.

Hypothesis drives random acquire/release schedules through the simulated
RWLock while a plain reference model tracks what *must* hold at every step:
never a writer concurrent with anything, FIFO-consistent admission.
"""

from hypothesis import given, settings, strategies as st

from repro.daos.locks import RWLock
from repro.simulation import Simulator

# A schedule: each entry is (is_writer, hold_duration_ticks, start_delay_ticks).
schedules = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=10),
    ),
    min_size=1,
    max_size=15,
)


@given(schedule=schedules)
@settings(max_examples=60, deadline=None)
def test_rwlock_safety_under_random_schedules(schedule):
    sim = Simulator()
    lock = RWLock(sim)
    # Interval log: (start, end, is_writer) per participant.
    held = []

    def participant(sim, lock, is_writer, hold, delay):
        yield sim.timeout(float(delay))
        yield lock.exclusive if is_writer else lock.shared
        start = sim.now
        yield sim.timeout(float(hold))
        if is_writer:
            lock.release_write()
        else:
            lock.release_read()
        held.append((start, sim.now, is_writer))

    for is_writer, hold, delay in schedule:
        sim.process(participant(sim, lock, is_writer, hold, delay))
    sim.run()

    assert len(held) == len(schedule)  # no deadlock, no starvation
    assert not lock.write_locked and lock.readers == 0 and lock.queue_length == 0

    # Safety: writer intervals overlap nothing.
    for i, (start_a, end_a, writer_a) in enumerate(held):
        for start_b, end_b, writer_b in held[i + 1 :]:
            overlaps = start_a < end_b and start_b < end_a
            if overlaps:
                assert not (writer_a or writer_b), (
                    f"writer overlap: [{start_a},{end_a}) vs [{start_b},{end_b})"
                )


@given(
    n_readers=st.integers(min_value=1, max_value=8),
    n_writers=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=30, deadline=None)
def test_rwlock_total_hold_time_conserved(n_readers, n_writers):
    """Writers serialise: total time >= sum of writer holds; readers overlap."""
    sim = Simulator()
    lock = RWLock(sim)
    hold = 1.0

    def reader(sim, lock):
        yield lock.shared
        yield sim.timeout(hold)
        lock.release_read()

    def writer(sim, lock):
        yield lock.exclusive
        yield sim.timeout(hold)
        lock.release_write()

    for _ in range(n_readers):
        sim.process(reader(sim, lock))
    for _ in range(n_writers):
        sim.process(writer(sim, lock))
    sim.run()
    # All readers admitted together (they arrive first, same instant), each
    # writer strictly after: total = reader batch + writers.
    assert sim.now == (1 + n_writers) * hold
