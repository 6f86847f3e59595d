"""Property-based barrier testing: random arrival schedules."""

from hypothesis import given, settings, strategies as st

from repro.bench.sync import Barrier
from repro.simulation import Simulator
from repro.simulation.events import Event


@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=12
    )
)
@settings(max_examples=50, deadline=None)
def test_barrier_releases_everyone_at_last_arrival(delays):
    sim = Simulator()
    barrier = Barrier(sim, len(delays))
    release_times = []

    def party(sim, barrier, delay):
        yield sim.timeout(delay)
        yield barrier.wait()
        release_times.append(sim.now)

    for delay in delays:
        sim.process(party(sim, barrier, delay))
    sim.run()

    assert len(release_times) == len(delays)
    last_arrival = max(delays)
    assert all(t == release_times[0] for t in release_times)
    assert release_times[0] == last_arrival
    assert barrier.n_waiting == 0
    assert barrier.generation == 1


@given(
    rounds=st.integers(min_value=1, max_value=5),
    parties=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=30, deadline=None)
def test_barrier_round_count_matches_generations(rounds, parties):
    sim = Simulator()
    barrier = Barrier(sim, parties)
    per_party_releases = [[] for _ in range(parties)]

    def party(sim, barrier, index):
        for _ in range(rounds):
            yield sim.timeout(float(index + 1))
            yield barrier.wait()
            per_party_releases[index].append(sim.now)

    for index in range(parties):
        sim.process(party(sim, barrier, index))
    sim.run()

    assert barrier.generation == rounds
    for releases in per_party_releases:
        assert len(releases) == rounds
        # All parties observe identical release instants per round.
        assert releases == per_party_releases[0]
    # Rounds strictly ordered in time.
    first = per_party_releases[0]
    assert all(a < b for a, b in zip(first, first[1:]))


# -- event-trace identity with the per-waiter implementation ----------------------------


class _PerWaiterBarrier:
    """Test-only oracle: one event per waiter, released by N ``succeed()``s."""

    def __init__(self, sim, parties, name=""):
        self.sim = sim
        self.parties = parties
        self.name = name
        self._waiting = []
        self.generation = 0

    @property
    def n_waiting(self):
        return len(self._waiting)

    def wait(self):
        event = Event(self.sim, name=f"{self.name}:barrier{self.generation}")
        self._waiting.append(event)
        if len(self._waiting) >= self.parties:
            generation = self.generation
            waiters = self._waiting
            self._waiting = []
            self.generation += 1
            for waiter in waiters:
                waiter.succeed(generation)
        return event


def _barrier_trace(barrier_cls, delays, rounds, foreign):
    """Everything observable about a barrier run, in execution order."""
    sim = Simulator(seed=3)
    barrier = barrier_cls(sim, len(delays), name="b")
    trace = []

    def party(index):
        for round_no in range(rounds):
            # Quarter-second grid: several parties (and the foreign
            # processes) share instants, so intra-instant order is probed.
            yield sim.timeout(delays[(index + round_no) % len(delays)])
            trace.append(("arrive", index, round_no, sim.now, barrier.n_waiting))
            generation = yield barrier.wait()
            trace.append(("release", index, generation, sim.now, barrier.generation))
            # Same-instant follow-up work lands behind the whole release.
            yield sim.timeout(0.0)
            trace.append(("after", index, round_no, sim.now))

    def bystander(index, period):
        for tick in range(int(rounds * 2.5 / period) + 1):
            trace.append(("tick", index, tick, sim.now, barrier.n_waiting))
            yield sim.timeout(period)

    for index in range(len(delays)):
        sim.process(party(index))
    for index, period in enumerate(foreign):
        sim.process(bystander(index, period))
    sim.run()
    return trace, float(sim.now).hex(), barrier.generation, barrier.n_waiting


@given(
    delays=st.lists(
        st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 2.0]), min_size=1, max_size=9
    ),
    rounds=st.integers(min_value=1, max_value=4),
    foreign=st.lists(st.sampled_from([0.25, 0.5, 1.0]), max_size=2),
)
@settings(max_examples=80, deadline=None)
def test_shared_generation_event_replays_the_per_waiter_trace(delays, rounds, foreign):
    shared = _barrier_trace(Barrier, delays, rounds, foreign)
    oracle = _barrier_trace(_PerWaiterBarrier, delays, rounds, foreign)
    assert shared == oracle
    assert shared[2] == rounds


def test_a_generation_costs_one_queue_entry():
    sim = Simulator()
    barrier = Barrier(sim, 5)
    events = [barrier.wait() for _ in range(5)]
    assert all(event is events[0] for event in events)
    assert sim.pending == 1
    assert barrier.wait() is not events[0]
