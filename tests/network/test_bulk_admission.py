"""Bulk admission/eviction: bit-identity with the sequential paths.

``admit_flows`` is contractually bit-identical to a loop of ``transfer``
calls at the same instants — on every solver path (either kernel, with the
arena pinned out, pinned in or left to the production hysteresis; see
``conftest.pin_arena``).  These tests drive a mixed
workload (shared paths, distinct rate caps, zero-byte flows, pathless
capped flows, overlapping waves mid-flight) through both admission styles
and compare the full hex-exact outcome.  ``evict_flows`` has the analogous
contract against a loop of single-victim calls.
"""

import math

import pytest

from repro.network.flow import FlowNetwork
from repro.simulation import Simulator
from tests.network.conftest import ARENAS, LOW_SOLVE_MIN

INF = math.inf

#: The three solver paths, as (kernel, arena live): the scalar kernel on
#: flow state, the scalar kernel on the arena's group rows, and the array
#: kernel (which only exists on the arena).
SOLVER_PATHS = [("scalar", False), ("scalar", True), ("vector", True)]


def _pin_path(pin_arena, kernel, arena):
    pin_arena("always" if arena else "never", LOW_SOLVE_MIN if kernel == "vector" else None)


def _specs(links, wave, n):
    """A mixed wave: shared paths, three cap tiers, zero-byte and pathless."""
    a, b = links
    specs = []
    for i in range(n):
        if i % 17 == 13:
            # Pathless flow: rate fixed at its cap, no link occupancy.
            specs.append(((), 4.0 + i % 5, 2.5))
            continue
        path = (a[i % 4], b[i % 2])
        if i % 11 == 7:
            size = 0.0  # completes at the admission instant
        else:
            size = 20.0 + (i % 9) * 3.0 + wave
        cap = (INF, 10.0, 3.5)[i % 3]
        specs.append((path, size, cap))
    return specs


def _run(bulk, n_per_wave=120, evict_at=None, evict_each=False):
    sim = Simulator(seed=5)
    net = FlowNetwork(sim)
    a = [net.add_link(f"a{i}", 50.0 + i) for i in range(4)]
    b = [net.add_link(f"b{i}", 80.0) for i in range(2)]
    flows = []
    events = []

    def wave(index, delay):
        # Waves overlap: each lands while the previous is mid-flight, so
        # bulk admission must replay the partial-progress debit exactly.
        yield sim.timeout(delay)
        specs = _specs((a, b), index, n_per_wave)
        if bulk:
            wave_events = net.admit_flows(specs, name=f"w{index}")
        else:
            wave_events = [
                net.transfer(path, size, rate_cap=cap, name=f"w{index}")
                for path, size, cap in specs
            ]
        events.extend(wave_events)
        result = yield sim.all_of(wave_events)
        for event in result.events:
            flows.append(event.value)

    def evictor():
        yield sim.timeout(evict_at)
        victims = [f for f in net.flows() if f.fid % 3 == 0]
        if evict_each:
            for victim in victims:
                net.evict_flows([victim])
        else:
            net.evict_flows(victims)

    processes = [sim.process(wave(i, i * 0.37)) for i in range(3)]
    if evict_at is not None:
        processes.append(sim.process(evictor()))
    sim.run()

    flows.sort(key=lambda f: f.fid)
    signature = tuple(
        (f.fid, f.size.hex(), f.start_time.hex(), f.end_time.hex())
        for f in flows
    )
    return signature + (
        float(net.completed_bytes).hex(),
        float(sim.now).hex(),
        net.flow_changes,
        net.evicted_flows,
    )


@pytest.mark.parametrize("kernel,arena", SOLVER_PATHS)
def test_bulk_admission_bit_identical_to_sequential(kernel, arena, pin_arena):
    _pin_path(pin_arena, kernel, arena)
    assert _run(True) == _run(False)


def _signatures_on_every_solver_path(pin_arena, **kwargs):
    """Bulk-run signatures over ``SOLVER_PATHS`` and the production hysteresis.

    Default threshold: the scalar kernel solves (on flow state or on arena
    group rows); low threshold: the array kernel does.
    """
    signatures = set()
    for arena in ARENAS:
        for solve_min in (None, LOW_SOLVE_MIN):
            pin_arena(arena, solve_min)
            signatures.add(_run(True, **kwargs))
    return signatures


def test_bulk_admission_identical_across_solver_paths(pin_arena):
    assert len(_signatures_on_every_solver_path(pin_arena)) == 1


def test_admit_flows_zero_byte_only_batch_keeps_clock_untouched():
    # A batch of zero-byte flows must not advance partial-progress debits:
    # admitting it mid-flight leaves the in-flight flow's outcome unchanged.
    def run(with_batch):
        sim = Simulator(seed=1)
        net = FlowNetwork(sim)
        link = net.add_link("l", 10.0)
        done = net.transfer([link], 100.0)

        def poke():
            yield sim.timeout(3.3)
            if with_batch:
                events = net.admit_flows([((link,), 0.0, INF)] * 5)
                assert all(e.triggered for e in events)

        sim.process(poke())
        flow = sim.run(until=done)
        return flow.end_time.hex()

    assert run(True) == run(False)


def test_admit_flows_validates_specs():
    sim = Simulator()
    net = FlowNetwork(sim)
    link = net.add_link("l", 100.0)
    with pytest.raises(ValueError):
        net.admit_flows([((link,), -1.0)])
    with pytest.raises(ValueError):
        net.admit_flows([((link,), 5.0, 0.0)])
    with pytest.raises(ValueError):
        net.admit_flows([((), 5.0)])  # pathless needs a finite cap
    assert net.active_flows == 0 and net.flow_changes == 0
    # A spec rejected mid-batch leaves what the sequential transfer() loop
    # would: the flows before it admitted, accounted and their solve queued.
    with pytest.raises(ValueError):
        net.admit_flows([((link,), 50.0), ((link,), -1.0)])
    assert net.active_flows == 1 and net.flow_changes == 1
    (flow,) = net.flows()
    sim.run()
    assert flow.end_time == 0.5 and sim.now == 0.5
    assert net.active_flows == 0 and net.completed_flows == 1


@pytest.mark.parametrize("kernel,arena", SOLVER_PATHS)
def test_bulk_eviction_bit_identical_to_one_by_one(kernel, arena, pin_arena):
    _pin_path(pin_arena, kernel, arena)
    batch = _run(True, evict_at=1.1)
    single = _run(True, evict_at=1.1, evict_each=True)
    assert batch == single


def test_eviction_identical_across_solver_paths(pin_arena):
    assert len(_signatures_on_every_solver_path(pin_arena, evict_at=1.1)) == 1


def test_evict_flows_semantics():
    sim = Simulator(seed=2)
    net = FlowNetwork(sim)
    link = net.add_link("l", 10.0)
    done = [net.transfer([link], 100.0) for _ in range(4)]
    victims = []

    def driver():
        yield sim.timeout(1.0)
        flows = sorted(net.flows(), key=lambda f: f.fid)
        victims.extend(flows[:2])
        # Double-listing must not double-evict.
        count = net.evict_flows([flows[0], flows[1], flows[0]])
        assert count == 2
        # Re-evicting an already-evicted flow is a no-op.
        assert net.evict_flows(flows[:2]) == 0

    sim.process(driver())
    sim.run()
    assert net.evicted_flows == 2
    for victim, event in zip(victims, done[:2]):
        assert event.triggered and event.value is victim
        assert victim.remaining > 0
        assert victim.end_time == 1.0
    # Survivors completed normally; evicted flows made progress but their
    # bytes are not counted as completed.
    assert net.active_flows == 0
    assert all(0 < v.remaining < v.size for v in victims)
    assert float(net.completed_bytes) == pytest.approx(2 * 100.0)


def test_evict_flows_vector_batch_path(pin_arena):
    # >= 64 victims with the arena live exercises the keep-mask batch evict.
    pin_arena("always")
    sim = Simulator(seed=3)
    net = FlowNetwork(sim)
    link = net.add_link("l", 10.0)
    done = [net.transfer([link], 1000.0 + i) for i in range(150)]

    def driver():
        yield sim.timeout(0.5)
        victims = sorted(net.flows(), key=lambda f: f.fid)[:100]
        assert net.evict_flows(victims) == 100

    sim.process(driver())
    sim.run()
    assert net.evicted_flows == 100
    assert sum(1 for e in done if e.value.remaining > 0) == 100
    assert net.active_flows == 0
