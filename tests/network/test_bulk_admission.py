"""Mixed synchronised waves: one outcome on every solver path.

A mixed workload (shared paths, distinct rate caps, zero-byte flows,
path-less capped flows, overlapping waves mid-flight) driven through
``transfer`` must give the same hex-exact outcome whichever kernel solves
and wherever the hot state lives (arena pinned out, pinned in or left to
the production one-way switch; see ``conftest.pin_arena``).
"""

import math

from repro.network.flow import FlowNetwork
from repro.simulation import Simulator
from tests.network.conftest import ARENAS, LOW_SOLVE_MIN

INF = math.inf


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


def _run(n_per_wave=120):
    sim = Simulator(seed=5)
    net = FlowNetwork(sim)
    a = [net.add_link(f"a{i}", 50.0 + i) for i in range(4)]
    b = [net.add_link(f"b{i}", 80.0) for i in range(2)]
    flows = []

    def wave(index, delay):
        # Waves overlap: each lands while the previous is mid-flight, so
        # admission must replay the partial-progress debit exactly.
        yield sim.timeout(delay)
        wave_events = [
            net.transfer(path, size, rate_cap=cap, name=f"w{index}")
            for path, size, cap in _specs((a, b), index, n_per_wave)
        ]
        result = yield sim.all_of(wave_events)
        for event in result.events:
            flows.append(event.value)

    for i in range(3):
        sim.process(wave(i, i * 0.37))
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
    )


def test_bulk_admission_identical_across_solver_paths(pin_arena):
    """Every arena mode, with the default threshold (the scalar kernel
    solves, on flow state or on arena group rows) and a low one (the array
    kernel does)."""
    signatures = set()
    for arena in ARENAS:
        for solve_min in (None, LOW_SOLVE_MIN):
            pin_arena(arena, solve_min)
            signatures.add(_run())
    assert len(signatures) == 1
