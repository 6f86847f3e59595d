"""Scalar vs vectorized solver: bitwise equivalence.

The vectorized arena solver is only admissible because every one of its
floating-point operations reproduces the scalar water-filling kernel bit
for bit — the repo's golden digests hash event timestamps, so a 1-ulp
drift anywhere fails determinism checks.  These tests run identical
randomised workloads with the arena pinned out (``"never"``), pinned in
(``"always"``) and left to the production hysteresis (``"auto"``, which
switches representations mid-run around the ``_VEC_ON`` / ``_VEC_OFF``
thresholds) — see ``conftest.pin_arena`` — and require *exact* float
equality of every completion time.  Topologies include ``capacity_fn``
links, write-amplified paths (the same link repeated within one path), and
pathless rate-capped flows.
"""

import math
import random

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.network.flow import FlowNetwork
from repro.simulation import Simulator
from tests.network.conftest import PIN_PER_EXAMPLE


def _staircase(n_flows):
    """Deterministic capacity function: throughput degrades with load."""
    return 120.0 / (1.0 + 0.25 * n_flows)


def _run(seed, n_flows):
    """Run a seeded random workload; return the list of completion times.

    The topology mixes plain links, a ``capacity_fn`` link, and paths with
    a repeated link (write amplification: that flow consumes the link's
    bandwidth twice).  Flow count is pushed past ``_VEC_ON`` so ``"auto"``
    crosses into the arena and back out as the population drains.
    """
    rng = random.Random(seed)
    sim = Simulator()
    net = FlowNetwork(sim)
    links = [net.add_link(f"l{i}", 40.0 + 15.0 * i) for i in range(8)]
    links.append(net.add_link("fn", 150.0, capacity_fn=_staircase))
    done = []
    ends = [None] * n_flows

    def submit(slot, delay, path, size, rate_cap):
        yield sim.timeout(delay)
        flow = yield net.transfer(path, size, rate_cap=rate_cap)
        ends[slot] = flow.end_time

    for slot in range(n_flows):
        delay = rng.choice([0.0, 0.0, 0.25, 0.5, 1.0, 2.0])
        kind = rng.random()
        if kind < 0.08:
            # Pathless flow: progress bounded only by its rate cap.
            path, rate_cap = [], rng.choice([5.0, 20.0, 80.0])
        else:
            path = rng.sample(links, rng.randint(1, 4))
            if kind < 0.25:
                # Write amplification: one link appears twice in the path.
                path = path + [rng.choice(path)]
            rate_cap = rng.choice([math.inf, math.inf, 30.0, 90.0])
        size = rng.choice([64.0, 256.0, 1024.0, 4096.0])
        done.append(sim.process(submit(slot, delay, path, size, rate_cap)))
    sim.run(until=sim.all_of(done))
    assert net.active_flows == 0
    assert None not in ends
    return ends, net


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=15, deadline=None, suppress_health_check=PIN_PER_EXAMPLE)
def test_scalar_vector_auto_bitwise_identical(seed, pin_arena):
    pin_arena("never")
    scalar, net_s = _run(seed, 140)
    pin_arena("always")
    vector, net_v = _run(seed, 140)
    pin_arena("auto")
    auto, net_a = _run(seed, 140)
    assert scalar == vector  # exact: no tolerance
    assert scalar == auto
    assert net_s.solver_runs == net_v.solver_runs == net_a.solver_runs
    # The workload is wide enough that the pinned-in run solved with the
    # array kernel, and the pinned-out run never saw the arena.
    assert net_v.mode_switches >= 1 and net_v.vector_solves > 0
    assert net_s.mode_switches == 0 and net_s.vector_solves == 0


def test_auto_crosses_threshold_both_ways():
    """The equivalence above exercises a genuine mid-run mode round-trip."""
    _, net = _run(seed=7, n_flows=160)
    assert net.mode_switches >= 2  # entered and left the arena


def _expected_adjacency(net):
    """Co-traversal pair counts and bool matrix rebuilt from ``_groups``."""
    pairs = {}
    for group in net._groups.values():
        idxs = [link.idx for link in group.path]
        for i, a in enumerate(idxs):
            for b in idxs[i + 1:]:
                key = (a, b) if a <= b else (b, a)
                pairs[key] = pairs.get(key, 0) + 1
    adjb = np.zeros_like(net._adjb)
    for a, b in pairs:
        adjb[a, b] = adjb[b, a] = True
    return pairs, adjb


def _run_waves(waves=4, per_wave=130):
    """Population swings 0 -> 130 -> 0 per wave: several arena round trips.

    Paths are mostly distinct (so the arena's own kernels run, not just
    the scalar one on group rows), with a ``capacity_fn`` link, repeated
    links and path-less flows mixed in.  While the arena is live, the
    lazily-maintained adjacency is compared with a from-scratch rebuild
    after every flush — the first of which is the entry rebuild itself.
    """
    rng = random.Random(1234)
    sim = Simulator()
    net = FlowNetwork(sim)
    links = [net.add_link(f"l{i}", 40.0 + 15.0 * i) for i in range(10)]
    links.append(net.add_link("fn", 150.0, capacity_fn=_staircase))
    ends = []
    checked = [0]
    flush = net._flush_recompute

    def checked_flush():
        flush()
        if net._vector:
            pairs, adjb = _expected_adjacency(net)
            assert net._pairs == pairs
            assert np.array_equal(net._adjb, adjb)
            checked[0] += 1

    net._flush_recompute = checked_flush

    def driver():
        for _ in range(waves):
            done = []
            for _ in range(per_wave):
                if rng.random() < 0.05:
                    path, rate_cap = [], rng.choice([5.0, 20.0])
                else:
                    path = rng.sample(links, rng.randint(1, 4))
                    if rng.random() < 0.2:
                        path = path + [rng.choice(path)]
                    rate_cap = rng.choice([math.inf, 30.0, 90.0])
                size = rng.choice([64.0, 256.0, 1024.0, 4096.0])
                done.append(net.transfer(path, size, rate_cap=rate_cap))
            result = yield sim.all_of(done)
            ends.extend(event.value.end_time for event in result.events)
            yield sim.timeout(0.5)

    sim.run(until=sim.process(driver()))
    assert net.active_flows == 0
    return ends, net, checked[0]


def test_repeated_mode_round_trips_stay_identical_and_rebuild_adjacency(pin_arena):
    pin_arena("never")
    scalar, net_s, _ = _run_waves()
    pin_arena("always")
    vector, net_v, checked_v = _run_waves()
    pin_arena("auto")
    auto, net_a, checked_a = _run_waves()
    assert scalar == vector == auto  # exact: no tolerance
    assert net_s.solver_runs == net_v.solver_runs == net_a.solver_runs
    assert net_s.mode_switches == 0 and not net_s._pairs
    assert net_a.mode_switches >= 8  # in and out of the arena every wave
    assert net_a.vector_solves > 0
    assert checked_a > 0 and checked_v > checked_a
