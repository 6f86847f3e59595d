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

from hypothesis import given, settings, strategies as st

from repro.network import flow as flow_module
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


def _component_rows(net, dirty, dirty_flows):
    """Arena rows of the seeds' components, by union-find from scratch.

    Built from nothing but the live flows' paths: a flow is joined to every
    link it crosses, and the scope is every live flow sharing a root with a
    dirty link or a live dirty flow (a path-less flow is its own root).
    """
    parent = {}

    def find(node):
        parent.setdefault(node, node)
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    rows = {}
    for flow in net._active:
        assert flow.pos >= 0  # every live flow holds an arena column
        rows[flow.pos] = flow
        for link in flow.path:
            parent[find(("flow", flow.pos))] = find(("link", link.idx))
    roots = {find(("link", link.idx)) for link in dirty}
    roots |= {find(("flow", flow.pos)) for flow in dirty_flows if flow.pos >= 0}
    assert sorted(rows) == list(range(net._n_live))
    return [pos for pos in sorted(rows) if find(("flow", pos)) in roots]


def _check_scopes(net):
    """Check every vector scope of ``net`` against :func:`_component_rows`.

    ``None`` must mean every live flow, an array exactly the component's
    rows (empty when no live flow is reachable).  Returns the live tally
    of scope shapes seen.
    """
    shapes = {"full": 0, "partial": 0, "empty": 0}
    scope_vector = net._scope_vector

    def checked_scope(dirty, dirty_flows):
        expected = _component_rows(net, dirty, dirty_flows)
        scope = scope_vector(dirty, dirty_flows)
        if scope is None:
            assert expected == list(range(net._n_live))
            shapes["full"] += 1
        else:
            assert scope.tolist() == expected
            shapes["partial" if expected else "empty"] += 1
        return scope

    net._scope_vector = checked_scope
    return shapes


def _run_waves(waves=4, per_wave=130):
    """Population swings 0 -> 130 -> 0 per wave: several arena round trips.

    Paths are mostly distinct (so the arena's own kernels run, not just
    the scalar one on group rows), with a ``capacity_fn`` link, repeated
    links and path-less flows mixed in.  Every vector scope is checked
    against a from-scratch component (:func:`_check_scopes`).
    """
    rng = random.Random(1234)
    sim = Simulator()
    net = FlowNetwork(sim)
    links = [net.add_link(f"l{i}", 40.0 + 15.0 * i) for i in range(10)]
    links.append(net.add_link("fn", 150.0, capacity_fn=_staircase))
    ends = []
    shapes = _check_scopes(net)

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
    return ends, net, shapes


def test_repeated_mode_round_trips_stay_identical_and_scope_components(pin_arena):
    pin_arena("never")
    scalar, net_s, shapes_s = _run_waves()
    pin_arena("always")
    vector, net_v, shapes_v = _run_waves()
    pin_arena("auto")
    auto, net_a, shapes_a = _run_waves()
    assert scalar == vector == auto  # exact: no tolerance
    assert net_s.solver_runs == net_v.solver_runs == net_a.solver_runs
    assert net_s.mode_switches == 0 and not any(shapes_s.values())
    assert net_a.mode_switches >= 8  # in and out of the arena every wave
    assert net_a.vector_solves > 0
    # Both arenas scoped full and partial components (empty ones are
    # pinned by test_drained_component_scopes_to_no_flow).
    for shapes in (shapes_v, shapes_a):
        assert shapes["full"] and shapes["partial"], shapes


def _two_components(lone_bytes=None):
    """50 live groups over two disjoint links, past ``_VEC_ON`` flows.

    ``busy`` carries 30 groups of 3 flows, ``quiet`` 20 groups of one;
    distinct caps (all far above the fair share) make distinct groups.
    ``lone_bytes`` adds one short flow on a third, private link.
    """
    sim = Simulator()
    net = FlowNetwork(sim)
    busy = net.add_link("busy", 100.0)
    quiet = net.add_link("quiet", 100.0)
    specs = [((busy,), 1e6, 1e3 + g) for g in range(30) for _ in range(3)]
    specs += [((quiet,), 1e6, 1e3 + g) for g in range(20)]
    if lone_bytes is not None:
        specs.append(((net.add_link("lone", 100.0),), lone_bytes))
    return sim, net, busy, specs


def test_small_group_scope_with_many_flows_runs_array_kernel():
    """The kernel rule is ``min(live groups, flows in scope)``.

    Perturbing only ``busy`` scopes its 30 groups — fewer than
    ``_VEC_SOLVE_MIN`` — but 91 flows, more than it, out of 50 live groups;
    that partial scope is solved by the array kernel.
    """
    sim, net, busy, specs = _two_components()
    shapes = _check_scopes(net)

    def driver():
        for spec in specs:
            net.transfer(*spec)
        yield sim.timeout(1.0)
        before = net.vector_solves
        net.transfer((busy,), 1e6, rate_cap=1e3)
        yield sim.timeout(1.0)
        assert net.vector_solves == before + 1

    sim.run(until=sim.process(driver()))
    assert net._vector and net.active_groups == 50 >= flow_module._VEC_SOLVE_MIN
    assert net.active_flows == 111
    assert shapes == {"full": 1, "partial": 1, "empty": 0}
    assert len(busy.groups) == 30 < flow_module._VEC_SOLVE_MIN < busy.n_flows


def test_drained_component_scopes_to_no_flow():
    """A completion that empties its whole component scopes no live flow."""
    sim, net, _, specs = _two_components(lone_bytes=1.0)
    shapes = _check_scopes(net)

    def driver():
        yield [net.transfer(*spec) for spec in specs][-1]
        yield sim.timeout(1.0)

    sim.run(until=sim.process(driver()))
    assert net._vector and net.active_flows == 110
    assert shapes == {"full": 1, "partial": 0, "empty": 1}
