"""Hierarchical flow aggregation: bitwise equivalence with the flat solver.

Aggregation coalesces flows sharing an identical (path, rate_cap) into one
solver row and splits the aggregate rate exactly across members.  It is only
admissible because the split is *exact*: same-group flows have bitwise-equal
per-round bounds in the flat water-filling pass, so fixing the group once at
that bound reproduces the flat result bit for bit.  These tests run seeded
random workloads — shared and distinct paths, ``capacity_fn`` links,
write-amplified paths, path-less rate-capped flows, and staggered arrivals
that join/leave groups mid-flight — through the three surviving kernels
(scalar, which always works on groups; vector flat, ``aggregate=False``;
vector grouped) and require exact float equality of every completion time.
The flat per-flow arithmetic itself lives on in the vector flat kernel and
in the reference pass of ``test_flow_reference.py``.
"""

import itertools
import math
import random

from hypothesis import given, settings, strategies as st

from repro.network.flow import FlowNetwork
from repro.simulation import Simulator


def _staircase(n_flows):
    """Deterministic capacity function: throughput degrades with load."""
    return 140.0 / (1.0 + 0.2 * n_flows)


def _run(seed, n_flows, solver, aggregate):
    """Seeded workload biased towards shared paths; returns completion times.

    Most flows draw from a small set of *shared* path templates (the NWP
    ensemble-writer pattern aggregation exists for), a minority get unique
    random paths, and arrivals are staggered so flows join groups that are
    already mid-solve and leave them while siblings continue.
    """
    rng = random.Random(seed)
    sim = Simulator()
    net = FlowNetwork(sim, solver=solver, aggregate=aggregate)
    links = [net.add_link(f"l{i}", 35.0 + 12.0 * i) for i in range(7)]
    links.append(net.add_link("fn", 150.0, capacity_fn=_staircase))
    # Path templates shared by many flows — includes a write-amplified one
    # (same link twice) and one through the capacity_fn link.
    shared = [
        [links[0], links[2], links[5]],
        [links[1], links[3]],
        [links[4], links[6], links[6]],
        [links[7], links[0]],
    ]
    done = []
    ends = [None] * n_flows

    def submit(slot, delay, path, size, rate_cap):
        yield sim.timeout(delay)
        flow = yield net.transfer(path, size, rate_cap=rate_cap)
        ends[slot] = flow.end_time

    for slot in range(n_flows):
        delay = rng.choice([0.0, 0.0, 0.0, 0.3, 0.7, 1.5, 4.0])
        kind = rng.random()
        if kind < 0.07:
            # Path-less flow: progress bounded only by its rate cap.
            path, rate_cap = [], rng.choice([4.0, 15.0, 60.0])
        elif kind < 0.75:
            # The aggregation-friendly majority: a shared template with a
            # rate cap drawn from a small set, so groups accrete members.
            path = rng.choice(shared)
            rate_cap = rng.choice([math.inf, math.inf, 25.0])
        else:
            path = rng.sample(links, rng.randint(1, 4))
            rate_cap = rng.choice([math.inf, 40.0, 90.0])
        size = rng.choice([48.0, 192.0, 768.0, 3072.0])
        done.append(sim.process(submit(slot, delay, path, size, rate_cap)))
    sim.run(until=sim.all_of(done))
    assert net.active_flows == 0
    assert net.active_groups == 0
    assert None not in ends
    return ends, net


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=12, deadline=None)
def test_aggregated_vs_flat_bitwise_identical(seed):
    flat, _ = _run(seed, 150, solver="auto", aggregate=False)
    grouped, _ = _run(seed, 150, solver="auto", aggregate=True)
    assert flat == grouped  # exact: no tolerance


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=8, deadline=None)
def test_aggregated_vs_flat_scalar_solver(seed):
    """Few solver rows: the scalar kernel serves every configuration.

    Pinned to the arena it reads and writes group rows instead of member
    flows, so ``aggregate`` must be invisible there too.
    """
    scalar, _ = _run(seed, 60, solver="scalar", aggregate=True)
    flat, net_f = _run(seed, 60, solver="vector", aggregate=False)
    grouped, net_g = _run(seed, 60, solver="vector", aggregate=True)
    assert scalar == flat == grouped
    for net in (net_f, net_g):
        assert net.mode_switches >= 1  # the arena held the flows...
        assert net.vector_solves < net.solver_runs  # ...the scalar kernel solved


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=8, deadline=None)
def test_aggregated_vector_vs_flat_scalar(seed):
    """Cross-mode: both arena kernels == the pure-Python solve."""
    scalar, net_s = _run(seed, 150, solver="scalar", aggregate=False)
    flat, net_f = _run(seed, 150, solver="vector", aggregate=False)
    grouped, net_g = _run(seed, 150, solver="vector", aggregate=True)
    assert scalar == flat == grouped
    assert net_s.vector_solves == 0
    assert net_f.mode_switches >= 1 and net_g.mode_switches >= 1


def test_each_arena_kernel_runs_and_agrees_with_scalar():
    """60 paths x 3 members: enough rows for the arena's own kernels.

    ``aggregate=True`` must take the grouped kernel (groups coalesce 3:1),
    ``aggregate=False`` the per-flow one, and both must reproduce the
    scalar kernel's completion times bit for bit.
    """

    def run(solver, aggregate):
        sim = Simulator()
        net = FlowNetwork(sim, solver=solver, aggregate=aggregate)
        links = [net.add_link(f"l{i}", 30.0 + 7.0 * i) for i in range(12)]
        links.append(net.add_link("fn", 150.0, capacity_fn=_staircase))
        ran = {"_solve_vector": 0, "_solve_vector_grouped": 0}
        for name in ran:
            def spy(scope, _kernel=getattr(net, name), _name=name):
                ran[_name] += 1
                _kernel(scope)
            setattr(net, name, spy)
        done = []

        def submit(delay, path, size):
            yield sim.timeout(delay)
            flow = yield net.transfer(path, size)
            return flow.end_time

        pairs = list(itertools.combinations(range(13), 2))[:60]
        for index, (a, b) in enumerate(pairs):
            path = [links[a], links[b], links[a]] if index % 5 == 0 else [links[a], links[b]]
            for member in range(3):
                size = 40.0 + 3.0 * index + 11.0 * member
                done.append(sim.process(submit(0.25 * (member % 2), path, size)))
        sim.run(until=sim.all_of(done))
        return [process.value for process in done], ran

    scalar, ran_s = run("scalar", True)
    flat, ran_f = run("vector", False)
    grouped, ran_g = run("vector", True)
    assert scalar == flat == grouped
    assert ran_s == {"_solve_vector": 0, "_solve_vector_grouped": 0}
    assert ran_f["_solve_vector"] > 0 and ran_f["_solve_vector_grouped"] == 0
    assert ran_g["_solve_vector_grouped"] > 0


def test_groups_collapse_shared_paths():
    """A synchronised wave on few paths costs few solver rows."""
    sim = Simulator()
    net = FlowNetwork(sim)
    a = net.add_link("a", 100.0)
    b = net.add_link("b", 80.0)
    c = net.add_link("c", 60.0)
    peak = [0, 0]
    done = []
    for i in range(300):
        path = [a, b] if i % 2 == 0 else [b, c]
        done.append(net.transfer(path, 64.0 + (i % 5)))
    peak[0], peak[1] = net.active_flows, net.active_groups
    sim.run(until=sim.all_of(done))
    assert peak[0] == 300
    assert peak[1] == 2  # two distinct (path, cap) groups
    assert net.active_groups == 0


def test_rate_cap_splits_groups():
    """Same path, different caps: distinct groups (caps bound rounds)."""
    sim = Simulator()
    net = FlowNetwork(sim)
    a = net.add_link("a", 100.0)
    done = [
        net.transfer([a], 50.0, rate_cap=cap)
        for cap in (math.inf, 10.0, 10.0, 25.0)
    ]
    assert net.active_groups == 3
    sim.run(until=sim.all_of(done))


def test_pathless_flows_stay_singleton_groups():
    """Path-less flows never share a group even with identical caps.

    They are isolated components; sharing a group could let two of them be
    solved in different scopes against one shared row.
    """
    sim = Simulator()
    net = FlowNetwork(sim)
    done = [net.transfer([], 40.0, rate_cap=8.0) for _ in range(5)]
    assert net.active_groups == 5
    sim.run(until=sim.all_of(done))
    ends = {e.value.end_time for e in done}
    assert ends == {5.0}  # 40 bytes at the 8 B/s cap each


def test_mid_flight_join_and_leave_exact():
    """A flow joining a live group mid-transfer stays bit-identical."""

    def run(aggregate):
        sim = Simulator()
        net = FlowNetwork(sim, aggregate=aggregate)
        a = net.add_link("a", 30.0)
        b = net.add_link("b", 45.0)
        ends = []

        def late(delay, size):
            yield sim.timeout(delay)
            flow = yield net.transfer([a, b], size)
            ends.append(flow.end_time)

        procs = [sim.process(late(0.0, 90.0)), sim.process(late(0.0, 150.0))]
        procs.append(sim.process(late(2.5, 60.0)))  # joins mid-flight
        procs.append(sim.process(late(6.0, 30.0)))  # joins after a leave
        sim.run(until=sim.all_of(procs))
        return ends

    assert run(True) == run(False)


def test_env_hatch_forces_flat(monkeypatch):
    monkeypatch.setenv("REPRO_FLAT_SOLVER", "1")
    sim = Simulator()
    net = FlowNetwork(sim)
    assert net.aggregate is False


def test_env_hatch_zero_is_off(monkeypatch):
    monkeypatch.setenv("REPRO_FLAT_SOLVER", "0")
    sim = Simulator()
    net = FlowNetwork(sim)
    assert net.aggregate is True
