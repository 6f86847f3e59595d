"""Flow groups: structure, and exactness on both representations.

Flows sharing an identical (path, rate_cap) form one ``FlowGroup``: one row
to the scalar kernel, one rate fanned out to the members; the array kernel
solves the same flows one column each.  Either is only admissible because it
is *exact* — same-group flows have bitwise-equal per-round bounds in the
textbook per-flow pass — so these tests hold every flush to the independent
water-filling of ``test_flow_reference.py``, with the arena pinned out and
pinned in (``conftest.pin_arena``), on the shapes grouping has to get right:
shared paths, rate-cap splits, path-less singletons, members joining and
leaving mid-flight, write-amplified paths, and wide populations (many
groups, coalescing or not) that only the array kernel serves.
"""

import itertools
import math

from repro.network.flow import FlowNetwork
from repro.simulation import Simulator
from tests.network.test_flow_reference import check_after_every_flush


def _staircase(n_flows):
    """Deterministic capacity function: throughput degrades with load."""
    return 140.0 / (1.0 + 0.2 * n_flows)


def _wide(members):
    """45 distinct two-link paths x ``members`` flows each, staggered.

    Returns (completion times, network).  Every flow has its own size, so
    the population drains one completion — one solve — at a time.
    """
    sim = Simulator()
    net = FlowNetwork(sim)
    links = [net.add_link(f"l{i}", 30.0 + 7.0 * i) for i in range(12)]
    links.append(net.add_link("fn", 150.0, capacity_fn=_staircase))
    flushes = check_after_every_flush(net)
    done = []

    def submit(delay, path, size):
        yield sim.timeout(delay)
        flow = yield net.transfer(path, size)
        return flow.end_time

    pairs = list(itertools.combinations(range(13), 2))[:45]
    for index, (a, b) in enumerate(pairs):
        path = [links[a], links[b], links[a]] if index % 5 == 0 else [links[a], links[b]]
        for member in range(members):
            size = 40.0 + 3.0 * index + 11.0 * member
            done.append(sim.process(submit(0.25 * (member % 2), path, size)))
    sim.run(until=sim.all_of(done))
    assert flushes and net.active_flows == 0
    return [process.value for process in done], net


def test_wide_populations_take_the_vector_kernel_and_match_reference(pin_arena):
    """>= 40 groups in scope, near-singleton or 3:1 coalesced: ``_solve_vector``.

    One array kernel serves both (a grouped one used to own the second), at
    the production ``_VEC_SOLVE_MIN``; every flush equals the oracle and
    the completion times equal the scalar kernel's bit for bit.
    """
    for members in (1, 3):
        pin_arena("always")
        ends, net = _wide(members)
        assert net.vector_solves > 0
        pin_arena("never")
        scalar_ends, scalar_net = _wide(members)
        assert scalar_net.vector_solves == 0 and scalar_net.mode_switches == 0
        assert ends == scalar_ends  # exact: no tolerance
        assert net.solver_runs == scalar_net.solver_runs


def _on_both_representations(pin_arena, scenario):
    """Run ``scenario(sim, net)`` with the arena pinned out, then pinned in.

    Every flush of either run is held to the reference oracle, and the two
    runs must return the same value exactly; that value is returned.
    """
    results = []
    for arena in ("never", "always"):
        pin_arena(arena)
        sim = Simulator()
        net = FlowNetwork(sim)
        flushes = check_after_every_flush(net)
        results.append(scenario(sim, net))
        assert flushes and net.active_flows == 0 and net.active_groups == 0
        assert net.mode_switches == (arena == "always")
    assert results[0] == results[1]  # exact: no tolerance
    return results[0]


def test_groups_collapse_shared_paths(pin_arena):
    """A synchronised wave on few paths costs few solver rows."""

    def scenario(sim, net):
        a = net.add_link("a", 100.0)
        b = net.add_link("b", 80.0)
        c = net.add_link("c", 60.0)
        done = []
        for i in range(300):
            path = [a, b] if i % 2 == 0 else [b, c]
            done.append(net.transfer(path, 64.0 + (i % 5)))
        assert net.active_flows == 300
        assert net.active_groups == 2  # two distinct (path, cap) groups
        sim.run()
        return [event.value.end_time for event in done]

    _on_both_representations(pin_arena, scenario)


def test_rate_cap_splits_groups(pin_arena):
    """Same path, different caps: distinct groups (caps bound rounds)."""

    def scenario(sim, net):
        a = net.add_link("a", 100.0)
        done = [
            net.transfer([a], 50.0, rate_cap=cap)
            for cap in (math.inf, 10.0, 10.0, 25.0)
        ]
        assert net.active_groups == 3
        sim.run()
        return [event.value.end_time for event in done]

    _on_both_representations(pin_arena, scenario)


def test_pathless_flows_stay_singleton_groups(pin_arena):
    """Path-less flows never share a group even with identical caps.

    They are isolated components; sharing a group could let two of them be
    solved in different scopes against one shared row.
    """

    def scenario(sim, net):
        done = [net.transfer([], 40.0, rate_cap=8.0) for _ in range(5)]
        assert net.active_groups == 5
        sim.run()
        return {event.value.end_time for event in done}

    ends = _on_both_representations(pin_arena, scenario)
    assert ends == {5.0}  # 40 bytes at the 8 B/s cap each


def test_mid_flight_join_and_leave_exact(pin_arena):
    """Flows joining a live group mid-transfer, and after a member left."""

    def scenario(sim, net):
        a = net.add_link("a", 30.0)
        b = net.add_link("b", 45.0)
        ends = []
        peak = [0]

        def late(delay, size):
            yield sim.timeout(delay)
            done = net.transfer([a, b], size)
            peak[0] = max(peak[0], net.active_groups)
            flow = yield done
            ends.append(flow.end_time)

        sim.process(late(0.0, 90.0))
        sim.process(late(0.0, 150.0))
        sim.process(late(2.5, 60.0))  # joins mid-flight
        sim.process(late(6.0, 30.0))  # joins after a leave
        sim.run()
        assert peak[0] == 1 and len(ends) == 4
        return ends

    _on_both_representations(pin_arena, scenario)


def test_write_amplified_group_debits_per_member_and_occurrence(pin_arena):
    """A group crossing a link twice charges it 2 x members per round.

    ``twice`` (4 members, ``media`` listed twice) fixes first on its narrow
    private link while ``once`` still shares ``media``, which must then
    take eight debit steps, not four and not one.
    """

    def scenario(sim, net):
        media = net.add_link("media", 90.0)
        narrow = net.add_link("narrow", 20.0)
        done = [net.transfer([narrow, media, media], 30.0 + i) for i in range(4)]
        done += [net.transfer([media], 400.0 + i) for i in range(2)]
        assert net.active_groups == 2
        assert media.n_occ == 10 and media.n_flows == 6
        sim.run()
        return [event.value.end_time for event in done]

    _on_both_representations(pin_arena, scenario)
