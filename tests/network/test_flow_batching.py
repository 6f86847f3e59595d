"""Same-instant batching vs change-by-change solving.

The flow network coalesces every flow-set change at one simulated timestamp
into a single end-of-instant solve (see ``Simulator.request_flush``).  The
zero-duration intermediate rate states a change-by-change solver would pass
through are unobservable, so batching must not move any completion time by
even one ulp.  These tests pin that property: an *eager* network — patched
to solve immediately after every arrival and departure — produces bitwise
identical per-flow completion times on randomised schedules, including
schedules engineered so arrivals and departures share an instant.
"""

import types

import pytest
from hypothesis import given, settings, strategies as st

from repro.network.flow import FlowNetwork
from repro.simulation import Simulator
from tests.network.conftest import LOW_SOLVE_MIN, PIN_PER_EXAMPLE


def _eager_recompute(self):
    """Change-by-change reference: solve now instead of at end of instant.

    A wake-up due at this very instant fires first, as it does before the
    batched end-of-instant solve: its flows are done, and re-projecting
    them from a same-instant arrival would push their completion one ulp
    past the wake-up.
    """
    if self._wake is not None and self._wake_due == self.sim.now:
        self._on_wake(self._wake)
    self._flush_recompute()


def _arm_noting_due(self):
    """Arm the wake-up as usual and note the instant it is due.

    A bare wake carries no delay, so the instant is the one its arming
    computed: ``now`` plus the delay handed to ``sim._schedule``.
    """
    schedule = self.sim._schedule

    def noting(delay, entry):
        self._wake_due = self.sim.now + delay
        schedule(delay, entry)

    self.sim._schedule = noting
    try:
        FlowNetwork._refresh_deadlines_and_arm(self)
    finally:
        del self.sim._schedule


def _run_schedule(schedule, eager):
    """Run ``schedule`` and return {flow name: completion time}.

    ``schedule`` is a list of ``(delay, path_indices, size, rate_cap)``
    tuples; flows arrive via processes so same-delay entries land on one
    simulated instant.
    """
    sim = Simulator()
    net = FlowNetwork(sim)
    if eager:
        net._schedule_recompute = types.MethodType(_eager_recompute, net)
        net._refresh_deadlines_and_arm = types.MethodType(_arm_noting_due, net)
    links = [net.add_link(f"l{i}", 25.0 * (i + 1)) for i in range(4)]
    completions = {}

    def submit(name, delay, path, size, rate_cap):
        yield sim.timeout(delay)
        flow = yield net.transfer(path, size, rate_cap=rate_cap, name=name)
        completions[name] = flow.end_time

    procs = []
    for i, (delay, path_idx, size, rate_cap) in enumerate(schedule):
        path = [links[j] for j in path_idx]
        procs.append(
            sim.process(submit(f"f{i}", delay, path, size, rate_cap))
        )
    sim.run(until=sim.all_of(procs))
    assert net.active_flows == 0
    return completions, net


# Delays on a coarse grid make simultaneous arrivals the norm, and sizes in
# multiples of 25 over 25/50/75/100 B/s links make completions land on the
# same grid — so arrival instants frequently coincide with departures.
_schedules = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]),
        st.lists(st.integers(min_value=0, max_value=3), min_size=0, max_size=3),
        st.sampled_from([25.0, 50.0, 75.0, 100.0, 250.0]),
        st.sampled_from([float("inf"), 10.0, 40.0]),
    ).filter(lambda t: t[1] or t[3] != float("inf")),
    min_size=1,
    max_size=24,
)


@given(schedule=_schedules)
@settings(max_examples=40, deadline=None, suppress_health_check=PIN_PER_EXAMPLE)
def test_batched_solve_matches_change_by_change(schedule, pin_arena):
    """On the arena, with the array kernel taking every multi-group solve."""
    pin_arena("always", solve_min=LOW_SOLVE_MIN)
    batched, net_b = _run_schedule(schedule, eager=False)
    eager, net_e = _run_schedule(schedule, eager=True)
    assert batched == eager  # bitwise: dict of exact floats
    # The eager run solves at least once per change; the batched run never
    # solves more often than that.
    assert net_b.solver_runs <= net_e.solver_runs
    assert net_b.mode_switches == net_e.mode_switches == 1


@given(schedule=_schedules)
@settings(max_examples=20, deadline=None, suppress_health_check=PIN_PER_EXAMPLE)
def test_batched_solve_matches_change_by_change_scalar(schedule, pin_arena):
    pin_arena("never")
    batched, net_b = _run_schedule(schedule, eager=False)
    eager, net_e = _run_schedule(schedule, eager=True)
    assert batched == eager
    assert net_b.vector_solves == net_e.vector_solves == 0


def test_synchronised_wave_solves_once_per_instant():
    """A barrier-style wave of N same-instant arrivals costs one solve."""
    sim = Simulator()
    net = FlowNetwork(sim)
    link = net.add_link("fabric", 100.0)
    done = [net.transfer([link], 100.0, name=f"w{i}") for i in range(50)]
    sim.run(until=sim.all_of(done))
    # 50 arrivals + 50 departures, but the arrivals share one instant (one
    # solve) and the equal-share completions empty the network (no solve
    # needed): one solve total.
    assert net.flow_changes == 100
    assert net.solver_runs == 1


def test_same_instant_arrival_and_departure_coalesce():
    """A departure whose instant also admits a new flow solves once."""
    sim = Simulator()
    net = FlowNetwork(sim)
    link = net.add_link("l", 100.0)

    def replacer():
        # Arrives exactly when the first flow completes (t=1.0).
        yield sim.timeout(1.0)
        yield net.transfer([link], 100.0, name="replacement")

    first = net.transfer([link], 100.0, name="first")
    proc = sim.process(replacer())
    sim.run(until=sim.all_of([first, proc]))
    # Instants: t=0 arrival (one solve); t=1 departure + replacement
    # arrival (one coalesced solve); t=2 final departure empties the
    # network (no solve).
    assert net.solver_runs == 2
    assert sim.now == pytest.approx(2.0)
