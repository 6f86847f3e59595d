"""Incremental rate computation vs the reference water-filling algorithm.

The :class:`~repro.network.flow.FlowNetwork` kernel recomputes max-min fair
rates *incrementally* — scoped to the connected component of links perturbed
by an arrival or departure — and tracks completions in a lazily-invalidated
heap.  These tests pin the kernel to the textbook algorithm:

* ``reference_rates`` below is a deliberately naive full progressive-filling
  pass over *all* active flows.  At any quiescent instant the kernel's rates
  must equal it **bit for bit** (``==``, not approx): within a component the
  incremental pass performs the exact same float operations in the same
  order as a full pass restricted to that component.
* The classic max-min invariants must hold: no link over capacity, no flow
  above its cap, and every flow below its cap bottlenecked on a saturated
  link of its path.

Scenario floats are derived from small integers so distinct water-filling
bounds differ by far more than the kernel's 1e-12 tie threshold; exact ties
remain common (and are exercised), which is the regime the simulation
actually runs in.
"""

import math

from hypothesis import example, given, settings, strategies as st

from repro.network.flow import FlowNetwork
from repro.simulation import Simulator
from tests.network.conftest import LOW_SOLVE_MIN, PIN_PER_EXAMPLE

_INF = math.inf


def _link_components(flows):
    """Partition flows into link-connected components, preserving order.

    A path-less (rate-cap-only) flow shares no link with anything, so it is
    its own singleton component — exactly how the kernel scopes it.
    """
    parent = {}

    def find(link):
        root = link
        while parent[root] is not root:
            root = parent[root]
        while parent[link] is not root:
            parent[link], link = root, parent[link]
        return root

    for flow in flows:
        first = None
        for link in flow.path:
            parent.setdefault(link, link)
            if first is None:
                first = find(link)
            else:
                parent[find(link)] = first
    components = {}
    for index, flow in enumerate(flows):
        key = find(flow.path[0]) if flow.path else ("pathless", index)
        components.setdefault(key, []).append(flow)
    return list(components.values())


def reference_rates(flows):
    """Progressive filling (the textbook reference), per component.

    Independent reimplementation: per-round fair share per link, every flow
    bounded by its cap and its links' shares, flows at the round minimum
    fixed, capacities debited.  Mirrors the kernel's tie threshold and
    capacity clamp so results are comparable bit for bit.

    Filling runs once per link-connected component, matching the kernel's
    scoping contract.  A single global pass would be identical *except*
    that its tie threshold could couple bounds across unrelated components
    that drift within a ULP of each other (a path-less flow capped at 3
    vs. a share that debited down to 2.9999999999999996) — a coupling the
    kernel, which solves components independently, never performs.
    """
    rates = {}
    for component in _link_components(flows):
        rates.update(_fill_component(component))
    return rates


def _fill_component(flows):
    cap_left = {}
    n_unfixed = {}
    for flow in flows:
        for link in flow.path:
            if link not in cap_left:
                cap_left[link] = link.effective_capacity(len(link.flows))
                n_unfixed[link] = 0
            n_unfixed[link] += 1

    rates = {}
    unfixed = list(flows)
    while unfixed:
        share = {
            link: cap_left[link] / n
            for link, n in n_unfixed.items()
            if n > 0
        }
        minimum = _INF
        bounds = {}
        for flow in unfixed:
            bound = flow.rate_cap
            for link in flow.path:
                if share[link] < bound:
                    bound = share[link]
            bounds[flow] = bound
            if bound < minimum:
                minimum = bound
        assert minimum < _INF, "unbounded flow (no cap, empty path)"
        threshold = minimum * (1.0 + 1e-12)
        still_unfixed = []
        for flow in unfixed:
            if bounds[flow] <= threshold:
                rates[flow] = minimum
                for link in flow.path:
                    cap_left[link] = max(cap_left[link] - minimum, 0.0)
                    n_unfixed[link] -= 1
            else:
                still_unfixed.append(flow)
        unfixed = still_unfixed
    return rates


def assert_maxmin_invariants(net):
    """No over-capacity link, no over-cap flow, every flow bottlenecked."""
    for link in net.links.values():
        consumed = sum(f.rate * mult for f, mult in link.flows.items())
        assert consumed <= link.effective_capacity() * (1.0 + 1e-9), link
    for flow in net._active:
        assert flow.rate <= flow.rate_cap * (1.0 + 1e-12), flow
        if flow.rate < flow.rate_cap * (1.0 - 1e-9):
            # Below its cap: some link on its path must be saturated.
            saturated = False
            for link in flow.path:
                consumed = sum(f.rate * m for f, m in link.flows.items())
                if consumed >= link.effective_capacity() * (1.0 - 1e-9):
                    saturated = True
                    break
            assert saturated, f"{flow!r} below cap but no saturated link"


def assert_matches_reference(net):
    """Kernel rates must equal the full reference pass exactly."""
    expected = reference_rates(list(net._active))
    for flow in net._active:
        assert flow.rate == expected[flow], (
            f"{flow!r}: incremental rate {flow.rate!r} != "
            f"reference {expected[flow]!r}"
        )


def _check(net, checks):
    # Skip instants where a coalesced recompute is still queued: rates are
    # deliberately stale until the same-instant batch is processed.
    if not net._recompute_pending:
        assert_matches_reference(net)
        assert_maxmin_invariants(net)
        checks.append(net.sim.now)


@st.composite
def scenarios(draw):
    n_links = draw(st.integers(min_value=2, max_value=6))
    capacities = draw(
        st.lists(
            st.integers(min_value=1, max_value=50),
            min_size=n_links,
            max_size=n_links,
        )
    )
    n_flows = draw(st.integers(min_value=1, max_value=12))
    flows = []
    for _ in range(n_flows):
        path = draw(
            st.lists(
                st.integers(min_value=0, max_value=n_links - 1),
                min_size=0,
                max_size=4,
            )
        )
        cap = draw(st.sampled_from([None, 1, 2, 5, 17]))
        if not path and cap is None:
            cap = 3  # an empty path needs a finite cap
        size = draw(st.integers(min_value=1, max_value=200))
        arrival = draw(st.integers(min_value=0, max_value=8))
        flows.append((path, size, cap, arrival))
    probes = draw(
        st.lists(
            st.integers(min_value=1, max_value=40), min_size=1, max_size=6
        )
    )
    return capacities, flows, probes


@given(scenario=scenarios())
@settings(max_examples=60, deadline=None)
@example(
    # Regression: the path-less cap-3 flow is a singleton component the
    # kernel pins at exactly 3.0, while a *global* reference pass collapsed
    # it (via the 1e-12 tie threshold) onto another component's bound that
    # had debited down to 2.9999999999999996.
    scenario=(
        [8, 1, 3],
        [([], 1, 3, 0),
         ([1], 1, None, 0),
         ([0, 0, 1], 1, None, 0),
         ([1], 1, None, 0),
         ([0, 2, 2], 1, None, 0),
         ([1], 1, None, 0),
         ([0, 0], 1, None, 0),
         ([0, 1], 1, None, 1),
         ([1], 1, None, 0)],
        [3],
    ),
)
def test_incremental_matches_reference(scenario):
    """Staggered multi-component traffic: kernel == reference at probes."""
    capacities, flow_specs, probes = scenario
    sim = Simulator()
    net = FlowNetwork(sim)
    links = [net.add_link(f"l{i}", float(c)) for i, c in enumerate(capacities)]
    checks = []

    def submit(path, size, cap, arrival):
        yield sim.timeout(arrival * 0.25)
        yield net.transfer(
            [links[i] for i in path],
            float(size),
            rate_cap=_INF if cap is None else float(cap),
        )

    def probe(at):
        yield sim.timeout(at * 0.1)
        _check(net, checks)

    processes = [sim.process(submit(*spec)) for spec in flow_specs]
    for at in probes:
        sim.process(probe(at))
    sim.run(until=sim.all_of(processes))

    assert net.active_flows == 0
    assert net.completed_flows == len(flow_specs)
    for link in links:
        assert not link.flows


def test_departure_rescopes_only_its_component():
    """Two disjoint components; a completion in one matches the reference.

    This is the case incremental recomputation actually skips work for:
    the right component's flows are untouched by the left completion, and
    the rates must still equal a full reference pass.
    """
    sim = Simulator()
    net = FlowNetwork(sim)
    left = net.add_link("left", 100.0)
    right = net.add_link("right", 60.0)
    checks = []

    net.transfer([left], 100.0)  # finishes at t=2 (rate 50)
    net.transfer([left], 1000.0)
    net.transfer([right], 600.0)
    net.transfer([right], 600.0)

    def probe(at):
        yield sim.timeout(at)
        _check(net, checks)

    for at in (1.0, 3.0, 5.0):  # before / after the left completion
        sim.process(probe(at))
    sim.run()
    assert checks == [1.0, 3.0, 5.0]
    assert net.completed_flows == 4


def test_write_amplified_path_counts_per_occurrence():
    """A link listed twice in a path charges capacity per occurrence."""
    sim = Simulator()
    net = FlowNetwork(sim)
    media = net.add_link("media", 90.0)
    checks = []

    # One flow crossing the link twice and one crossing once: the fair
    # share is water-filled over three occurrences (90/3 = 30), so both
    # flows run at 30 B/s — the amplified one consuming 60 of the 90 —
    # and the link is exactly saturated.
    net.transfer([media, media], 300.0)
    net.transfer([media], 600.0)

    def probe():
        yield sim.timeout(1.0)
        _check(net, checks)
        amplified, plain = list(net._active)
        assert amplified.rate == 30.0
        assert plain.rate == 30.0
        assert media.utilisation == 1.0

    sim.process(probe())
    sim.run()
    assert checks == [1.0]
    assert net.completed_flows == 2


def test_long_debit_chain_matches_reference():
    """Many-member group debited from a link that outlives the round.

    ``slow`` (75 members, its private ``narrow`` link binding at the
    inexact 1/7) fixes first while ``shared`` still serves ``fast``, so
    ``shared`` takes one 150-step debit chain (75 members x 2 occurrences)
    — long enough that the kernel folds it in numpy rather than looping —
    and the next round divides what the chain left.
    """
    sim = Simulator()
    net = FlowNetwork(sim)
    shared = net.add_link("shared", 1000.0)
    narrow = net.add_link("narrow", 75.0 / 7.0)
    wide = net.add_link("wide", 900.0)
    for i in range(75):
        net.transfer([narrow, shared, shared], 30.0 + i)
    for i in range(5):
        net.transfer([wide, shared], 5000.0 + i)
    checks = []

    def probe():
        yield sim.timeout(1.0)
        _check(net, checks)
        rates = {flow.rate for flow in net._active}
        assert len(rates) == 2 and 1.0 / 7.0 in rates

    sim.process(probe())
    sim.run()
    assert checks == [1.0]
    assert net.completed_flows == 80


def assert_bookkeeping(net):
    """The solver's incremental aggregates equal a recount from ``_active``."""
    members = {}
    for flow in net._active:
        members.setdefault(flow.group, []).append(flow)
    assert set(members) == set(net._groups.values())
    for group, flows in members.items():
        assert group.n == len(flows)
        assert list(group.members) == flows
    for link in net.links.values():
        crossing = {
            group: group.path.count(link)
            for group in members
            if link in group.path
        }
        assert link.groups == crossing
        assert link.n_occ == sum(link.flows.values())
        assert link.n_occ == sum(f.path.count(link) for f in net._active)
        assert link.n_flows == len(link.flows)
        assert list(link.flows) == [f for f in net._active if link in f.path]
    occupied = sum(1 for link in net.links.values() if link.groups)
    assert net._n_occupied == occupied
    assert net._pathless_active == sum(1 for f in net._active if not f.path)


def _degrading(n_flows):
    """Deterministic capacity function: throughput degrades with load."""
    return 96.0 / (1 + n_flows)


@st.composite
def schedules(draw):
    """Arrivals over plain and ``capacity_fn`` links."""
    n_links = draw(st.integers(min_value=2, max_value=6))
    links = [
        (draw(st.integers(min_value=1, max_value=50)), draw(st.booleans()))
        for _ in range(n_links)
    ]
    n_flows = draw(st.integers(min_value=1, max_value=24))
    # A few path templates so groups accrete members (multiplicity > 1
    # comes from repeated indices), plus free-form paths.
    templates = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=n_links - 1),
                min_size=1,
                max_size=4,
            ),
            min_size=1,
            max_size=3,
        )
    )
    flows = []
    for _ in range(n_flows):
        if draw(st.booleans()):
            path = draw(st.sampled_from(templates))
        else:
            path = draw(
                st.lists(
                    st.integers(min_value=0, max_value=n_links - 1),
                    min_size=0,
                    max_size=4,
                )
            )
        cap = draw(st.sampled_from([None, None, 1, 2, 5, 17]))
        if not path and cap is None:
            cap = 3  # an empty path needs a finite cap
        size = draw(st.integers(min_value=1, max_value=200))
        arrival = draw(st.integers(min_value=0, max_value=8))
        flows.append((path, size, cap, arrival))
    return links, flows


def check_after_every_flush(net):
    """Hold ``net`` to the reference after *every* flush, not just at probes.

    Rates must equal the independent water-filling bit for bit and the
    incremental aggregates (``Link.n_occ``, ``Link.groups``, group member
    sets, occupied-link count) must equal a recount.  Returns the list the
    checked flush instants are appended to.
    """
    flushes = []
    flush = net._flush_recompute

    def checked_flush():
        flush()
        assert_bookkeeping(net)
        assert_matches_reference(net)
        assert_maxmin_invariants(net)
        flushes.append(net.sim.now)

    net._flush_recompute = checked_flush
    return flushes


#: Both kernels on both representations: scalar on flow state, scalar on
#: arena group rows + fan-out, and the array kernel on every solve with two
#: or more groups in scope.
_PINS = [("never", None), ("always", None), ("always", LOW_SOLVE_MIN)]


@given(schedule=schedules(), pin=st.sampled_from(_PINS))
@settings(max_examples=80, deadline=None, suppress_health_check=PIN_PER_EXAMPLE)
def test_kernel_and_bookkeeping_match_reference_after_every_flush(schedule, pin, pin_arena):
    """Every kernel, on flow state and on arena state, == reference."""
    link_specs, flow_specs = schedule
    pin_arena(*pin)
    sim = Simulator()
    net = FlowNetwork(sim)
    links = [
        net.add_link(f"l{i}", float(c), capacity_fn=_degrading if fn else None)
        for i, (c, fn) in enumerate(link_specs)
    ]
    flushes = check_after_every_flush(net)

    def submit(path, size, cap, arrival):
        yield sim.timeout(arrival * 0.25)
        yield net.transfer(
            [links[i] for i in path],
            float(size),
            rate_cap=_INF if cap is None else float(cap),
        )

    processes = [sim.process(submit(*spec)) for spec in flow_specs]
    sim.run(until=sim.all_of(processes))
    # ``until=`` stops mid-instant, ahead of the last completion's flush.
    sim.run()

    assert flushes
    assert net.active_flows == 0
    assert net.completed_flows == len(flow_specs)
    assert_bookkeeping(net)
    for link in links:
        assert not link.flows and not link.groups and link.n_occ == 0


def test_batched_completion_wave_matches_reference(pin_arena):
    """A completion wave of >= 64 flows leaves the arena by ``_evict_batch``.

    Three interleaved groups of 80 flows finish a group at a time, so each
    wave's keep-mask compaction must move every survivor's column (bytes
    left, rate, cap, group row, path) to its new place.  Held to the
    reference after every flush, on both kernels, and to the run without
    an arena bit for bit.
    """

    def run(arena, solve_min=None):
        pin_arena(arena, solve_min)
        sim = Simulator()
        net = FlowNetwork(sim)
        a = net.add_link("a", 90.0)
        b = net.add_link("b", 70.0)
        c = net.add_link("c", 50.0, capacity_fn=_degrading)
        paths = [(a,), (a, b), (b, c, c)]
        caps = [_INF, 0.5, 0.75]
        flushes = check_after_every_flush(net)
        batches = []
        evict_batch = net._evict_batch

        def counted(done_pos):
            batches.append(len(done_pos))
            evict_batch(done_pos)

        net._evict_batch = counted
        done = [
            net.transfer(paths[i % 3], 10.0 + 20.0 * (i % 3), rate_cap=caps[i % 3])
            for i in range(240)
        ]
        sim.run()
        assert flushes and net.completed_flows == 240
        assert_bookkeeping(net)
        return [event.value.end_time.hex() for event in done], batches

    ends, batches = run("never")
    assert not batches
    for solve_min in (None, LOW_SOLVE_MIN):
        arena_ends, batches = run("always", solve_min)
        assert batches and min(batches) >= 64
        assert arena_ends == ends
