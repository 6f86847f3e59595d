"""Fluid-flow model: rates, sharing, fairness invariants."""


import pytest
from hypothesis import given, settings, strategies as st

from repro.network.flow import FlowNetwork
from repro.simulation import Simulator


def make_net():
    sim = Simulator()
    return sim, FlowNetwork(sim)


def test_link_capacity_must_be_positive():
    _, net = make_net()
    with pytest.raises(ValueError):
        net.add_link("bad", 0.0)


def test_duplicate_link_name_rejected():
    _, net = make_net()
    net.add_link("a", 1.0)
    with pytest.raises(ValueError, match="duplicate"):
        net.add_link("a", 1.0)


def test_single_flow_runs_at_link_capacity():
    sim, net = make_net()
    link = net.add_link("l", 100.0)
    done = net.transfer([link], 1000.0)
    flow = sim.run(until=done)
    assert sim.now == pytest.approx(10.0)
    assert flow.mean_rate == pytest.approx(100.0)


def test_per_flow_cap_binds_below_link():
    sim, net = make_net()
    link = net.add_link("l", 100.0)
    done = net.transfer([link], 300.0, rate_cap=30.0)
    sim.run(until=done)
    assert sim.now == pytest.approx(10.0)


def test_two_flows_share_fairly():
    sim, net = make_net()
    link = net.add_link("l", 100.0)
    d1 = net.transfer([link], 500.0)
    d2 = net.transfer([link], 500.0)
    sim.run(until=sim.all_of([d1, d2]))
    # Each gets 50: both finish at t=10.
    assert sim.now == pytest.approx(10.0)


def test_remaining_capacity_reassigned_after_completion():
    sim, net = make_net()
    link = net.add_link("l", 100.0)
    short = net.transfer([link], 100.0)  # finishes at t=2 (rate 50)
    long = net.transfer([link], 500.0)
    sim.run(until=sim.all_of([short, long]))
    # long: 100 bytes by t=2 at rate 50, then 400 at rate 100 -> t=6.
    assert sim.now == pytest.approx(6.0)


def test_capped_flow_leaves_headroom_to_others():
    sim, net = make_net()
    link = net.add_link("l", 100.0)
    capped = net.transfer([link], 200.0, rate_cap=20.0)
    greedy = net.transfer([link], 800.0)
    sim.run(until=sim.all_of([capped, greedy]))
    # capped runs at 20 for 10s; greedy gets 80 -> done at t=10 too.
    assert sim.now == pytest.approx(10.0)


def test_multi_link_path_bottleneck():
    sim, net = make_net()
    fast = net.add_link("fast", 1000.0)
    slow = net.add_link("slow", 10.0)
    done = net.transfer([fast, slow], 100.0)
    sim.run(until=done)
    assert sim.now == pytest.approx(10.0)


def test_duplicated_link_in_path_consumes_double():
    """Write amplification: a flow listing a link twice gets half the rate."""
    sim, net = make_net()
    link = net.add_link("media", 100.0)
    done = net.transfer([link, link], 500.0)
    sim.run(until=done)
    assert sim.now == pytest.approx(10.0)  # effective rate 50


def test_amplified_and_plain_flows_mix():
    sim, net = make_net()
    media = net.add_link("media", 90.0)
    amplified = net.transfer([media, media], 300.0)  # weight 2
    plain = net.transfer([media], 600.0)  # weight 1
    sim.run(until=sim.all_of([amplified, plain]))
    # Equal per-flow rates x: 2x + x = 90 -> x = 30; amplified done at t=10,
    # then plain (300 left) at rate 90: +3.33s.
    assert sim.now == pytest.approx(10.0 + 300.0 / 90.0)


def test_zero_byte_transfer_completes_immediately():
    sim, net = make_net()
    link = net.add_link("l", 100.0)
    done = net.transfer([link], 0.0)
    flow = sim.run(until=done)
    assert sim.now == 0.0
    assert flow.size == 0.0


def test_negative_size_rejected():
    _, net = make_net()
    link = net.add_link("l", 1.0)
    with pytest.raises(ValueError):
        net.transfer([link], -1.0)


def test_nan_size_rejected():
    """NaN fails every ordering test, so ``nbytes < 0`` alone admitted it."""
    sim, net = make_net()
    link = net.add_link("l", 1.0)
    with pytest.raises(ValueError, match="non-negative"):
        net.transfer([link], float("nan"))
    assert net.active_flows == 0
    # Rejected beside a flow in flight, it leaves that flow untouched.
    done = net.transfer((link,), 2.0)
    with pytest.raises(ValueError, match="non-negative"):
        net.transfer((link,), float("nan"))
    assert net.active_flows == 1 and net.flow_changes == 1
    assert sim.run(until=done).end_time == 2.0


def test_nan_rate_cap_rejected():
    sim, net = make_net()
    link = net.add_link("l", 1.0)
    with pytest.raises(ValueError, match="rate cap"):
        net.transfer([link], 10.0, rate_cap=float("nan"))
    assert net.active_flows == 0
    # Rejected beside a flow in flight, it leaves that flow untouched.
    done = net.transfer((link,), 2.0)
    with pytest.raises(ValueError, match="rate cap"):
        net.transfer((link,), 10.0, rate_cap=float("nan"))
    assert net.active_flows == 1 and net.flow_changes == 1
    assert sim.run(until=done).end_time == 2.0


def test_empty_path_without_cap_rejected():
    _, net = make_net()
    with pytest.raises(ValueError, match="non-empty path or a finite rate cap"):
        net.transfer([], 10.0)


def test_empty_path_with_cap_runs_at_cap():
    sim, net = make_net()
    done = net.transfer([], 100.0, rate_cap=10.0)
    sim.run(until=done)
    assert sim.now == pytest.approx(10.0)


def test_dynamic_capacity_fn():
    """Link with concurrency-dependent capacity (TCP aggregate curve)."""
    sim, net = make_net()
    # capacity 10 with 1 flow, 16 with 2+ flows
    link = net.add_link("tcp", 100.0, capacity_fn=lambda n: 10.0 if n <= 1 else 16.0)
    d1 = net.transfer([link], 100.0)
    sim.run(until=d1)
    assert sim.now == pytest.approx(10.0)
    t0 = sim.now
    d2 = net.transfer([link], 80.0)
    d3 = net.transfer([link], 80.0)
    sim.run(until=sim.all_of([d2, d3]))
    assert sim.now - t0 == pytest.approx(10.0)  # 8 each of 16 total


def test_completion_statistics():
    sim, net = make_net()
    link = net.add_link("l", 100.0)
    done = [net.transfer([link], 50.0) for _ in range(4)]
    sim.run(until=sim.all_of(done))
    assert net.completed_flows == 4
    assert net.completed_bytes == pytest.approx(200.0)
    assert net.active_flows == 0


def test_utilisation():
    sim, net = make_net()
    link = net.add_link("l", 100.0)
    assert link.utilisation == 0.0
    net.transfer([link], 1e9)
    net.transfer([link], 1e9)
    sim.run(until=sim.now)  # process the coalesced rate recompute
    assert link.utilisation == pytest.approx(1.0)


# -- property-based fairness invariants ------------------------------------------

flow_specs = st.lists(
    st.tuples(
        st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=3),
        st.floats(min_value=1.0, max_value=1e6),  # size
        st.floats(min_value=0.5, max_value=1e4),  # rate cap
    ),
    min_size=1,
    max_size=12,
)


@given(
    caps=st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=5, max_size=5),
    flows=flow_specs,
)
@settings(max_examples=60, deadline=None)
def test_maxmin_rates_conserve_capacity_and_respect_caps(caps, flows):
    """After any allocation: no link oversubscribed (counting multiplicity),
    no flow above its cap, and every flow gets a strictly positive rate."""
    sim, net = make_net()
    links = [net.add_link(f"l{i}", caps[i]) for i in range(5)]
    for path_idx, size, cap in flows:
        net.transfer([links[i] for i in path_idx], size, rate_cap=cap)
    sim.run(until=sim.now)  # process the coalesced rate recompute
    active = list(net._active)
    assert all(f.rate > 0.0 for f in active)
    for flow in active:
        assert flow.rate <= flow.rate_cap * (1 + 1e-9)
    load = {}
    for flow in active:
        for link in flow.path:  # multiplicity counted per occurrence
            load[link] = load.get(link, 0.0) + flow.rate
    for link, used in load.items():
        assert used <= link.capacity * (1 + 1e-9)


@given(
    caps=st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=5, max_size=5),
    flows=flow_specs,
)
@settings(max_examples=60, deadline=None)
def test_maxmin_every_flow_is_bottlenecked(caps, flows):
    """Max-min property: each flow is limited by its cap or by a saturated
    link on its path where it has a maximal share."""
    sim, net = make_net()
    links = [net.add_link(f"l{i}", caps[i]) for i in range(5)]
    for path_idx, size, cap in flows:
        net.transfer([links[i] for i in path_idx], size, rate_cap=cap)
    sim.run(until=sim.now)  # process the coalesced rate recompute
    active = list(net._active)
    load = {}
    for flow in active:
        for link in flow.path:
            load[link] = load.get(link, 0.0) + flow.rate
    for flow in active:
        if flow.rate >= flow.rate_cap * (1 - 1e-9):
            continue  # bottlenecked by its own cap
        bottlenecked = False
        for link in set(flow.path):
            saturated = load[link] >= link.capacity * (1 - 1e-9)
            has_max_share = all(
                flow.rate >= other.rate * (1 - 1e-9)
                for other in link.flows
            )
            if saturated and has_max_share:
                bottlenecked = True
                break
        assert bottlenecked, f"flow {flow} has no bottleneck"


@given(
    sizes=st.lists(st.floats(min_value=1.0, max_value=1e5), min_size=1, max_size=10)
)
@settings(max_examples=40, deadline=None)
def test_all_bytes_delivered(sizes):
    """Every transfer completes and total completed bytes are exact."""
    sim, net = make_net()
    link = net.add_link("l", 123.0)
    done = [net.transfer([link], s) for s in sizes]
    sim.run(until=sim.all_of(done))
    assert net.completed_flows == len(sizes)
    assert net.completed_bytes == pytest.approx(sum(sizes))
    # Work conservation: the run cannot beat capacity.
    assert sim.now >= sum(sizes) / 123.0 * (1 - 1e-9)
