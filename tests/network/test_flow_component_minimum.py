"""One solve over two components fixes each at its own minimum.

The falsifying example a random run of
``test_flow_reference.py::test_kernel_and_bookkeeping_match_reference_after_every_flush``
once drew, rebuilt as a plain test.  Links of capacity 1, 3, 1, 1, 1 and 8;
thirteen path-less flows capped at 3; uncapped flows on ``[0]``, three times
``[1, 5, 5, 5]``, ``[1]``, ``[5]`` and ``[5, 5]``; every flow 1 byte, all at
t=0.  At the first flush the ``[1]`` flow's own share is
``3 - 3 * (8/12) = 1.0000000000000004``, but the kernel takes one round
minimum over every component the flush dirtied, and its tie threshold fixes
that flow at 1.0, the ``[0]`` flow's share in the other component:
``<Flow #17> incremental rate 1.0 != reference 1.0000000000000004``.
"""

import math

import pytest

from repro.network.flow import FlowNetwork
from repro.simulation import Simulator
from tests.network.test_flow_reference import _PINS, check_after_every_flush

_PATHS = [[]] * 13 + [[0], [1, 5, 5, 5], [1, 5, 5, 5], [1, 5, 5, 5], [1], [5], [5, 5]]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 12: the flow solver fixes every component of a solve at one "
    "shared round minimum, not each at its own",
)
@pytest.mark.parametrize("pin", _PINS, ids=[f"{arena}-{solve_min}" for arena, solve_min in _PINS])
def test_a_near_tie_across_components_matches_the_reference(pin, pin_arena):
    pin_arena(*pin)
    sim = Simulator()
    net = FlowNetwork(sim)
    links = [net.add_link(f"l{i}", float(c)) for i, c in enumerate([1, 3, 1, 1, 1, 8])]
    flushes = check_after_every_flush(net)
    for path in _PATHS:
        net.transfer([links[i] for i in path], 1.0, rate_cap=3.0 if not path else math.inf)
    sim.run()
    assert flushes and net.completed_flows == len(_PATHS)
