"""Pinning the flow network's representation.

``FlowNetwork`` takes no solver options.  Where its hot state lives (flow
attributes or the numpy arena) and which of its two kernels runs a solve
follow from three thresholds in ``repro.network.flow`` — ``_VEC_ON`` /
``_VEC_OFF`` on the flow population, ``_VEC_SOLVE_MIN`` on the smaller of
the live groups and the flows in a solve's scope — read as module globals
at call time.  Tests that must hold
one representation still (or force the array kernel onto populations small
enough for hypothesis) patch those, through the one fixture below, and
compare against the independent water-filling in ``test_flow_reference.py``.
"""

import math

import pytest
from hypothesis import HealthCheck

from repro.network import flow as flow_module

_VEC_ON, _VEC_OFF, _VEC_SOLVE_MIN = (
    flow_module._VEC_ON,
    flow_module._VEC_OFF,
    flow_module._VEC_SOLVE_MIN,
)

#: ``(_VEC_ON, _VEC_OFF)`` per arena mode: never in the arena / in it from
#: the first flow on / in and out by the production hysteresis.
_ON_OFF = {"never": (math.inf, _VEC_OFF), "always": (1, 0), "auto": (_VEC_ON, _VEC_OFF)}

#: What ``pin_arena`` accepts.
ARENAS = tuple(_ON_OFF)

#: A ``solve_min`` low enough that any solve with two groups in scope runs
#: ``_solve_vector`` (and the scalar kernel folds every multi-step debit
#: chain in numpy).
LOW_SOLVE_MIN = 2

#: ``@settings(suppress_health_check=PIN_PER_EXAMPLE)`` for hypothesis tests
#: taking ``pin_arena``: each example pins what it needs before building a
#: network, so the function-scoped fixture carries nothing between examples.
PIN_PER_EXAMPLE = [HealthCheck.function_scoped_fixture]


@pytest.fixture
def pin_arena(monkeypatch):
    """``pin(arena, solve_min=None)``: set the thresholds for networks built next.

    Every call sets all three thresholds, so one test may pin several
    representations in turn (and a hypothesis test carries nothing from one
    example to the next); teardown restores the production values.
    """

    def pin(arena, solve_min=None):
        on, off = _ON_OFF[arena]
        monkeypatch.setattr(flow_module, "_VEC_ON", on)
        monkeypatch.setattr(flow_module, "_VEC_OFF", off)
        monkeypatch.setattr(
            flow_module, "_VEC_SOLVE_MIN", _VEC_SOLVE_MIN if solve_min is None else solve_min
        )

    return pin
