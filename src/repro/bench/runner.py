"""Sweep execution helpers shared by the experiment drivers.

Every paper experiment is a sweep over deployment shapes and benchmark
parameters, repeated a few times, with either the best or the mean
configuration reported.  :func:`build_deployment` (re-exported from
:mod:`repro.backends.registry`) assembles one fresh deployment per grid
point and :func:`mean` reduces repetitions (§6.2/Fig 3: "the mean ...
across all repetitions for the best performing number of client
processes").
"""

from __future__ import annotations

from typing import Iterable

from repro.backends.registry import build_deployment

__all__ = ["build_deployment", "mean"]


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean; raises on empty input (silent 0.0 hides bugs)."""
    values = list(values)
    if not values:
        raise ValueError("mean of no values")
    return sum(values) / len(values)

