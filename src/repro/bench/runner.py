"""Sweep execution helpers shared by the experiment drivers.

Every paper experiment is a sweep over deployment shapes and benchmark
parameters, repeated a few times, with either the best or the mean
configuration reported.  :func:`build_deployment` assembles one fresh
deployment per grid point and :func:`mean` reduces repetitions (§6.2/Fig
3: "the mean ... across all repetitions for the best performing number of
client processes").
"""

from __future__ import annotations

from typing import Iterable, Tuple

from repro.config import ClusterConfig
from repro.daos.system import DaosSystem
from repro.hardware.topology import Cluster

__all__ = ["build_deployment", "mean"]


def build_deployment(
    config: ClusterConfig, backend: str = "daos"
) -> Tuple[Cluster, DaosSystem, object]:
    """Assemble a fresh cluster + storage system + pool for one run.

    ``backend`` selects the storage model from :mod:`repro.backends`; the
    default keeps the historical DAOS deployment bit for bit.
    """
    from repro.backends.registry import build_deployment as _build

    return _build(config, backend=backend)


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean; raises on empty input (silent 0.0 hides bugs)."""
    values = list(values)
    if not values:
        raise ValueError("mean of no values")
    return sum(values) / len(values)

