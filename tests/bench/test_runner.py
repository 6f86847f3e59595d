"""Sweep helpers."""

import pytest

from repro.bench.runner import build_deployment, mean


def test_build_deployment_wires_everything(small_config):
    cluster, system, pool = build_deployment(small_config)
    assert system.cluster is cluster
    assert pool.label in system.pools


def test_mean():
    assert mean([1.0, 2.0, 3.0]) == 2.0
    with pytest.raises(ValueError):
        mean([])

