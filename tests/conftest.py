"""Shared fixtures: small deployments that keep unit tests fast."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.bench.runner import build_deployment
from repro.config import ClusterConfig
from repro.daos.client import DaosClient
from repro.hardware.topology import Cluster
from repro.simulation.core import Simulator
from repro.simulation.events import Wake


@pytest.fixture
def sim() -> Simulator:
    return Simulator(seed=7)


@pytest.fixture
def small_config() -> ClusterConfig:
    return ClusterConfig(n_server_nodes=1, n_client_nodes=1, seed=7)


@pytest.fixture
def deployment(small_config):
    """(cluster, system, pool) over one dual-engine server and one client."""
    return build_deployment(small_config)


@pytest.fixture
def client(deployment) -> DaosClient:
    cluster, system, _pool = deployment
    return DaosClient(system, cluster.client_addresses(1)[0])


@pytest.fixture
def attempts(monkeypatch) -> Counter:
    """Counts, per op, every launch that runs a client's attempt loop
    (``DaosClient._attempt``) while the test runs."""
    counts = Counter()
    attempt = DaosClient._attempt

    def counting(self, op, body, args, tokens):
        counts[op] += 1
        return attempt(self, op, body, args, tokens)

    monkeypatch.setattr(DaosClient, "_attempt", counting)
    return counts


def run_process(cluster_or_sim, generator):
    """Drive a client generator to completion, returning its value."""
    sim = cluster_or_sim.sim if isinstance(cluster_or_sim, Cluster) else cluster_or_sim
    return sim.run(until=sim.process(generator))


@pytest.fixture
def run():
    return run_process


def claim(gate, wake=None):
    """Claim ``gate`` outside a process, as ``Process._resume`` would: True
    when granted inline, else the claim has queued ``wake`` (a fresh wake
    that resumes nothing by default)."""
    return gate.claim(gate.owner, wake if wake is not None else Wake(_resume_nothing))


def _resume_nothing(wake):
    pass
