"""Default clients have no stage chain at all; stateful ones compose their own.

While fault injection and health are off the default stage list is empty,
so every default client is bare: it composes no chain (and shares the
system's one op-driver free-list), traced or not.  Anything else --
explicit ``middleware=``, fault injection, health, QoS -- composes a chain
of its own.  Either way every op runs on a pooled driver.  The
bare-vs-request identity rails live in ``test_fast_path.py``.
"""

import dataclasses

import pytest

from repro.bench.runner import build_deployment
from repro.config import ClusterConfig, FaultInjectionConfig
from repro.daos.objclass import OC_S1
from repro.daos.oid import ObjectId
from repro.daos.rpc import Middleware
from repro.serving.qos import QosAdmissionMiddleware, QosPolicy
from repro.simulation.trace import Tracer
from tests.conftest import run_process


def _config(**daos_overrides) -> ClusterConfig:
    base = ClusterConfig(n_server_nodes=1, n_client_nodes=1, seed=5)
    if not daos_overrides:
        return base
    return dataclasses.replace(
        base, daos=dataclasses.replace(base.daos, **daos_overrides)
    )


def _clients(system, cluster, n=2, **kwargs):
    return [
        system.make_client(address, **kwargs)
        for address in cluster.client_addresses(n)[:n]
    ]


def _ran_on_drivers(cluster, system, client, pool, label):
    """Run one op on ``client``; it leaves its driver pooled, nothing queued."""
    run_process(cluster, client.container_create(pool, label=label))
    assert system.fast_drivers
    assert all(driver._generator is None for driver in system.fast_drivers)
    assert cluster.sim.pending == 0


@pytest.mark.parametrize("backend", ["daos", "posixfs"])
def test_default_clients_share_the_chain_but_not_their_accounting(backend):
    """What default clients share is the absence of a chain: none composes
    one.  Each keeps its own accounting and its own stage list."""
    cluster, system, pool = build_deployment(_config(), backend=backend)
    first, second = _clients(system, cluster)
    assert first._chain is None and second._chain is None
    # The list is per client: editing one client's view is not global.
    assert first.middleware == []
    assert first.middleware is not second.middleware
    first.middleware.append("scribble")
    assert system.make_client(first.address).middleware == []

    def work(client, n_puts):
        container = yield from client.container_open(pool, "shared-chain")
        kv = yield from client.kv_open(container, ObjectId(1, 7 + n_puts), OC_S1)
        for index in range(n_puts):
            yield from client.kv_put(kv, b"k%d" % index, b"v")

    run_process(
        cluster, first.container_create(pool, label="shared-chain", is_default=True)
    )
    run_process(cluster, work(first, 3))
    run_process(cluster, work(second, 5))
    assert first.stats["kv_put"] == 3 and second.stats["kv_put"] == 5
    assert first.op_metrics["kv_put"].count == 3
    assert second.op_metrics["kv_put"].count == 5
    assert first.op_metrics is not second.op_metrics
    # Sequential ops recycle one system-wide free-list whichever client
    # issues them: two drivers (a finishing op's successor starts inside its
    # completion callback), not two per client.
    assert 1 <= len(system.fast_drivers) <= 2


def test_mid_run_tracer_spans_start_at_the_next_finishing_op():
    """A tracer installed while an op is in flight: the clients stay bare,
    and the in-flight op is the first traced, from its launch."""
    cluster, system, pool = build_deployment(_config())
    first, second = _clients(system, cluster)
    sim = cluster.sim
    run_process(cluster, first.container_create(pool, label="c", is_default=True))
    launched = sim.now
    create = sim.process(first.container_create(pool, label="d"))
    sim.run(until=launched + 1e-7)  # the create is in flight
    assert create.is_alive
    sim.tracer = tracer = Tracer()
    sim.run(until=create)
    run_process(cluster, second.container_exists(pool, "c"))
    assert first._chain is None and second._chain is None
    spans = tracer.filter("rpc")
    assert [span["op"] for span in spans] == ["container_create", "container_exists"]
    assert spans[0]["start"] == launched


def test_stateful_chains_stay_private():
    # Explicit middleware: a chain per client; an explicit empty list is
    # bare like the default.
    cluster, system, pool = build_deployment(_config())
    explicit = _clients(system, cluster, middleware=[Middleware()])
    assert explicit[0]._chain is not explicit[1]._chain
    assert None not in {explicit[0]._chain, explicit[1]._chain}
    _ran_on_drivers(cluster, system, explicit[0], pool, "explicit")
    assert system.make_client(explicit[0].address, middleware=[])._chain is None

    # QoS tenants: one admission object, a private chain per worker.
    qos = QosAdmissionMiddleware("t0", QosPolicy(rate=100.0, burst=1.0))
    tenants = _clients(system, cluster, middleware=[qos])
    assert tenants[0]._chain is not tenants[1]._chain
    assert tenants[0]._chain is not None
    _ran_on_drivers(cluster, system, tenants[0], pool, "tenant")
    assert qos.admitted == 1

    # Fault injection and health: the default stages carry per-client state.
    for overrides in (
        dict(fault_injection=FaultInjectionConfig(enabled=True, rate=0.2, seed=11)),
        dict(health=dataclasses.replace(_config().daos.health, enabled=True)),
    ):
        cluster, system, pool = build_deployment(_config(**overrides))
        first, second = _clients(system, cluster)
        assert first._chain is not second._chain
        assert all(a is not b for a, b in zip(first.middleware, second.middleware))
        assert first._chain is not None
        _ran_on_drivers(cluster, system, first, pool, "stateful")


@pytest.mark.parametrize("backend", ["daos", "posixfs"])
def test_stage_decision_is_made_once_per_system(backend, monkeypatch):
    """Whether the config yields any default stage is decided when the
    system is built: a default client asks again only where it does (for
    stages of its own), and a stage-less one still builds its (empty) list
    when :attr:`middleware` is read."""
    from repro.daos import client as client_module

    stages = client_module.default_middleware
    calls = []

    def counting(config):
        calls.append(config)
        return stages(config)

    for overrides, staged in (
        ({}, False),
        (dict(fault_injection=FaultInjectionConfig(enabled=True, rate=0.2, seed=11)), True),
    ):
        cluster, system, _pool = build_deployment(_config(**overrides), backend=backend)
        assert system.default_staged is staged
        monkeypatch.setattr(client_module, "default_middleware", counting)
        del calls[:]
        clients = _clients(system, cluster, n=3)
        assert len(calls) == (3 if staged else 0)
        assert all((client._chain is not None) is staged for client in clients)
        if staged:  # private stage instances, no list built on read
            assert len({id(client.middleware[0]) for client in clients}) == 3
            assert len(calls) == 3
        else:  # the empty list is built when read
            assert clients[0].middleware == [] and len(calls) == 1
        monkeypatch.setattr(client_module, "default_middleware", stages)
