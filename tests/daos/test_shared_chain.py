"""Default clients share one composed stage chain; stateful ones stay private.

Tracing, the only default stage while fault injection and health are off,
keeps no per-client state, so every such default client shares one
composed chain (and one op-driver free-list); anything else -- explicit
``middleware=``, fault injection, health, QoS -- composes a chain of its
own.  Either way every op runs on a pooled driver.  The bare-vs-request
identity rails live in ``test_fast_path.py``.
"""

import dataclasses

import pytest

from repro.bench.runner import build_deployment
from repro.config import ClusterConfig, FaultInjectionConfig
from repro.daos.objclass import OC_S1
from repro.daos.oid import ObjectId
from repro.daos.rpc import TracingMiddleware
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
    """Run one op on ``client``; it leaves its driver and lane pooled."""
    run_process(cluster, client.container_create(pool, label=label))
    assert system.fast_drivers
    assert len(cluster.sim._lane_free) == len(system.fast_drivers)


@pytest.mark.parametrize("backend", ["daos", "posixfs"])
def test_default_clients_share_the_chain_but_not_their_accounting(backend):
    cluster, system, pool = build_deployment(_config(), backend=backend)
    first, second = _clients(system, cluster)
    assert first._chain is second._chain
    assert first._bare and second._bare
    # The list is per client: editing one client's view is not global.
    assert [type(stage) for stage in first.middleware] == [TracingMiddleware]
    assert first.middleware is not second.middleware
    first.middleware.append("scribble")
    assert len(system.make_client(first.address).middleware) == 1

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


def test_mid_run_tracer_still_falls_back_on_the_shared_chain():
    cluster, system, pool = build_deployment(_config())
    first, second = _clients(system, cluster)
    run_process(cluster, first.container_create(pool, label="c", is_default=True))
    cluster.sim.tracer = tracer = Tracer()
    run_process(cluster, second.container_exists(pool, "c"))
    spans = [record for record in tracer.records if record.kind == "rpc"]
    assert [span.fields["op"] for span in spans] == ["container_exists"]


def test_stateful_chains_stay_private():
    # Explicit middleware: never the shared chain, even when it is tracing
    # alone (bare, so the hot ops still launch without a Request).
    cluster, system, pool = build_deployment(_config())
    explicit = _clients(system, cluster, middleware=[TracingMiddleware()])
    default = system.make_client(explicit[0].address)
    assert len({id(c._chain) for c in (*explicit, default)}) == 3
    assert explicit[0]._bare
    _ran_on_drivers(cluster, system, explicit[0], pool, "explicit")

    # QoS tenants: one admission object, a private chain per worker.
    qos = QosAdmissionMiddleware("t0", QosPolicy(rate=100.0, burst=1.0))
    tenants = _clients(system, cluster, middleware=[qos, TracingMiddleware()])
    assert tenants[0]._chain is not tenants[1]._chain
    assert not tenants[0]._bare
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
        assert not first._bare
        _ran_on_drivers(cluster, system, first, pool, "stateful")
