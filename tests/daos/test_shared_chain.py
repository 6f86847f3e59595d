"""What clients share of their policy: the admission per tenant, nothing else.

While fault injection and health are off a default client has no policy,
so it launches every op bare (and shares the system's one op-driver
free-list), traced or not.  A serving tenant's QoS admission is one object
shared by all of the tenant's clients -- that is what makes its limit per
tenant -- while the fault sequence and the pool-map view stay private per
client.  Either way every op runs on a pooled driver.  The bare-vs-attempt
identity rails live in ``test_fast_path.py``.
"""

import dataclasses
from collections import Counter

import pytest

from repro.bench.runner import build_deployment
from repro.config import ClusterConfig, FaultInjectionConfig
from repro.daos.objclass import OC_S1
from repro.daos.oid import ObjectId
from repro.serving.qos import QosAdmission, QosPolicy
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
    """What default clients share is the absence of a policy: none has an
    admission, and the system turns on no default.  Each keeps its own
    accounting."""
    cluster, system, pool = build_deployment(_config(), backend=backend)
    first, second = _clients(system, cluster)
    assert not system.default_staged
    assert first._qos is None and second._qos is None

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
    assert not system.default_staged and first._qos is None
    spans = tracer.filter("rpc")
    assert [span["op"] for span in spans] == ["container_create", "container_exists"]
    assert spans[0]["start"] == launched


def test_stateful_chains_stay_private():
    """The admission is shared per tenant; the fault sequence is private
    per client."""
    # QoS tenants: one admission object, metered by every worker.
    cluster, system, pool = build_deployment(_config())
    qos = QosAdmission("t0", QosPolicy(rate=100.0, burst=1.0))
    tenants = _clients(system, cluster, middleware=qos)
    assert tenants[0]._qos is tenants[1]._qos is qos
    _ran_on_drivers(cluster, system, tenants[0], pool, "tenant")
    assert qos.admitted == 1
    _ran_on_drivers(cluster, system, tenants[1], pool, "tenant-2")
    assert qos.admitted == 2

    # Fault injection: each client numbers its own attempts.
    fault = FaultInjectionConfig(enabled=True, rate=0.0, seed=11)
    cluster, system, pool = build_deployment(_config(fault_injection=fault))
    first, second = _clients(system, cluster)
    _ran_on_drivers(cluster, system, first, pool, "stateful")
    assert (first._fault_seq, second._fault_seq) == (1, 0)


@pytest.mark.parametrize("backend", ["daos", "posixfs"])
def test_stage_decision_is_made_once_per_system(backend, attempts):
    """Whether the config turns on a default policy is decided when the
    system is built (``default_staged``: health or fault injection on), and
    every client's ops follow it: through the attempt loop if so, bare if
    not."""
    configs = [
        ({}, False),
        (dict(fault_injection=FaultInjectionConfig(enabled=True, rate=0.0, seed=11)), True),
    ]
    if backend == "daos":  # posixfs has no health model
        health = dataclasses.replace(_config().daos.health, enabled=True)
        configs.append((dict(health=health), True))
    for overrides, staged in configs:
        cluster, system, pool = build_deployment(_config(**overrides), backend=backend)
        assert system.default_staged is staged
        attempts.clear()
        for client in _clients(system, cluster, n=3):
            run_process(cluster, client.container_exists(pool, "absent"))
        assert attempts == (Counter(container_exists=3) if staged else Counter())
