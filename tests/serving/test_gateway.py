"""Gateway serving: cache behaviour, QoS shedding, hot-object promotion."""

import dataclasses
from collections import Counter

import pytest

from repro.bench.runner import build_deployment
from repro.config import ClusterConfig, EngineFailureEvent, FaultInjectionConfig
from repro.daos.errors import InvalidArgumentError, SimulatedFaultError, TargetDownError
from repro.daos.objclass import OC_S1
from repro.daos.oid import ObjectId
from repro.fdb.fieldio import FieldIO
from repro.serving import Gateway, GatewayConfig, QosAdmission, QosPolicy
from repro.simulation.trace import Tracer
from repro.units import KiB, MiB
from repro.workloads.fields import field_payload
from repro.workloads.generator import serving_catalog, serving_request
from tests.conftest import run_process

N_FIELDS = 8
FIELD_SIZE = 16 * KiB


def deploy(config: GatewayConfig, cluster_config=None):
    cluster, system, pool = build_deployment(
        cluster_config or ClusterConfig(n_server_nodes=1, n_client_nodes=2, seed=0)
    )
    sim = cluster.sim
    boot = system.make_client(cluster.client_addresses(1)[0])
    sim.run(until=sim.process(FieldIO.bootstrap(boot, pool)))
    loader = FieldIO(system.make_client(cluster.client_addresses(1)[0]), pool)

    def _load():
        for key in serving_catalog(N_FIELDS):
            yield from loader.write(key, field_payload(key, FIELD_SIZE))

    sim.run(until=sim.process(_load()))
    return cluster, Gateway(cluster, system, pool, config)


def serve(gateway, tenant, request, worker=0):
    sim = gateway.sim
    process = sim.process(gateway.serve(tenant, request, worker=worker))
    return sim.run(until=process)


def test_config_validation():
    with pytest.raises(InvalidArgumentError):
        GatewayConfig(replication=4)
    with pytest.raises(InvalidArgumentError):
        GatewayConfig(promote_threshold=0)
    with pytest.raises(InvalidArgumentError):
        GatewayConfig(workers_per_tenant=0)


def test_serve_populates_cache_and_counts():
    _, gateway = deploy(GatewayConfig(cache_capacity=1 * MiB))
    gateway.add_tenant("ops")
    first = serve(gateway, "ops", serving_request(0, N_FIELDS))
    assert first == {"fields": 1, "hits": 0, "misses": 1, "shed": False}
    second = serve(gateway, "ops", serving_request(0, N_FIELDS))
    assert second == {"fields": 1, "hits": 1, "misses": 0, "shed": False}
    assert gateway.cache.hits == 1 and gateway.cache.misses == 1
    stats = gateway.tenant_stats("ops")
    assert stats["requests"] == 2 and stats["fields"] == 2


def test_multi_field_request_served_in_expansion_order():
    _, gateway = deploy(GatewayConfig(cache_capacity=1 * MiB))
    gateway.add_tenant("ops")
    outcome = serve(gateway, "ops", serving_request(0, N_FIELDS, span=3))
    assert outcome["fields"] == 3 and outcome["misses"] == 3
    # The three steps are now cached; a repeat is all hits.
    repeat = serve(gateway, "ops", serving_request(0, N_FIELDS, span=3))
    assert repeat["hits"] == 3


def test_duplicate_tenant_rejected():
    _, gateway = deploy(GatewayConfig())
    gateway.add_tenant("a")
    with pytest.raises(InvalidArgumentError):
        gateway.add_tenant("a")


def test_qos_sheds_concurrent_burst():
    # A *cold* worker's first read resolves the catalogue and the forecast
    # index before the entry lookup: 3 covered kv_gets.  Warmed, a miss is
    # exactly one covered op.  Burst 4 = one cold warm-up read + one token.
    cluster, gateway = deploy(GatewayConfig(cache_capacity=0))
    gateway.add_tenant(
        "busy", policy=QosPolicy(rate=0.001, burst=4.0, max_queue_depth=0)
    )
    warmup = serve(gateway, "busy", serving_request(0, N_FIELDS))
    assert not warmup["shed"]
    sim = cluster.sim
    outcomes = []

    def _user(i):
        outcome = yield from gateway.serve("busy", serving_request(i, N_FIELDS))
        outcomes.append(outcome)

    for i in range(1, 5):
        sim.process(_user(i))
    sim.run()
    shed = [o for o in outcomes if o["shed"]]
    ok = [o for o in outcomes if not o["shed"]]
    assert len(ok) == 1 and len(shed) == 3  # one leftover token, depth 0
    qos = gateway.tenant_qos("busy")
    assert qos.shed == 3 and qos.admitted == 4
    assert gateway.tenant_stats("busy")["shed"] == 3


def test_qos_delays_within_queue_depth():
    cluster, gateway = deploy(GatewayConfig(cache_capacity=0))
    gateway.add_tenant(
        "steady", policy=QosPolicy(rate=100.0, burst=1.0, max_queue_depth=8)
    )
    sim = cluster.sim
    for i in range(3):
        sim.process(gateway.serve("steady", serving_request(i, N_FIELDS), worker=i))
    sim.run()
    qos = gateway.tenant_qos("steady")
    assert qos.shed == 0
    # Three cold reads x 3 covered kv_gets on a burst-1 bucket: the first
    # op rides the free token, the other eight wait their reserved slots.
    assert qos.delayed == 8
    assert qos.admitted == 9
    assert qos.max_waiting <= 8


def test_qos_tenant_keeps_the_system_refresh_and_retry():
    """A QoS tenant on a system with health and fault injection on: its
    admission adds to the system's policy instead of replacing it, so its
    workers refetch the pool map after an engine loss, retry injected
    faults, and are paced."""
    base = ClusterConfig(n_server_nodes=2, n_client_nodes=2, seed=0)
    health = dataclasses.replace(
        base.daos.health,
        enabled=True,
        arm_at_start=False,
        events=(EngineFailureEvent(at=1e-4, engine=1, kind="fail"),),
    )
    fault = FaultInjectionConfig(enabled=True, rate=0.2, seed=11, ops=("kv_get",))
    config = dataclasses.replace(
        base, daos=dataclasses.replace(base.daos, health=health, fault_injection=fault)
    )
    cluster, gateway = deploy(GatewayConfig(cache_capacity=0), config)
    system, sim = gateway.system, cluster.sim
    workers = []
    make_client = system.make_client

    def recording_make_client(address, middleware=None):
        workers.append(make_client(address, middleware=middleware))
        return workers[-1]

    system.make_client = recording_make_client
    gateway.add_tenant("steady", policy=QosPolicy(rate=2000.0, burst=1.0, max_queue_depth=64))
    system.make_client = make_client
    sim.tracer = tracer = Tracer()
    system.arm_failure_schedule()

    def user(index):
        request = serving_request(index % N_FIELDS, N_FIELDS)
        try:
            yield from gateway.serve("steady", request, worker=index)
        except (SimulatedFaultError, TargetDownError):
            pass  # a field with no replica left, or a retry budget spent

    for index in range(16):
        sim.process(user(index))
    sim.run()
    kinds = Counter(record.kind for record in tracer)
    assert kinds["rpc_map_refresh"] > 0 and kinds["rpc_retry"] > 0
    assert sum(client.map_refreshes for client in workers) > 0
    assert sum(client.op_metrics["kv_get"].retries for client in workers) > 0
    assert sum(client.faults_injected for client in workers) > 0
    assert gateway.tenant_qos("steady").delayed > 0


def _shed_and_retry():
    """A QoS tenant covering ``kv_get`` on a system with retry on: one
    uncovered put and open, a get on the burst token, then a get that is
    shed and retried.  Returns the client, its admission and every
    ``reserve`` call as ``(op, now)``."""
    base = ClusterConfig(n_server_nodes=1, n_client_nodes=1, seed=0)
    fault = FaultInjectionConfig(enabled=True, rate=0.0)  # retry on, no fault
    cluster, system, pool = build_deployment(
        dataclasses.replace(base, daos=dataclasses.replace(base.daos, fault_injection=fault))
    )
    # Depth 0: an op that finds the bucket empty is shed at once.  One token
    # accrues in 500 us, over the 200 us first backoff.
    qos = QosAdmission("t", QosPolicy(rate=2000.0, burst=1.0, max_queue_depth=0), ops=("kv_get",))
    client = system.make_client(cluster.client_addresses(1)[0], middleware=qos)
    offers = []
    reserve = qos.reserve

    def counting_reserve(client, op, tokens):
        offers.append((op, client.sim.now))
        return reserve(client, op, tokens)

    qos.reserve = counting_reserve

    def flow():
        container = yield from client.container_create(pool, label="c")
        kv = yield from client.kv_open(container, ObjectId(1, 1), OC_S1)
        yield from client.kv_put(kv, b"k", b"v")
        assert (yield from client.kv_get(kv, b"k")) == b"v"  # the burst token
        assert (yield from client.kv_get(kv, b"k")) == b"v"  # shed, then retried

    run_process(cluster, flow())
    return client, qos, offers


def test_shed_is_retried_and_pays_a_fresh_token():
    """Admission sits inside retry: with retry on, a shed op backs off and
    is re-offered, and each re-offer reserves a token again."""
    client, qos, offers = _shed_and_retry()
    retries = client.op_metrics["kv_get"].retries
    times = [now for op, now in offers if op == "kv_get"]
    assert qos.shed == retries > 0
    assert len(times) == 2 + retries and times == sorted(set(times))
    assert qos.admitted == 2 and qos.bucket.waiting_debt == 0


def test_uncovered_ops_never_reserve():
    """The launcher decides the token count, so admission runs only for a
    covered attempt: an op the tenant does not meter never calls
    ``reserve``, even on a system whose policy runs every op through the
    attempt loop."""
    client, _qos, offers = _shed_and_retry()
    retries = client.op_metrics["kv_get"].retries
    assert [op for op, _ in offers] == ["kv_get"] * (2 + retries)


def test_hot_promotion_and_replicated_reads_bit_identical():
    cluster, gateway = deploy(
        GatewayConfig(cache_capacity=0, replication=2, promote_threshold=2)
    )
    gateway.add_tenant("ops")
    for _ in range(3):
        serve(gateway, "ops", serving_request(5, N_FIELDS))
    cluster.sim.run()  # drain the background promoter
    assert gateway.promotions == 1
    assert len(gateway.promoted_fields) == 1
    key = gateway.promoted_fields[0]
    assert key["step"] == "5"
    # Reads from every worker (spread over replicas) stay bit-identical.
    expected = field_payload(key, FIELD_SIZE).to_bytes()
    sim = cluster.sim
    payloads = []

    def _read(worker):
        fieldio = gateway._tenants["ops"].workers[worker]
        payload = yield from fieldio.read(key)
        payloads.append(payload.to_bytes())

    for worker in range(4):
        sim.run(until=sim.process(_read(worker)))
    assert payloads == [expected] * 4


def test_no_promotion_without_replication():
    _, gateway = deploy(GatewayConfig(cache_capacity=0, promote_threshold=1))
    gateway.add_tenant("ops")
    serve(gateway, "ops", serving_request(0, N_FIELDS))
    assert gateway.promotions == 0
    assert gateway.promoted_fields == ()


def test_gateway_stats_rollup():
    _, gateway = deploy(GatewayConfig(cache_capacity=1 * MiB))
    gateway.add_tenant("a")
    gateway.add_tenant("b")
    serve(gateway, "a", serving_request(0, N_FIELDS))
    serve(gateway, "b", serving_request(0, N_FIELDS))
    stats = gateway.stats()
    assert stats["requests"] == 2
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert stats["shed"] == 0
