"""One body per op, one interpreter: identity rails.

Every op has a single leg-dialect body (``DaosClient._do_*``) that runs on
a pooled ``_FastDriver``: launched bare (no stage but tracing, no tracer
installed; the hot metadata ops build no Request) or as a Request inside
the client's middleware stages (``DaosClient._launch_request``).  Which
launch runs it, and whether an uncontended grant is elided or travels as a
real event, must never show in the outcome: the same bits -- event
timings, return values, per-op metrics, final clock, ``rpc`` spans.

The reference timelines are frozen below as SHA-256 goldens.  The first
seven were recorded at the last commit that still carried the Event-dialect
``_do_*`` twins (the de-facto timeline oracle), on both of its paths
(``REPRO_RPC_FAST`` unset and ``=0``, equal digests); they pin those
timelines now that the twins are gone.  The rest were recorded before data
ops, multi-ops, event-queue submissions and every middleware configuration
moved from an in-process ``yield from`` chain onto the driver: an engine
failure that makes the pool-map refresh act, one QoS admission object
shared by every client so that it delays and sheds, and a data-plane storm
(array I/O on single-shard, multi-shard and replicated classes, multi-ops,
event-queue submissions) under each middleware configuration.  Each
scenario is checked as configured, on the request path where a plain one
launches bare (a pass-through middleware forces the Request), and again
with every grant forced through the event queue.  At the end of every
scenario no op is in flight, so every driver and lane event is back on its
free-list.
"""

import dataclasses
import hashlib

import pytest

from repro.bench.runner import build_deployment
from repro.config import ClusterConfig, EngineFailureEvent, FaultInjectionConfig
from repro.daos.errors import ServiceBusyError, SimulatedFaultError, TargetDownError
from repro.daos.locks import RWLock
from repro.daos.objclass import OC_RP_2G1, OC_S1, OC_SX
from repro.daos.oid import ObjectId
from repro.daos.payload import PatternPayload
from repro.daos.rpc import Middleware, TracingMiddleware
from repro.serving.qos import QosAdmissionMiddleware, QosPolicy
from repro.simulation.resources import Resource
from repro.simulation.trace import Tracer

N_CLIENTS = 4
OPS = 12
#: Data-plane storm: rounds per client, and a stripe cell small enough that
#: the SX arrays span several shards at test-sized payloads.
DATA_ROUNDS = 3
CELL = 64 * 1024
#: Write sizes by array index: S1 (one shard), SX (four shards), RP_2G1
#: (one shard on two replicas).
DATA_SIZES = (CELL // 2, 3 * CELL + 512, CELL)
#: What a storm op may raise under the configurations below.
FAILURES = (SimulatedFaultError, TargetDownError)

#: sha256 of each scenario's fingerprint (``_digest``).  The first seven
#: were frozen at the parent of the commit that deleted the
#: ``_do_*``/``_fast_*`` twins; the rest at the parent of the commit that
#: made ``_FastDriver`` the only interpreter.
GOLDEN = {
    "plain-daos": "2450c9f3293abd2172939197346f3906bf3836fd912baf91a2dc14496471b69a",
    "plain-posixfs": "3dc6f70385396466f5638873ec71c4726c1ff8119293feb429b4c8ce29a0de07",
    "pool_map_refresh": "2450c9f3293abd2172939197346f3906bf3836fd912baf91a2dc14496471b69a",
    "retry_fault": "6ae69be97189cf30810279973bd954e5414bc5afa86b47c4bf12830c4c77aa66",
    "qos-daos": "2450c9f3293abd2172939197346f3906bf3836fd912baf91a2dc14496471b69a",
    "qos-posixfs": "3dc6f70385396466f5638873ec71c4726c1ff8119293feb429b4c8ce29a0de07",
    "mid_run_tracer": "5478cce516a8438c1b89d51798e6eae01b36e4a3820ad7c0ef33f81713549881",
    "health_failure": "ef62a9e469b770f16666b9d7f6796f14d3a030b0e4ce1ae149eac7f5b1fe83f6",
    "qos_shared": "becf8ee5eeccf49a3e20295ac87109a38e1f97a9c395bb9772f565259953f2d4",
    "data-plain-daos": "52d3b6683e4833a2d643040ab9ed122bfcc77a0b774e5cc41f20cda6a66c93f1",
    "data-plain-posixfs": "a963daeca1196d40d1ceed821aa4c2f11fdf418b316267fae5785bb6624a3a4f",
    "data-retry_fault": "abdc2fdf21911f41605e7e9727aafdf6bee90dcbaa55446b711a36fd70b8731d",
    "data-health_failure": "1c383a0cbf982fb8dd0d224690d36954fab2596e54b120d03efe5fafd352f50f",
    "data-qos_shared": "ede0adc42d7e33397c1ffae35465b0cf1cfd1978fb11bc62c1304d0c10c90944",
    "data-traced_retry_fault": "1eea5d9358cbce48ce662efac87e9368154f5bdd11ecc5738d8b7686977f7954",
}


def _fingerprint(sim, clients, trajectory, results, shared_kv):
    return {
        "now": float(sim.now).hex(),
        "trajectory": [(rank, op, t.hex()) for rank, op, t in trajectory],
        "results": results,
        "stats": [sorted(c.stats.items()) for c in clients],
        "op_metrics": [
            [(op, sorted(entry.as_dict().items())) for op, entry in sorted(c.op_metrics.items())]
            for c in clients
        ],
        "shared_keys": sorted(shared_kv.keys()),
    }


def _digest(fingerprint, spans) -> str:
    """Canonical hash: every container above is ordered, floats are exact."""
    canonical = repr(sorted(fingerprint.items())) + repr(spans)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _clients(system, cluster, chain_factory):
    return [
        system.make_client(
            address,
            middleware=chain_factory(system) if chain_factory else None,
        )
        for address in cluster.client_addresses(N_CLIENTS)
    ]


def _run_storm(backend="daos", config=None, chain_factory=None, mid_run_hook=None):
    """One deterministic metadata storm; returns its fingerprint, system and clients.

    ``chain_factory(system)`` builds a middleware list per client (None =
    the client default).  ``mid_run_hook(sim)`` fires from inside rank 0
    halfway through its ops (used to install a tracer mid-run).
    """
    config = config or ClusterConfig(n_server_nodes=1, n_client_nodes=1, seed=5)
    cluster, system, pool = build_deployment(config, backend=backend)
    sim = cluster.sim
    clients = _clients(system, cluster, chain_factory)

    def bootstrap():
        container = yield from clients[0].container_create(
            pool, label="fastpath", is_default=True
        )
        # A non-default container so array ops pay the container-touch
        # (pool-service / MDS lookup) leg of the timeline too.
        side = yield from clients[0].container_create(pool, label="fastpath-side")
        shared = yield from clients[0].kv_open(container, ObjectId(1, 9), OC_SX)
        return container, side, shared

    boot = sim.process(bootstrap(), name="boot")
    sim.run(until=boot)
    container, side, shared_kv = boot.value

    trajectory = []
    results = []

    def storm(rank, client):
        # Handles are registered before the open/create RPC, so a faulted
        # opener can recover its object functionally and press on.
        try:
            own = yield from client.kv_open(container, ObjectId(1, 20 + rank), OC_S1)
        except FAILURES:
            own = container.get_object(ObjectId(1, 20 + rank))
        try:
            array = yield from client.array_create(side, OC_S1, ObjectId(2, 40 + rank))
        except FAILURES:
            array = side.get_object(ObjectId(2, 40 + rank))
        for op in range(OPS):
            if mid_run_hook is not None and rank == 0 and op == OPS // 2:
                mid_run_hook(sim)
            key = f"k/{rank}/{op}".encode()
            try:
                yield from client.kv_put(own, key, b"v" * (8 + op))
                value = yield from client.kv_get_or_none(own, key)
                results.append((rank, op, value))
            except SimulatedFaultError:
                # Retry budget exhausted under the fault chain; the failure
                # itself must be bit-identical across interpreters.
                results.append((rank, op, "fault"))
            except TargetDownError:
                results.append((rank, op, "down"))
            # Shared-object put: genuine write-lock contention, so the body
            # must fall back to real grant events here.
            try:
                yield from client.kv_put(shared_kv, f"s/{op}".encode(), b"w")
            except (ServiceBusyError, SimulatedFaultError):
                results.append((rank, op, "shed"))
            except TargetDownError:
                results.append((rank, op, "down"))
            if op % 3 == 0:
                try:
                    present = yield from client.container_exists(pool, "fastpath")
                    results.append((rank, op, present))
                except SimulatedFaultError:
                    results.append((rank, op, "fault"))
            if op % 3 == 1:
                try:
                    handle = yield from client.array_open(side, array.oid)
                    size = yield from client.array_get_size(handle)
                    yield from client.array_close(handle)
                    results.append((rank, op, size))
                except SimulatedFaultError:
                    results.append((rank, op, "fault"))
                except TargetDownError:
                    results.append((rank, op, "down"))
            if op % 4 == 3:
                try:
                    yield from client.kv_remove(own, key)
                except SimulatedFaultError:
                    results.append((rank, op, "fault"))
                except TargetDownError:
                    results.append((rank, op, "down"))
            trajectory.append((rank, op, float(sim.now)))

    workers = [
        sim.process(storm(rank, client), name=f"w{rank}")
        for rank, client in enumerate(clients)
    ]
    sim.run(until=sim.all_of(workers))
    return _fingerprint(sim, clients, trajectory, results, shared_kv), system, clients


def _run_data_storm(
    backend="daos", config=None, chain_factory=None, start_hook=None, classes=None
):
    """One deterministic data-plane storm; returns its fingerprint, system and clients.

    Each client writes and reads back its own array of every class the
    backend has, batches KV puts and gets through one multi-op each, and
    submits a KV put plus a write to one shared array through an event
    queue -- the shared array's write lock is the contended wait.
    ``start_hook(sim)`` runs before the first op (used to install a tracer);
    ``classes`` overrides the array classes.
    """
    cluster, system, pool = build_deployment(config, backend=backend)
    sim = cluster.sim
    if start_hook is not None:
        start_hook(sim)
    clients = _clients(system, cluster, chain_factory)
    if classes is None:
        classes = (OC_S1, OC_SX, OC_RP_2G1) if backend == "daos" else (OC_S1, OC_SX)

    def bootstrap():
        container = yield from clients[0].container_create(
            pool, label="dataplane", is_default=True
        )
        shared = yield from clients[0].array_create(container, OC_S1, ObjectId(3, 1))
        return container, shared

    boot = sim.process(bootstrap(), name="boot")
    sim.run(until=boot)
    container, shared = boot.value

    trajectory = []
    results = []
    completions = []

    def storm(rank, client):
        eq = client.eq_create(f"eq{rank}")
        try:
            kv = yield from client.kv_open(container, ObjectId(1, 60 + rank), OC_S1)
        except FAILURES:
            kv = container.get_object(ObjectId(1, 60 + rank))
        arrays = []
        for index, oclass in enumerate(classes):
            oid = ObjectId(4, 16 * rank + index)
            try:
                array = yield from client.array_create(container, oclass, oid)
            except FAILURES:
                array = container.get_object(oid)
            arrays.append(array)
        for step in range(DATA_ROUNDS):
            for index, array in enumerate(arrays):
                size = DATA_SIZES[index] + 1000 * step
                payload = PatternPayload(size, seed=100 * rank + 10 * index + step)
                try:
                    yield from client.array_write(array, 0, payload, pool)
                    back = yield from client.array_read(array, 0, size)
                    results.append((rank, step, index, back.content_digest().hex()))
                except FAILURES as exc:
                    results.append((rank, step, index, type(exc).__name__))
            items = [(f"d/{rank}/{step}/{i}".encode(), b"x" * (4 + i)) for i in range(4)]
            try:
                yield from client.kv_put_many(kv, items)
                values = yield from client.kv_get_many(kv, [key for key, _ in items])
                results.append((rank, step, "many", values))
            except FAILURES as exc:
                results.append((rank, step, "many", type(exc).__name__))
            eq.submit(client, client.request_kv_put(kv, f"q/{rank}/{step}".encode(), b"eq"))
            eq.submit(
                client,
                client.request_array_write(
                    shared, CELL * rank, PatternPayload(CELL // 2, seed=rank + step), pool
                ),
            )
            for done in (yield from eq.wait_all()):
                completions.append((
                    rank,
                    step,
                    done.op,
                    None if done.ok else type(done.error).__name__,
                    done.submitted.hex(),
                    done.completed.hex(),
                ))
            trajectory.append((rank, step, float(sim.now)))

    workers = [
        sim.process(storm(rank, client), name=f"w{rank}")
        for rank, client in enumerate(clients)
    ]
    sim.run(until=sim.all_of(workers))
    fingerprint = {
        "now": float(sim.now).hex(),
        "trajectory": [(rank, step, t.hex()) for rank, step, t in trajectory],
        "results": results,
        "completions": completions,
        "stats": [sorted(c.stats.items()) for c in clients],
        "op_metrics": [
            [(op, sorted(entry.as_dict().items())) for op, entry in sorted(c.op_metrics.items())]
            for c in clients
        ],
        "pool": [pool.target_used(target) for target in range(system.n_targets)],
        "faults": [(c.faults_injected, c.map_refreshes) for c in clients],
    }
    return fingerprint, system, clients


def _config(n_server_nodes=1, **overrides) -> ClusterConfig:
    base = ClusterConfig(n_server_nodes=n_server_nodes, n_client_nodes=1, seed=5)
    return dataclasses.replace(base, daos=dataclasses.replace(base.daos, **overrides))


def _qos_chain(system):
    return [
        QosAdmissionMiddleware(
            "tenant",
            QosPolicy(rate=5000.0, burst=2.0, max_queue_depth=1),
            ops=("kv_get",),
        ),
        TracingMiddleware(),
    ]


def _shared_qos_chain(policy, ops):
    """A chain factory whose clients all meter against one admission object."""
    qos = QosAdmissionMiddleware("tenant", policy, ops=ops)
    return lambda system: [qos, TracingMiddleware()]


def _pass_through_chain(system):
    """The default stages plus a do-nothing middleware: same timeline, but
    no longer bare, so every op is launched as a Request through them."""
    return [Middleware(), TracingMiddleware()]


def _health(at):
    """Health on, with engine 1 failing ``at`` seconds into the run."""
    return dataclasses.replace(
        ClusterConfig().daos.health,
        enabled=True,
        events=(EngineFailureEvent(at=at, engine=1, kind="fail"),),
    )


def _scenario(name):
    """Storm function and keyword arguments of one frozen configuration."""
    data = name.startswith("data-")
    kind, _, backend = name.removeprefix("data-").partition("-")
    fault = FaultInjectionConfig(enabled=True, rate=0.2, seed=11)
    if data:
        cell = dict(stripe_cell_size=CELL)
        kwargs = dict(storm=_run_data_storm, config=_config(**cell))
        if kind == "plain":
            kwargs["backend"] = backend
        elif kind in ("retry_fault", "traced_retry_fault"):
            kwargs["config"] = _config(fault_injection=fault, **cell)
        elif kind == "health_failure":
            kwargs["config"] = _config(health=_health(0.004), **cell)
            # No SX in the golden: it was recorded when a multi-shard write
            # whose stale view routed two shards to the lost engine stopped
            # the simulator.  test_stale_multi_shard_write_completes runs
            # this scenario with SX.
            kwargs["classes"] = (OC_S1, OC_RP_2G1)
        else:
            assert kind == "qos_shared"
            kwargs["chain_factory"] = _shared_qos_chain(
                QosPolicy(rate=4000.0, burst=2.0, max_queue_depth=1),
                ops=("kv_put", "array_read"),
            )
        return kwargs
    if kind == "plain":
        return dict(backend=backend)
    if kind == "qos":
        return dict(backend=backend, chain_factory=_qos_chain)
    if kind == "qos_shared":
        return dict(
            chain_factory=_shared_qos_chain(
                QosPolicy(rate=2000.0, burst=1.0, max_queue_depth=1), ops=("kv_get",)
            )
        )
    if kind == "pool_map_refresh":
        # Health-enabled stages: [refresh, tracing].
        health = dataclasses.replace(ClusterConfig().daos.health, enabled=True)
        return dict(config=_config(n_server_nodes=2, health=health))
    if kind == "health_failure":
        # The same chain, with an engine lost mid-storm: stale clients are
        # rejected, refetch the map, and retry or surface the loss.
        return dict(config=_config(n_server_nodes=2, health=_health(0.006)))
    if kind == "retry_fault":
        # Faulty stages: [retry, tracing, fault].
        return dict(config=_config(fault_injection=fault))
    assert kind == "mid_run_tracer"
    return {}


def _assert_pooled(system):
    drivers = system.fast_drivers
    assert drivers and all(driver._body is None for driver in drivers)
    assert len(system.cluster.sim._lane_free) == len(drivers)


def _run(name, **overrides):
    """Run scenario ``name``; returns ``(digest, system, clients, rpc spans)``.

    Also the leak rail: every op has completed, so each launch's driver and
    lane event are back on their free-lists, in equal numbers -- and every
    scenario launched some.
    """
    tracers = []

    def install(sim):
        sim.tracer = Tracer()
        tracers.append(sim.tracer)

    kwargs = {**_scenario(name), **overrides}
    storm = kwargs.pop("storm", _run_storm)
    if name == "mid_run_tracer":
        kwargs["mid_run_hook"] = install
    if name.endswith("traced_retry_fault"):
        kwargs["start_hook"] = install
    fingerprint, system, clients = storm(**kwargs)
    _assert_pooled(system)
    spans = [
        (s.time.hex(), s.kind, sorted(s.fields.items()))
        for tracer in tracers
        for s in tracer.filter("rpc")
    ]
    return _digest(fingerprint, spans), system, clients, spans


@pytest.mark.parametrize("backend", ["daos", "posixfs"])
def test_plain_chain_identity(backend):
    """Bare launch vs request path: default clients launch the hot bodies
    bare, a pass-through middleware sends the same bodies through
    ``_launch_request``."""
    name = f"plain-{backend}"
    bare, _, clients, _ = _run(name)
    assert all(client._bare for client in clients)
    on_request, _, clients, _ = _run(name, chain_factory=_pass_through_chain)
    assert not any(client._bare for client in clients)
    assert bare == on_request == GOLDEN[name]


def _assert_on_request_path(name):
    digest, _, clients, _ = _run(name)
    assert not any(client._bare for client in clients)
    assert digest == GOLDEN[name]


def test_pool_map_refresh_chain_identity():
    """Health-enabled stages ([refresh, tracing]): every op is a Request."""
    _assert_on_request_path("pool_map_refresh")


def test_retry_fault_chain_identity():
    """Faulty stages ([retry, tracing, fault]): every op is a Request."""
    _assert_on_request_path("retry_fault")


@pytest.mark.parametrize("backend", ["daos", "posixfs"])
def test_qos_chain_identity(backend):
    """A QoS stage (serving tier): every op is a Request."""
    _assert_on_request_path(f"qos-{backend}")


def test_mid_run_tracer_installation_falls_back():
    """Installing a tracer mid-run moves live bare clients onto the request
    path at their next op, so the span stream is complete from there."""
    digest, _, clients, spans = _run("mid_run_tracer")
    assert all(client._bare for client in clients)
    assert spans, "tracer must capture spans after mid-run installation"
    assert digest == GOLDEN["mid_run_tracer"]


@pytest.mark.parametrize("name", ["health_failure", "data-health_failure"])
def test_engine_failure_makes_the_refresh_act(name):
    """An engine lost mid-storm: stale clients refetch the pool map."""
    digest, _, clients, _ = _run(name)
    assert any(client.map_refreshes > 0 for client in clients)
    assert digest == GOLDEN[name]


def test_stale_multi_shard_write_completes():
    """An SX write whose stale pool-map view sends shards to the lost
    engine: a shard process fails while later shards are still being
    issued.  The write fails over to the refresh instead of stopping the
    simulator: every SX read returns what was written, and once the engine
    is gone an SX op surfaces the loss (SX keeps no replica)."""
    kwargs = {**_scenario("data-health_failure"), "classes": (OC_S1, OC_SX, OC_RP_2G1)}
    storm = kwargs.pop("storm")
    fingerprint, system, clients = storm(**kwargs)
    _assert_pooled(system)
    assert any(client.map_refreshes > 0 for client in clients)
    sx_reads = [
        (rank, step, result)
        for rank, step, index, result in fingerprint["results"]
        if index == 1
    ]
    assert len(sx_reads) == N_CLIENTS * DATA_ROUNDS
    read_back = 0
    for rank, step, result in sx_reads:
        if result == "TargetDownError":
            continue
        written = PatternPayload(DATA_SIZES[1] + 1000 * step, seed=100 * rank + 10 + step)
        assert result == written.content_digest().hex()
        read_back += 1
    assert 0 < read_back < len(sx_reads)


@pytest.mark.parametrize("name", ["qos_shared", "data-qos_shared"])
def test_shared_qos_delays_and_sheds(name):
    """One admission object for every client, over its rate: it both paces
    and sheds, so the QoS stage's waits and failures are in the golden."""
    digest, _, clients, _ = _run(name)
    qos = {
        id(stage): stage
        for client in clients
        for stage in client.middleware
        if isinstance(stage, QosAdmissionMiddleware)
    }
    assert len(qos) == 1
    (stage,) = qos.values()
    assert stage.delayed > 0 and stage.shed > 0
    assert digest == GOLDEN[name]


@pytest.mark.parametrize("backend", ["daos", "posixfs"])
def test_data_storm_identity(backend):
    """The data plane, multi-ops and event-queue submissions on the default
    stages, and again with a pass-through middleware in them."""
    name = f"data-plain-{backend}"
    digest, _, _, _ = _run(name)
    on_request, _, _, _ = _run(name, chain_factory=_pass_through_chain)
    assert digest == on_request == GOLDEN[name]


def test_data_storm_retry_fault_identity():
    digest, _, clients, _ = _run("data-retry_fault")
    assert sum(client.faults_injected for client in clients) > 0
    assert digest == GOLDEN["data-retry_fault"]


def test_traced_retry_fault_one_span_per_attempt():
    """A tracer installed from the start under retry + fault: one ``rpc``
    span per attempt of every op that is never a multi-op's sub-op."""
    digest, _, clients, spans = _run("data-traced_retry_fault")
    per_op = {}
    for _time, _kind, fields in spans:
        op = dict(fields)["op"]
        per_op[op] = per_op.get(op, 0) + 1
    attempts = {}
    for client in clients:
        for op, entry in client.op_metrics.items():
            attempts[op] = attempts.get(op, 0) + entry.count + entry.retries
    for op in ("kv_put", "kv_get"):  # also counted as multi-op sub-ops
        del attempts[op]
        per_op.pop(op, None)
    assert sum(client.faults_injected for client in clients) > 0
    assert per_op == attempts
    assert digest == GOLDEN["data-traced_retry_fault"]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_elided_grants_match_real_grants(name, monkeypatch):
    """Elision vs real grants: with every ``try_acquire`` refused, each
    service slot and object lock is granted by a queued event instead."""
    monkeypatch.setattr(Resource, "try_acquire", lambda self: False)
    monkeypatch.setattr(RWLock, "try_acquire_write", lambda self: False)
    monkeypatch.setattr(RWLock, "try_acquire_read", lambda self: False)
    digest, _, _, _ = _run(name)
    assert digest == GOLDEN[name]
    if "plain" in name:
        on_request, _, _, _ = _run(name, chain_factory=_pass_through_chain)
        assert on_request == GOLDEN[name]
