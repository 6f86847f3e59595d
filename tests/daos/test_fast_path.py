"""One body per op, one interpreter: identity rails.

Every op has a single leg-dialect body (``DaosClient._do_*``) that runs on
a pooled ``_FastDriver``, and ``DaosClient._call``, the one launcher, picks
how it launches: bare (no policy applies to it, whether or not a tracer is
installed) or inside the client's attempt loop (``DaosClient._attempt``).  Which launch runs it, whether a free grant is
taken inline or queued as a wake,
and whether a tracer watches, must never show in the outcome: the same bits
-- event timings, return values, per-op metrics, final clock.  The driver
emits one ``rpc`` span per launched op (sub-ops of a multi-op and
event-queue submissions included), so a traced run's span stream is pinned
apart from its outcome: every traced scenario's span-free digest equals its
untraced twin's golden.

The reference timelines are frozen below as SHA-256 goldens.  The first
seven were recorded at the last commit that still carried the Event-dialect
``_do_*`` twins (the de-facto timeline oracle), on both of its paths
(``REPRO_RPC_FAST`` unset and ``=0``, equal digests); they pin those
timelines now that the twins are gone.  The rest were recorded before data
ops, multi-ops, event-queue submissions and every policy configuration
moved from an in-process ``yield from`` chain onto the driver: an engine
failure that makes the pool-map refresh act, one QoS admission object
shared by every client so that it delays and sheds, and a data-plane storm
(array I/O on single-shard, multi-shard and replicated classes, multi-ops,
event-queue submissions) under each policy configuration.  Each scenario
is checked as configured, through the attempt loop where a plain one
launches bare (an ample admission covering every op never waits, so it
only forces the loop), and again with every grant forced through the
event queue as a queued wake, and with a tracer installed from the start.
At the end of every scenario no op is in flight, so every driver is back
on its free-list and nothing is left queued.
"""

import dataclasses
import hashlib
from collections import Counter
from typing import NamedTuple

import pytest

import repro.daos.client as client_module
from repro.bench.runner import build_deployment
from repro.config import ClusterConfig, EngineFailureEvent, FaultInjectionConfig
from repro.daos.errors import ServiceBusyError, SimulatedFaultError, TargetDownError
from repro.daos.locks import RWLock
from repro.daos.objclass import OC_RP_2G1, OC_S1, OC_SX
from repro.daos.oid import ObjectId
from repro.daos.payload import PatternPayload
from repro.daos.rpc import DATA_OPS
from repro.serving.qos import QosAdmission, QosPolicy
from repro.simulation.events import Event, Timeout
from repro.simulation.resources import Resource
from repro.simulation.trace import Tracer
from tests.conftest import run_process

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
#: made ``_FastDriver`` the only interpreter.  The two traced scenarios'
#: digests also cover their ``rpc`` spans; their span part was re-recorded
#: when the span moved from a middleware stage onto the op driver (one span
#: per op rather than per attempt, sub-ops traced, no ``target`` field).
#: ``health_retry_fault`` was frozen on the middleware chain, before its
#: stages became one attempt loop on the driver.
GOLDEN = {
    "plain-daos": "2450c9f3293abd2172939197346f3906bf3836fd912baf91a2dc14496471b69a",
    "plain-posixfs": "3dc6f70385396466f5638873ec71c4726c1ff8119293feb429b4c8ce29a0de07",
    "pool_map_refresh": "2450c9f3293abd2172939197346f3906bf3836fd912baf91a2dc14496471b69a",
    "retry_fault": "6ae69be97189cf30810279973bd954e5414bc5afa86b47c4bf12830c4c77aa66",
    "qos-daos": "2450c9f3293abd2172939197346f3906bf3836fd912baf91a2dc14496471b69a",
    "qos-posixfs": "3dc6f70385396466f5638873ec71c4726c1ff8119293feb429b4c8ce29a0de07",
    "mid_run_tracer": "95fea5668b2c7a2b10044f14b7ab2479ac542deb04048383bc6094218c2d2402",
    "health_failure": "ef62a9e469b770f16666b9d7f6796f14d3a030b0e4ce1ae149eac7f5b1fe83f6",
    "health_retry_fault": "c5ecfdfd96f02749bca5839610f9c4ecc4b2f2d8f77c5e8179e7a3d43949b205",
    "qos_shared": "becf8ee5eeccf49a3e20295ac87109a38e1f97a9c395bb9772f565259953f2d4",
    "data-plain-daos": "52d3b6683e4833a2d643040ab9ed122bfcc77a0b774e5cc41f20cda6a66c93f1",
    "data-plain-posixfs": "a963daeca1196d40d1ceed821aa4c2f11fdf418b316267fae5785bb6624a3a4f",
    "data-retry_fault": "abdc2fdf21911f41605e7e9727aafdf6bee90dcbaa55446b711a36fd70b8731d",
    "data-health_failure": "1c383a0cbf982fb8dd0d224690d36954fab2596e54b120d03efe5fafd352f50f",
    "data-qos_shared": "ede0adc42d7e33397c1ffae35465b0cf1cfd1978fb11bc62c1304d0c10c90944",
    "data-traced_retry_fault": "6ee06326c8a8a7de9079c85457e2bcf788b5bd9b160080cf8b59bb305753d3b6",
}
#: The traced scenarios and their untraced twins: tracing must not move a
#: bit of the outcome, so a traced run's span-free digest is the twin's.
TWIN = {"mid_run_tracer": "plain-daos", "data-traced_retry_fault": "data-retry_fault"}


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


def _clients(system, cluster, admission):
    return [
        system.make_client(address, middleware=admission(system) if admission else None)
        for address in cluster.client_addresses(N_CLIENTS)
    ]


def _run_storm(
    backend="daos", config=None, admission=None, start_hook=None, mid_run_hook=None
):
    """One deterministic metadata storm; returns its fingerprint, system and clients.

    ``admission(system)`` gives each client its QoS admission (None: no
    admission).  ``start_hook(sim)`` runs before the first op, and
    ``mid_run_hook(sim)`` fires from inside rank 0 halfway through its ops
    (both used to install a tracer).
    """
    config = config or ClusterConfig(n_server_nodes=1, n_client_nodes=1, seed=5)
    cluster, system, pool = build_deployment(config, backend=backend)
    sim = cluster.sim
    if start_hook is not None:
        start_hook(sim)
    clients = _clients(system, cluster, admission)

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
    backend="daos", config=None, admission=None, start_hook=None, classes=None
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
    clients = _clients(system, cluster, admission)
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
            items = [(kv, f"d/{rank}/{step}/{i}".encode(), b"x" * (4 + i)) for i in range(4)]
            try:
                yield from client.kv_put_many(items)
                values = yield from client.kv_get_many([(kv, key) for _, key, _ in items])
                results.append((rank, step, "many", values))
            except FAILURES as exc:
                results.append((rank, step, "many", type(exc).__name__))
            eq.launch(client.kv_put(kv, f"q/{rank}/{step}".encode(), b"eq"), op="kv_put")
            eq.launch(
                client.array_write(
                    shared, CELL * rank, PatternPayload(CELL // 2, seed=rank + step), pool
                ),
                op="array_write",
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


def _qos_admission(system):
    """A private admission per client, covering ``kv_get``."""
    return QosAdmission(
        "tenant", QosPolicy(rate=5000.0, burst=2.0, max_queue_depth=1), ops=("kv_get",)
    )


def _shared_admission(policy, ops):
    """An admission factory whose clients all meter against one object."""
    qos = QosAdmission("tenant", policy, ops=ops)
    return lambda system: qos


def _ample_admission(system):
    """An admission covering every op whose bucket never runs dry: the same
    timeline, but no op launches bare -- each runs the attempt loop."""
    return QosAdmission("ample", QosPolicy(rate=1e12, burst=1e12))


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
            kwargs["admission"] = _shared_admission(
                QosPolicy(rate=4000.0, burst=2.0, max_queue_depth=1),
                ops=("kv_put", "array_read"),
            )
        return kwargs
    if kind == "plain":
        return dict(backend=backend)
    if kind == "qos":
        return dict(backend=backend, admission=_qos_admission)
    if kind == "qos_shared":
        return dict(
            admission=_shared_admission(
                QosPolicy(rate=2000.0, burst=1.0, max_queue_depth=1), ops=("kv_get",)
            )
        )
    if kind == "pool_map_refresh":
        # Health on: the map refresh.
        health = dataclasses.replace(ClusterConfig().daos.health, enabled=True)
        return dict(config=_config(n_server_nodes=2, health=health))
    if kind == "health_failure":
        # The same policy, with an engine lost mid-storm: stale clients are
        # rejected, refetch the map, and retry or surface the loss.
        return dict(config=_config(n_server_nodes=2, health=_health(0.006)))
    if kind == "health_retry_fault":
        # Every default policy at once: the refresh outermost, retry and
        # fault injection inside it, with an engine lost mid-storm.
        return dict(
            config=_config(n_server_nodes=2, health=_health(0.006), fault_injection=fault)
        )
    if kind == "retry_fault":
        # Fault injection on: retry, then fault injection.
        return dict(config=_config(fault_injection=fault))
    assert kind == "mid_run_tracer"
    return {}


def _assert_pooled(system):
    drivers = system.fast_drivers
    assert drivers and all(driver._generator is None for driver in drivers)
    assert system.cluster.sim.pending == 0


class _Outcome(NamedTuple):
    #: The scenario's digest: its fingerprint and, on a traced scenario
    #: (``TWIN``), its ``rpc`` spans -- the ``GOLDEN`` value.
    digest: str
    #: The fingerprint alone: on a traced run, the untraced twin's golden.
    untraced: str
    system: object
    clients: list
    #: Every trace record of the run (empty when no tracer was installed).
    records: list
    #: When the tracer was installed (``None``: never).
    traced_from: object


def _run(name, trace=False, **overrides) -> _Outcome:
    """Run scenario ``name``; ``trace=True`` installs a tracer from the
    start on an untraced one (its digest stays span-free).

    Also the leak rail: every op has completed, so each launch's driver is
    back on the free-list with no body and no wake is left queued -- and
    every scenario launched some.
    """
    tracers = []

    def install(sim):
        sim.tracer = Tracer()
        tracers.append((sim.now, sim.tracer))

    kwargs = {**_scenario(name), **overrides}
    storm = kwargs.pop("storm", _run_storm)
    if name == "mid_run_tracer":
        kwargs["mid_run_hook"] = install
    elif trace or name in TWIN:
        kwargs["start_hook"] = install
    fingerprint, system, clients = storm(**kwargs)
    _assert_pooled(system)
    records = [record for _, tracer in tracers for record in tracer]
    spans = [
        (s.time.hex(), s.kind, sorted(s.fields.items())) for s in records if s.kind == "rpc"
    ]
    return _Outcome(
        _digest(fingerprint, spans if name in TWIN else []),
        _digest(fingerprint, []),
        system,
        clients,
        records,
        tracers[0][0] if tracers else None,
    )


def _assert_one_span_per_op(records, clients):
    """Every launched op -- sub-ops and event-queue submissions included --
    has exactly one ``rpc`` span, and every retry and injected fault one
    record: the span stream counts what the op table counts."""
    spans = [record for record in records if record.kind == "rpc"]
    kinds = Counter(record.kind for record in records)
    launched, failed = Counter(), Counter()
    retries = faults = 0
    for client in clients:
        for op, entry in client.op_metrics.items():
            launched[op] += entry.count
            failed[op] += entry.errors
            retries += entry.retries
            faults += entry.faults_injected
    assert Counter(span["op"] for span in spans) == launched
    assert Counter(span["op"] for span in spans if span["status"] != "ok") == +failed
    assert kinds["rpc_retry"] + kinds["rpc_map_refresh"] == retries
    assert kinds["rpc_fault"] == faults
    for span in spans:
        assert span["start"] <= span["end"] == span.time
        assert span["op_kind"] == ("data" if span["op"] in DATA_OPS else "metadata")
        assert set(span.fields) == {"op", "op_kind", "nbytes", "start", "end", "status"}


def _launched(clients, ops=None) -> Counter:
    """Ops the clients launched (only ``ops``, when given)."""
    launched = Counter()
    for client in clients:
        for op, entry in client.op_metrics.items():
            if ops is None or op in ops:
                launched[op] += entry.count
    return +launched


@pytest.mark.parametrize("backend", ["daos", "posixfs"])
def test_plain_chain_identity(backend, attempts):
    """Bare launch vs the attempt loop: default clients launch every body
    bare; a tenant admission with ample rate, covering every op, runs each
    op through the loop once and yields nothing (an admission with zero
    wait), so the timeline is the plain golden."""
    name = f"plain-{backend}"
    bare = _run(name)
    assert not attempts
    attempted = _run(name, admission=_ample_admission)
    assert attempts == _launched(attempted.clients)
    for client in attempted.clients:
        assert client._qos.admitted == sum(_launched([client]).values())
    assert bare.digest == attempted.digest == GOLDEN[name]


def _assert_attempted(name, attempts, ops=None):
    """Scenario ``name`` runs each launched op (of ``ops``, when given)
    through the attempt loop once, and keeps its golden."""
    outcome = _run(name)
    assert attempts and attempts == _launched(outcome.clients, ops)
    assert outcome.digest == GOLDEN[name]


def test_pool_map_refresh_chain_identity(attempts):
    """Health on: every op runs the attempt loop."""
    _assert_attempted("pool_map_refresh", attempts)


def test_retry_fault_chain_identity(attempts):
    """Fault injection on: every op runs the attempt loop."""
    _assert_attempted("retry_fault", attempts)


@pytest.mark.parametrize("backend", ["daos", "posixfs"])
def test_qos_chain_identity(backend, attempts):
    """A tenant admission covering ``kv_get`` (serving tier): the covered
    ops run the attempt loop, every other op launches bare."""
    _assert_attempted(f"qos-{backend}", attempts, ops=("kv_get",))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_tracing_is_bit_invisible_and_spans_every_op(name):
    """A tracer installed from the start (``mid_run_tracer``: halfway, as
    configured) moves no bit of any scenario: the span-free digest is the
    untraced twin's golden.  From the start, the span stream counts what
    the op table counts: one ``rpc`` span per launched op, one record per
    retry and injected fault."""
    outcome = _run(name, trace=True)
    assert outcome.untraced == GOLDEN[TWIN.get(name, name)]
    if name != "mid_run_tracer":
        _assert_one_span_per_op(outcome.records, outcome.clients)


def test_mid_run_tracer_installation_keeps_clients_bare(attempts):
    """Installing a tracer mid-run changes no client's launch: every op
    stays bare, and spans start at the next op that finishes -- ops already
    in flight at the installation included."""
    outcome = _run("mid_run_tracer")
    assert not attempts
    at = outcome.traced_from
    spans = [record for record in outcome.records if record.kind == "rpc"]
    assert spans and all(span["end"] >= at for span in spans)
    assert any(span["start"] < at for span in spans)
    assert outcome.digest == GOLDEN["mid_run_tracer"]


def _every_op(client, pool, other):
    """Run every public op of ``client`` once, one multi-op of two sub-ops
    of each kind included.  ``other`` is a container the client has no
    handle for, so its first open is a real one."""
    container = yield from client.container_create(pool, label="every-op")
    yield from client.pool_connect(pool)
    yield from client.container_open(pool, other.uuid)
    yield from client.container_open(pool, other.uuid)  # cached: no launch
    yield from client.container_exists(pool, "every-op")
    kv = yield from client.kv_open(container, ObjectId(1, 3), OC_SX)
    yield from client.kv_put(kv, b"key", b"value")
    yield from client.kv_get(kv, b"key")
    yield from client.kv_get_or_none(kv, b"absent")
    yield from client.kv_put_many([(kv, b"a", b"1"), (kv, b"b", b"2")])
    yield from client.kv_get_many([(kv, b"a"), (kv, b"absent")])
    yield from client.kv_list(kv)
    yield from client.kv_remove(kv, b"key")
    array = yield from client.array_create(container, OC_SX)
    yield from client.array_write(array, 0, b"x" * 4096, pool)  # bytes: coerced
    yield from client.array_read(array, 0, 4096)
    yield from client.array_get_size(array)
    yield from client.array_set_size(array, 2048, pool)
    yield from client.array_close(array)
    yield from client.array_open(container, array.oid)
    yield from client.array_punch(container, array, pool)
    yield from client.container_destroy(pool, "every-op")


@pytest.mark.parametrize("backend", ["daos", "posixfs"])
def test_one_launch_decision_for_every_op(backend, monkeypatch, attempts):
    """Every op but a multi-op's sub-ops is launched by ``_call``; a bare
    client runs none through the attempt loop, with or without a tracer
    installed; with one, every launched op emits exactly one span.  A
    tenant admission covering ``kv_get`` sends exactly those ops and the
    ``kv_get`` multi-op through the loop, and meters one token per lookup,
    batched or not."""
    config = ClusterConfig(n_server_nodes=1, n_client_nodes=1, seed=5)
    cluster, system, pool = build_deployment(config, backend=backend)
    owner, address = cluster.client_addresses(2)
    other = run_process(
        cluster, system.make_client(owner).container_create(pool, label="other")
    )
    called = Counter()
    call = client_module.DaosClient._call

    def counting(self, op, *args, **kwargs):
        called[op] += 1
        return call(self, op, *args, **kwargs)

    monkeypatch.setattr(client_module.DaosClient, "_call", counting)

    def launched(qos=None):
        called.clear()
        client = system.make_client(address, middleware=qos)
        run_process(cluster, _every_op(client, pool, other))
        stats = client.stats
        assert stats.pop("container_open_cached") == 1
        # The sub-ops (two puts, two gets) launch on the multi-op's body.
        assert called + Counter(kv_put=2, kv_get=2) == stats
        return stats

    untraced = launched()
    assert len(untraced) == 20 and not attempts

    cluster.sim.tracer = tracer = Tracer()
    assert launched() == untraced and not attempts
    assert Counter(span["op"] for span in tracer.filter("rpc")) == untraced
    cluster.sim.tracer = None
    qos = QosAdmission("tenant", QosPolicy(rate=1e12, burst=1e12), ops=("kv_get",))
    assert launched(qos) == untraced
    assert attempts == {"kv_get": untraced["kv_get"] - 2, "kv_get_multi": 1}
    assert qos.admitted == untraced["kv_get"]
    _assert_pooled(system)


@pytest.mark.parametrize("backend", ["daos", "posixfs"])
def test_settled_metadata_ops_construct_no_event(backend, monkeypatch):
    """After one warm-up op has pooled its driver, a bare client's
    uncontended metadata ops on a settled instant build no Event or
    Timeout: each delay is the driver's own wake, each grant is elided."""
    config = ClusterConfig(n_server_nodes=1, n_client_nodes=1, seed=5)
    cluster, system, pool = build_deployment(config, backend=backend)
    (address,) = cluster.client_addresses(1)
    client = system.make_client(address)
    built = []
    counting = [False]

    def counted(init):
        def wrapper(self, *args, **kwargs):
            if counting[0]:
                built.append(type(self).__name__)
            init(self, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(Event, "__init__", counted(Event.__init__))
    monkeypatch.setattr(Timeout, "__init__", counted(Timeout.__init__))

    def ops():
        container = yield from client.container_create(pool, label="settled")
        counting[0] = True
        assert cluster.sim.settled()
        yield from client.container_exists(pool, "settled")
        kv = yield from client.kv_open(container, ObjectId(1, 3), OC_S1)
        yield from client.kv_put(kv, b"key", b"value")
        assert (yield from client.kv_get(kv, b"key")) == b"value"
        yield from client.kv_get_or_none(kv, b"absent")
        yield from client.kv_list(kv)
        yield from client.kv_remove(kv, b"key")
        counting[0] = False

    run_process(cluster, ops())
    assert client.stats["kv_put"] == 1
    assert built == []


@pytest.mark.parametrize("backend", ["daos", "posixfs"])
def test_contended_kv_storm_builds_no_event_beyond_its_processes(backend, monkeypatch):
    """Eight clients put and get one shared KV's keys at the same instants,
    so grants queue on its lock: every grant is a claim that queues the
    waiter's own wake, and the only Events the storm builds are its eight
    processes."""
    config = ClusterConfig(n_server_nodes=1, n_client_nodes=1, seed=5)
    cluster, system, pool = build_deployment(config, backend=backend)
    sim = cluster.sim
    clients = [system.make_client(address) for address in cluster.client_addresses(8)]

    def setup():
        container = yield from clients[0].container_create(pool, label="storm")
        return (yield from clients[0].kv_open(container, ObjectId(1, 3), OC_S1))

    kv = run_process(cluster, setup())
    lock = system.locks.lock(kv.oid).rwlock if backend == "posixfs" else kv.lock
    built = []
    init = Event.__init__

    def counted(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Event, "__init__", counted)

    def rank(client, index):
        for step in range(6):
            key = b"k%d" % (step % 3)
            yield from client.kv_put(kv, key, b"v%d-%d" % (index, step))
            assert (yield from client.kv_get(kv, key)) is not None

    for index, client in enumerate(clients):
        sim.process(rank(client, index))
    sim.run()
    assert built == ["Process"] * len(clients)
    assert lock._queue is not None  # made by the first waiter that queued
    _assert_pooled(system)


@pytest.mark.parametrize("backend", ["daos", "posixfs"])
def test_stats_is_the_op_metrics_count_after_a_storm(backend):
    """``stats`` is derived: once a storm has drained, it is exactly the
    count each op's accumulator observed."""
    for storm in (_run_storm, _run_data_storm):
        _, system, clients = storm(backend=backend, config=_config(stripe_cell_size=CELL))
        _assert_pooled(system)
        for client in clients:
            assert client.op_metrics
            assert client.stats == {op: e.count for op, e in client.op_metrics.items()}


@pytest.mark.parametrize("name", ["health_failure", "data-health_failure"])
def test_engine_failure_makes_the_refresh_act(name):
    """An engine lost mid-storm: stale clients refetch the pool map."""
    outcome = _run(name)
    assert any(client.map_refreshes > 0 for client in outcome.clients)
    assert outcome.digest == GOLDEN[name]


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
    and sheds, so the admission's waits and failures are in the golden."""
    outcome = _run(name)
    qos = {id(client._qos): client._qos for client in outcome.clients}
    assert len(qos) == 1
    (admission,) = qos.values()
    assert admission.delayed > 0 and admission.shed > 0
    assert outcome.digest == GOLDEN[name]


@pytest.mark.parametrize("backend", ["daos", "posixfs"])
def test_data_storm_identity(backend):
    """The data plane, multi-ops and event-queue submissions with no
    policy, and again through the attempt loop (an ample admission)."""
    name = f"data-plain-{backend}"
    digest = _run(name).digest
    attempted = _run(name, admission=_ample_admission).digest
    assert digest == attempted == GOLDEN[name]


def test_health_retry_fault_refreshes_and_retries():
    """Health and fault injection together: a storm that both refetches the
    pool map after the engine loss and retries injected faults, so the
    golden pins how the refresh and the retry count compose."""
    outcome = _run("health_retry_fault", trace=True)
    kinds = Counter(record.kind for record in outcome.records)
    assert kinds["rpc_map_refresh"] > 0 and kinds["rpc_retry"] > 0
    assert outcome.untraced == GOLDEN["health_retry_fault"]


def test_data_storm_retry_fault_identity():
    outcome = _run("data-retry_fault")
    assert sum(client.faults_injected for client in outcome.clients) > 0
    assert outcome.digest == GOLDEN["data-retry_fault"]


def test_traced_retry_fault_one_span_per_op():
    """A tracer installed from the start under retry + fault: one ``rpc``
    span per op -- covering all its attempts -- for every op, multi-op
    sub-ops and event-queue submissions included; one ``rpc_retry`` and
    ``rpc_fault`` record per retry and injected fault."""
    outcome = _run("data-traced_retry_fault")
    assert sum(client.faults_injected for client in outcome.clients) > 0
    assert any(record.kind == "rpc_retry" for record in outcome.records)
    _assert_one_span_per_op(outcome.records, outcome.clients)
    assert outcome.digest == GOLDEN["data-traced_retry_fault"]


def _queued(claim):
    """``claim`` with every inline grant refused: a grant it would make
    inline is queued instead, the wake appended to the live bucket where a
    grant event used to go."""

    def queued(owner, wake):
        if claim(owner, wake):
            owner.sim._live.append(wake)
        return False

    return queued


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_elided_grants_match_real_grants(name, monkeypatch):
    """Elision vs real grants: with every inline grant refused, each
    service slot and object lock is granted by a queued wake instead."""
    for owner, claim in ((Resource, "_claim"), (RWLock, "_claim_read"), (RWLock, "_claim_write")):
        monkeypatch.setattr(owner, claim, _queued(getattr(owner, claim)))
    assert _run(name).digest == GOLDEN[name]
    if "plain" in name:
        assert _run(name, admission=_ample_admission).digest == GOLDEN[name]
