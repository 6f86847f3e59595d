"""One body per metadata op, two interpreters: identity rails.

Every metadata op has a single leg-dialect body (``DaosClient._do_*``) that
runs either on a pooled ``_FastDriver`` (plain chain, health off, no tracer)
or through the middleware chain behind ``DaosClient._as_events``.  Which
interpreter runs it, and whether an uncontended grant is elided or travels
as a real event, must never show in the outcome: the same bits -- event
timings, return values, per-op metrics, final clock, ``rpc`` spans.

The reference timelines are frozen below as SHA-256 goldens.  They were
recorded at the last commit that still carried the Event-dialect ``_do_*``
twins (the de-facto timeline oracle), on both of its paths
(``REPRO_RPC_FAST`` unset and ``=0``, equal digests); they pin those
timelines now that the twins are gone.  Each scenario is checked on the
driver and on the chain (a pass-through middleware in the default chain
keeps it off the driver), and again with every grant forced through the
event queue.
"""

import dataclasses
import hashlib

import pytest

from repro.bench.runner import build_deployment
from repro.config import ClusterConfig, FaultInjectionConfig
from repro.daos.errors import ServiceBusyError, SimulatedFaultError
from repro.daos.locks import RWLock
from repro.daos.objclass import OC_S1, OC_SX
from repro.daos.oid import ObjectId
from repro.daos.rpc import Middleware, MetricsMiddleware, TracingMiddleware
from repro.serving.qos import QosAdmissionMiddleware, QosPolicy
from repro.simulation.resources import Resource
from repro.simulation.trace import Tracer

N_CLIENTS = 4
OPS = 12

#: sha256 of each scenario's fingerprint (``_digest``), frozen at the parent
#: of the commit that deleted the ``_do_*``/``_fast_*`` twins.
GOLDEN = {
    "plain-daos": "2450c9f3293abd2172939197346f3906bf3836fd912baf91a2dc14496471b69a",
    "plain-posixfs": "3dc6f70385396466f5638873ec71c4726c1ff8119293feb429b4c8ce29a0de07",
    "pool_map_refresh": "2450c9f3293abd2172939197346f3906bf3836fd912baf91a2dc14496471b69a",
    "retry_fault": "6ae69be97189cf30810279973bd954e5414bc5afa86b47c4bf12830c4c77aa66",
    "qos-daos": "2450c9f3293abd2172939197346f3906bf3836fd912baf91a2dc14496471b69a",
    "qos-posixfs": "3dc6f70385396466f5638873ec71c4726c1ff8119293feb429b4c8ce29a0de07",
    "mid_run_tracer": "5478cce516a8438c1b89d51798e6eae01b36e4a3820ad7c0ef33f81713549881",
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


def _run_storm(backend="daos", config=None, chain_factory=None, mid_run_hook=None):
    """One deterministic metadata storm; returns its full fingerprint.

    ``chain_factory(system)`` builds a middleware list per client (None =
    the client default).  ``mid_run_hook(sim)`` fires from inside rank 0
    halfway through its ops (used to install a tracer mid-run).
    """
    config = config or ClusterConfig(n_server_nodes=1, n_client_nodes=1, seed=5)
    cluster, system, pool = build_deployment(config, backend=backend)
    sim = cluster.sim
    addresses = cluster.client_addresses(N_CLIENTS)
    clients = [
        system.make_client(
            address,
            middleware=chain_factory(system) if chain_factory else None,
        )
        for address in addresses
    ]

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
        except SimulatedFaultError:
            own = container.get_object(ObjectId(1, 20 + rank))
        try:
            array = yield from client.array_create(side, OC_S1, ObjectId(2, 40 + rank))
        except SimulatedFaultError:
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
            # Shared-object put: genuine write-lock contention, so the body
            # must fall back to real grant events here.
            try:
                yield from client.kv_put(shared_kv, f"s/{op}".encode(), b"w")
            except (ServiceBusyError, SimulatedFaultError):
                results.append((rank, op, "shed"))
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
            if op % 4 == 3:
                try:
                    yield from client.kv_remove(own, key)
                except SimulatedFaultError:
                    results.append((rank, op, "fault"))
            trajectory.append((rank, op, float(sim.now)))

    workers = [
        sim.process(storm(rank, client), name=f"w{rank}")
        for rank, client in enumerate(clients)
    ]
    sim.run(until=sim.all_of(workers))
    return _fingerprint(sim, clients, trajectory, results, shared_kv), system


def _daos_config(n_server_nodes=1, **overrides) -> ClusterConfig:
    base = ClusterConfig(n_server_nodes=n_server_nodes, n_client_nodes=1, seed=5)
    return dataclasses.replace(base, daos=dataclasses.replace(base.daos, **overrides))


def _qos_chain(system):
    return [
        MetricsMiddleware(),
        QosAdmissionMiddleware(
            "tenant",
            QosPolicy(rate=5000.0, burst=2.0, max_queue_depth=1),
            ops=("kv_get",),
        ),
        TracingMiddleware(),
    ]


def _pass_through_chain(system):
    """The default chain plus a do-nothing middleware: same timeline, but no
    longer exactly ``[metrics, tracing]``, so the ops run through the chain."""
    return [MetricsMiddleware(), Middleware(), TracingMiddleware()]


def _scenario(name):
    """``_run_storm`` keyword arguments of one frozen configuration."""
    kind, _, backend = name.partition("-")
    if kind == "plain":
        return dict(backend=backend)
    if kind == "qos":
        return dict(backend=backend, chain_factory=_qos_chain)
    if kind == "pool_map_refresh":
        # Health-enabled chain: [metrics, refresh, tracing].
        health = dataclasses.replace(ClusterConfig().daos.health, enabled=True)
        return dict(config=_daos_config(n_server_nodes=2, health=health))
    if kind == "retry_fault":
        # Faulty chain: [metrics, retry, tracing, fault].
        fault = FaultInjectionConfig(enabled=True, rate=0.2, seed=11)
        return dict(config=_daos_config(fault_injection=fault))
    assert kind == "mid_run_tracer"
    return {}


def _run(name, **overrides):
    """Run scenario ``name``; returns ``(digest, system, rpc spans)``."""
    tracers = []

    def install(sim):
        sim.tracer = Tracer()
        tracers.append(sim.tracer)

    kwargs = {**_scenario(name), **overrides}
    if name == "mid_run_tracer":
        kwargs["mid_run_hook"] = install
    fingerprint, system = _run_storm(**kwargs)
    spans = [
        (s.time.hex(), s.kind, sorted(s.fields.items()))
        for tracer in tracers
        for s in tracer.filter("rpc")
    ]
    return _digest(fingerprint, spans), system, spans


def _ran_on_driver(system) -> bool:
    """Finished drivers return to the system's free-list; the chain makes none."""
    return bool(system.fast_drivers)


@pytest.mark.parametrize("backend", ["daos", "posixfs"])
def test_plain_chain_identity(backend):
    """Driver vs chain: the default chain runs the bodies on ``_FastDriver``,
    a pass-through middleware sends the same bodies through the chain."""
    name = f"plain-{backend}"
    on_driver, system, _ = _run(name)
    assert _ran_on_driver(system)
    on_chain, system, _ = _run(name, chain_factory=_pass_through_chain)
    assert not _ran_on_driver(system)
    assert on_driver == on_chain == GOLDEN[name]


def _assert_on_chain(name):
    digest, system, _ = _run(name)
    assert not _ran_on_driver(system)
    assert digest == GOLDEN[name]


def test_pool_map_refresh_chain_identity():
    """Health-enabled chain ([metrics, refresh, tracing]): never the driver."""
    _assert_on_chain("pool_map_refresh")


def test_retry_fault_chain_identity():
    """Faulty chain ([metrics, retry, tracing, fault]): never the driver."""
    _assert_on_chain("retry_fault")


@pytest.mark.parametrize("backend", ["daos", "posixfs"])
def test_qos_chain_identity(backend):
    """A QoS chain (serving tier) keeps the bodies on the chain."""
    _assert_on_chain(f"qos-{backend}")


def test_mid_run_tracer_installation_falls_back():
    """Installing a tracer mid-run moves live driver clients onto the chain."""
    digest, system, spans = _run("mid_run_tracer")
    assert _ran_on_driver(system), "ops before the tracer ride the driver"
    assert spans, "tracer must capture spans after mid-run installation"
    assert digest == GOLDEN["mid_run_tracer"]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_elided_grants_match_real_grants(name, monkeypatch):
    """Elision vs real grants: with every ``try_acquire`` refused, each
    service slot and object lock is granted by a queued event instead."""
    monkeypatch.setattr(Resource, "try_acquire", lambda self: False)
    monkeypatch.setattr(RWLock, "try_acquire_write", lambda self: False)
    digest, _, _ = _run(name)
    assert digest == GOLDEN[name]
    if name.startswith("plain"):
        on_chain, _, _ = _run(name, chain_factory=_pass_through_chain)
        assert on_chain == GOLDEN[name]
