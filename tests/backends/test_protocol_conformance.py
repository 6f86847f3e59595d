"""StorageBackend protocol conformance, parameterized over every backend.

Every backend must present identical *functional* semantics through the
:class:`~repro.backends.protocol.StorageClient` surface — same values, same
errors, same determinism guarantees — differing only in timing.  These
tests run the same flows against each registered backend.
"""

import pytest

from repro.backends.protocol import StorageClient, StorageSystem
from repro.backends.registry import BACKENDS, build_deployment, build_system
from repro.config import ClusterConfig, DaosServiceConfig, FaultInjectionConfig
from repro.daos.errors import (
    KeyNotFoundError,
    LockTimeoutError,
    MetadataOverloadError,
    NoSpaceError,
    SimulatedFaultError,
)
from repro.daos.objclass import OC_S1, OC_SX
from repro.daos.oid import ObjectId
from repro.daos.payload import PatternPayload
from repro.hardware.topology import Cluster
from repro.posixfs.config import PosixServiceConfig
from repro.posixfs.system import PosixSystem
from repro.units import GiB, KiB
from tests.conftest import run_process

KV_OID = ObjectId.from_user(0, 0x77)


def make_env(backend, **config_kwargs):
    config_kwargs.setdefault("n_server_nodes", 1)
    config_kwargs.setdefault("n_client_nodes", 1)
    config_kwargs.setdefault("seed", 7)
    cluster, system, pool = build_deployment(
        ClusterConfig(**config_kwargs), backend=backend
    )
    client = system.make_client(cluster.client_addresses(1)[0])
    return cluster, system, pool, client


@pytest.mark.parametrize("backend", BACKENDS)
def test_protocol_isinstance(backend):
    _cluster, system, _pool, client = make_env(backend)
    assert isinstance(system, StorageSystem)
    assert isinstance(client, StorageClient)
    assert system.backend_name == backend


@pytest.mark.parametrize("backend", BACKENDS)
def test_kv_roundtrip_and_errors(backend):
    cluster, _system, pool, client = make_env(backend)

    def flow():
        container = yield from client.container_create(pool, label="c")
        kv = yield from client.kv_open(container, KV_OID, OC_SX)
        yield from client.kv_put(kv, b"alpha", b"one")
        yield from client.kv_put(kv, b"beta", b"two")
        value = yield from client.kv_get(kv, b"alpha")
        assert value == b"one"
        missing = yield from client.kv_get_or_none(kv, b"gamma")
        assert missing is None
        yield from client.kv_remove(kv, b"beta")
        try:
            yield from client.kv_get(kv, b"beta")
        except KeyNotFoundError:
            return "missing-after-remove"
        return "unexpected"

    assert run_process(cluster, flow()) == "missing-after-remove"


@pytest.mark.parametrize("backend", BACKENDS)
def test_kv_list_pages_past_one_rpc(backend):
    cluster, _system, pool, client = make_env(backend)
    n_keys = 300  # > kv_list_page_size (128): forces multi-page listing

    def flow():
        container = yield from client.container_create(pool, label="c")
        kv = yield from client.kv_open(container, KV_OID, OC_SX)
        for index in range(n_keys):
            yield from client.kv_put(kv, b"k%04d" % index, b"v")
        keys = yield from client.kv_list(kv)
        return keys

    keys = run_process(cluster, flow())
    assert len(keys) == n_keys
    assert sorted(keys) == [b"k%04d" % index for index in range(n_keys)]


@pytest.mark.parametrize("backend", BACKENDS)
def test_array_read_after_write(backend):
    cluster, _system, pool, client = make_env(backend)
    payload = PatternPayload(192 * KiB, seed=11)

    def flow():
        container = yield from client.container_create(pool, label="c")
        array = yield from client.array_create(container, OC_S1)
        yield from client.array_write(array, 0, payload, pool=pool)
        size = yield from client.array_get_size(array)
        assert size == payload.size
        back = yield from client.array_read(array, 0, payload.size)
        yield from client.array_close(array)
        return back

    back = run_process(cluster, flow())
    assert back == payload


@pytest.mark.parametrize("backend", BACKENDS)
def test_concurrent_writers_deterministic(backend):
    """Two fresh same-seed deployments replay the same concurrent schedule."""

    def one_run():
        cluster, system, pool, _client = make_env(backend)

        def writer(client, rank, container):
            kv = yield from client.kv_open(container, KV_OID, OC_SX)
            for index in range(10):
                yield from client.kv_put(kv, b"r%d.%d" % (rank, index), b"x" * 64)

        boot = system.make_client(cluster.client_addresses(1)[0])

        def setup():
            container = yield from boot.container_create(pool, label="shared")
            return container

        container = run_process(cluster, setup())
        clients = [system.make_client(a) for a in cluster.client_addresses(4)]
        processes = [
            cluster.sim.process(writer(c, rank, container))
            for rank, c in enumerate(clients)
        ]
        cluster.sim.run(until=cluster.sim.all_of(processes))
        return cluster.sim.now

    assert one_run() == one_run()


@pytest.mark.parametrize("backend", BACKENDS)
def test_enospc_maps_to_no_space_error(backend):
    cluster, _system, pool, client = make_env(backend)

    def flow():
        container = yield from client.container_create(pool, label="c")
        array = yield from client.array_create(container, OC_S1)
        try:
            yield from client.array_write(
                array, 0, PatternPayload(2 * int(pool.capacity + GiB), seed=1),
                pool=pool,
            )
        except NoSpaceError:
            return "enospc"
        return "unexpected"

    assert run_process(cluster, flow()) == "enospc"


@pytest.mark.parametrize("backend", BACKENDS)
def test_fault_injection_and_retry_middleware_apply(backend):
    """The shared middleware chain (metrics, retry, fault injection) wires up
    identically on every backend; with a zero fault rate the run is clean."""
    daos = DaosServiceConfig(
        fault_injection=FaultInjectionConfig(enabled=True, rate=0.0)
    )
    cluster, _system, pool, client = make_env(backend, daos=daos)

    def flow():
        container = yield from client.container_create(pool, label="c")
        kv = yield from client.kv_open(container, KV_OID, OC_SX)
        yield from client.kv_put(kv, b"k", b"v")
        value = yield from client.kv_get(kv, b"k")
        return value

    assert run_process(cluster, flow()) == b"v"
    stats = client.op_metrics
    assert stats["kv_put"].count == 1
    assert all(s.errors == 0 for s in stats.values())


def _posix_env(posix: PosixServiceConfig, **config_kwargs):
    config_kwargs.setdefault("n_server_nodes", 1)
    config_kwargs.setdefault("n_client_nodes", 1)
    config_kwargs.setdefault("seed", 7)
    cluster = Cluster(ClusterConfig(**config_kwargs))
    system = PosixSystem(cluster, posix=posix)
    pool = system.create_pool()
    return cluster, system, pool


def test_lock_timeout_error_past_queue_limit():
    cluster, system, pool = _posix_env(PosixServiceConfig(lock_queue_limit=1))
    clients = [system.make_client(a) for a in cluster.client_addresses(6)]
    outcomes = []

    def setup(boot):
        container = yield from boot.container_create(pool, label="c")
        return container

    container = run_process(cluster, setup(clients[0]))

    def writer(client, rank):
        kv = yield from client.kv_open(container, KV_OID, OC_SX)
        try:
            for index in range(5):
                yield from client.kv_put(kv, b"r%d.%d" % (rank, index), b"x")
        except LockTimeoutError:
            outcomes.append("timeout")
            return
        outcomes.append("done")

    processes = [
        cluster.sim.process(writer(c, rank)) for rank, c in enumerate(clients)
    ]
    cluster.sim.run(until=cluster.sim.all_of(processes))
    assert "timeout" in outcomes


def test_metadata_overload_error_past_mds_queue():
    cluster, system, pool = _posix_env(PosixServiceConfig(mds_overload_queue=1))
    clients = [system.make_client(a) for a in cluster.client_addresses(8)]
    outcomes = []

    def worker(client, rank):
        try:
            yield from client.container_create(pool, label=f"c{rank}")
        except MetadataOverloadError:
            outcomes.append("overload")
            return
        outcomes.append("done")

    processes = [
        cluster.sim.process(worker(c, rank)) for rank, c in enumerate(clients)
    ]
    cluster.sim.run(until=cluster.sim.all_of(processes))
    assert "overload" in outcomes


@pytest.mark.parametrize("launch", ["driver", "retry_chain"])
def test_metadata_overload_error_from_the_one_mds_leg(launch):
    """The hot metadata bodies reach the MDS through the same leg as the cold
    ones, so the overload rejection holds whether a body is launched bare
    ("driver") or as a Request through the retry stages."""
    config_kwargs = {}
    if launch == "retry_chain":
        # [retry, tracing, fault] with no injected faults: the only failures
        # the retry sees are the MDS's own rejections.
        config_kwargs["daos"] = DaosServiceConfig(
            fault_injection=FaultInjectionConfig(enabled=True, rate=0.0)
        )
    cluster, system, pool = _posix_env(
        PosixServiceConfig(mds_service_threads=1, mds_overload_queue=1), **config_kwargs
    )
    clients = [system.make_client(a) for a in cluster.client_addresses(8)]
    container = run_process(cluster, clients[0].container_create(pool, label="c"))
    outcomes = []

    def worker(client, rank):
        try:
            yield from client.kv_open(container, ObjectId.from_user(0, 0x80 + rank), OC_S1)
        except MetadataOverloadError:
            outcomes.append("overload")
            return
        outcomes.append("done")

    processes = [
        cluster.sim.process(worker(c, rank)) for rank, c in enumerate(clients)
    ]
    cluster.sim.run(until=cluster.sim.all_of(processes))
    rejected = sum(c.op_metrics["kv_open"].errors for c in clients)
    retried = sum(c.op_metrics["kv_open"].retries for c in clients)
    # Either way every op ran on a pooled driver and handed it back.
    assert system.fast_drivers
    assert len(cluster.sim._lane_free) == len(system.fast_drivers)
    assert all(client._bare == (launch == "driver") for client in clients)
    if launch == "driver":
        assert outcomes.count("overload") == rejected > 0 == retried
    else:
        assert retried > 0, "the MDS rejected nothing for the retry to resend"
        assert outcomes.count("done") + rejected == len(clients)


def test_posix_errors_are_retryable_faults():
    """Both posixfs overload errors slot into the simulated-fault hierarchy,
    so the existing retry middleware handles them with no FieldIO changes."""
    assert issubclass(LockTimeoutError, SimulatedFaultError)
    assert issubclass(MetadataOverloadError, SimulatedFaultError)


def test_build_system_rejects_unknown_backend():
    cluster = Cluster(ClusterConfig(n_server_nodes=1, n_client_nodes=1))
    with pytest.raises(ValueError, match="unknown storage backend"):
        build_system(cluster, "gpfs")
