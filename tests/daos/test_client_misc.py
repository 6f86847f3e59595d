"""DaosClient paths not covered elsewhere: pool connect, existence probes,
cross-provider timing, write-lock contention windows."""

import hashlib

import pytest

from repro.config import ClusterConfig, PSM2_PROVIDER
from repro.daos.client import DaosClient
from repro.daos.objclass import OC_S1
from repro.daos.payload import BytesPayload, PatternPayload
from repro.daos.system import DaosSystem
from repro.hardware.topology import Cluster
from repro.units import MiB
from tests.conftest import run_process


def make_env(**kwargs):
    kwargs.setdefault("n_server_nodes", 1)
    kwargs.setdefault("n_client_nodes", 1)
    cluster = Cluster(ClusterConfig(**kwargs))
    system = DaosSystem(cluster)
    pool = system.create_pool()
    client = DaosClient(system, cluster.client_addresses(1)[0])
    return cluster, system, pool, client


def test_pool_connect_charges_time():
    cluster, _, pool, client = make_env()

    def flow(client, pool):
        t0 = client.sim.now
        connected = yield from client.pool_connect(pool)
        return connected, client.sim.now - t0

    connected, elapsed = run_process(cluster, flow(client, pool))
    assert connected is pool
    assert elapsed > 0
    assert client.stats["pool_connect"] == 1


def test_container_exists_probe():
    cluster, _, pool, client = make_env()

    def flow(client, pool):
        missing = yield from client.container_exists(pool, "nope")
        yield from client.container_create(pool, label="real")
        present = yield from client.container_exists(pool, "real")
        return missing, present

    missing, present = run_process(cluster, flow(client, pool))
    assert missing is False and present is True


def test_psm2_metadata_ops_faster_than_tcp():
    def kv_op_time(provider):
        cluster, _, pool, client = make_env(provider=provider)

        def flow(client, pool):
            container = yield from client.container_create(pool, label="c")
            kv = yield from client.kv_open(container, container.oid_allocator.allocate())
            t0 = client.sim.now
            yield from client.kv_put(kv, b"k", b"v")
            return client.sim.now - t0

        return run_process(cluster, flow(client, pool))

    from repro.config import TCP_PROVIDER

    assert kv_op_time(PSM2_PROVIDER) < kv_op_time(TCP_PROVIDER)


def test_reader_waits_for_inflight_writer():
    """Array write lock held during transfer: a concurrent reader of the
    same array observes the wait (the pattern-B no-index mechanism)."""
    cluster, system, pool, writer_client = make_env(n_client_nodes=2)
    reader_client = DaosClient(system, cluster.client_addresses(1)[0])
    events = {}

    def setup(client, pool):
        container = yield from client.container_create(pool, label="c", is_default=True)
        array = yield from client.array_create(container, OC_S1)
        yield from client.array_write(array, 0, PatternPayload(8 * MiB, seed=0), pool=pool)
        return array

    array = run_process(cluster, setup(writer_client, pool))

    def rewrite(client, array, pool):
        events["write_start"] = client.sim.now
        yield from client.array_write(array, 0, PatternPayload(8 * MiB, seed=1), pool=pool)
        events["write_end"] = client.sim.now

    def read(client, array):
        yield client.sim.timeout(0.0005)  # arrive while the write is in flight
        events["read_start"] = client.sim.now
        yield from client.array_read(array, 0, 8 * MiB)
        events["read_end"] = client.sim.now

    cluster.sim.process(rewrite(writer_client, array, pool))
    cluster.sim.process(read(reader_client, array))
    cluster.sim.run()
    # The reader's data cannot start moving before the writer releases.
    assert events["read_end"] > events["write_end"]
    assert events["read_start"] < events["write_end"]  # it truly overlapped


def test_zero_byte_array_write_and_read():
    cluster, _, pool, client = make_env()

    def flow(client, pool):
        container = yield from client.container_create(pool, label="c", is_default=True)
        array = yield from client.array_create(container, OC_S1)
        yield from client.array_write(array, 0, BytesPayload(b""), pool=pool)
        payload = yield from client.array_read(array, 0, 0)
        return payload

    payload = run_process(cluster, flow(client, pool))
    assert payload.size == 0
    assert pool.used == 0


def test_kv_remove_roundtrip():
    from repro.daos.errors import KeyNotFoundError

    cluster, _, pool, client = make_env()

    handles = {}

    def flow():
        container = yield from client.container_create(pool, label="c")
        kv = yield from client.kv_open(container, container.oid_allocator.allocate(1))
        handles["kv"] = kv
        yield from client.kv_put(kv, b"keep", b"1")
        yield from client.kv_put(kv, b"drop", b"2")
        yield from client.kv_remove(kv, b"drop")
        remaining = yield from client.kv_list(kv)
        gone = yield from client.kv_get_or_none(kv, b"drop")
        return remaining, gone

    remaining, gone = run_process(cluster, flow())
    assert remaining == [b"keep"] and gone is None
    assert client.stats["kv_remove"] == 1
    assert client.op_metrics["kv_remove"].count == 1

    with pytest.raises(KeyNotFoundError):
        run_process(cluster, client.kv_remove(handles["kv"], b"drop"))


def test_container_destroy_releases_pool_space():
    cluster, _system, pool, client = make_env()

    def flow():
        container = yield from client.container_create(pool, label="temp")
        array = yield from client.array_create(container, OC_S1)
        yield from client.array_write(array, 0, PatternPayload(2 * MiB, seed=4), pool=pool)
        return container

    run_process(cluster, flow())
    assert pool.used == 2 * MiB
    run_process(cluster, client.container_destroy(pool, "temp"))
    assert pool.used == 0
    assert not pool.has_container("temp")
    # The destroy evicted the client's cached handle too: a fresh create
    # under the same label starts an empty container.
    container = run_process(cluster, client.container_create(pool, label="temp"))
    assert list(container.objects()) == []


def test_dkey_hash_cache_is_bounded_and_overflow_changes_nothing(monkeypatch):
    from repro.daos import client as client_module

    monkeypatch.setattr(client_module, "_DKEY_HASH_CACHE_BOUND", 16)
    keys = [b"dkey/%d" % index for index in range(100)]
    client_module._DKEY_HASH_CACHE.clear()
    first = [DaosClient._dkey_prefix(key) for key in keys]
    assert 0 < len(client_module._DKEY_HASH_CACHE) <= 16
    # Cold (just cleared), warm and straight-from-sha256 answers agree.
    assert [DaosClient._dkey_prefix(key) for key in keys] == first
    assert first == [
        int.from_bytes(hashlib.sha256(key).digest()[:4], "little") for key in keys
    ]
    assert len(client_module._DKEY_HASH_CACHE) <= 16
