"""DaosClient: timed operations, caching, contention, capacity."""

import pytest

from repro.config import ClusterConfig
from repro.daos.client import DaosClient
from repro.daos.errors import (
    ContainerExistsError,
    KeyNotFoundError,
    NoSpaceError,
    ObjectNotFoundError,
)
from repro.daos.objclass import OC_S1, OC_SX
from repro.daos.payload import BytesPayload, PatternPayload
from repro.daos.system import DaosSystem
from repro.hardware.topology import Cluster
from repro.units import GiB, MiB
from tests.conftest import run_process


def make_env(**kwargs):
    kwargs.setdefault("n_server_nodes", 1)
    kwargs.setdefault("n_client_nodes", 1)
    cluster = Cluster(ClusterConfig(**kwargs))
    system = DaosSystem(cluster)
    pool = system.create_pool()
    client = DaosClient(system, cluster.client_addresses(1)[0])
    return cluster, system, pool, client


def test_container_create_open_roundtrip():
    cluster, _, pool, client = make_env()

    def flow(client, pool):
        created = yield from client.container_create(pool, label="c1")
        opened = yield from client.container_open(pool, "c1")
        assert opened is created
        return created

    run_process(cluster, flow(client, pool))
    assert pool.n_containers == 1


def test_container_create_race_raises_exists():
    cluster, system, pool, client = make_env()
    other = DaosClient(system, cluster.client_addresses(1)[0])
    target_uuid = system.deterministic_uuid("race")

    def winner(client, pool):
        yield from client.container_create(pool, uuid=target_uuid)

    def loser(client, pool):
        try:
            yield from client.container_create(pool, uuid=target_uuid)
        except ContainerExistsError:
            return "lost"
        return "won"

    cluster.sim.process(winner(client, pool))
    loser_proc = cluster.sim.process(loser(other, pool))
    assert cluster.sim.run(until=loser_proc) == "lost"


def test_container_open_cached_is_free():
    cluster, _, pool, client = make_env()

    def flow(client, pool):
        yield from client.container_create(pool, label="c")
        t0 = client.sim.now
        yield from client.container_open(pool, "c")
        return client.sim.now - t0

    elapsed = run_process(cluster, flow(client, pool))
    assert elapsed == 0.0
    assert client.stats.get("container_open_cached") == 1


def test_container_open_not_cached_across_clients():
    cluster, system, pool, client = make_env()
    other = DaosClient(system, cluster.client_addresses(1)[0])

    def create(client, pool):
        yield from client.container_create(pool, label="c")

    def open_other(client, pool):
        t0 = client.sim.now
        yield from client.container_open(pool, "c")
        return client.sim.now - t0

    run_process(cluster, create(client, pool))
    elapsed = run_process(cluster, open_other(other, pool))
    assert elapsed > 0.0


def test_kv_put_get_roundtrip_with_time():
    cluster, _, pool, client = make_env()

    def flow(client, pool):
        container = yield from client.container_create(pool, label="c")
        kv = yield from client.kv_open(container, container.oid_allocator.allocate(), OC_SX)
        t0 = client.sim.now
        yield from client.kv_put(kv, b"k", b"v")
        put_time = client.sim.now - t0
        value = yield from client.kv_get(kv, b"k")
        return put_time, value

    put_time, value = run_process(cluster, flow(client, pool))
    assert value == b"v"
    config = client.config
    provider = client.system.cluster.provider
    assert put_time >= 2 * provider.message_latency + config.kv_put_service_time


def test_kv_get_missing_raises():
    cluster, _, pool, client = make_env()

    def flow(client, pool):
        container = yield from client.container_create(pool, label="c")
        kv = yield from client.kv_open(container, container.oid_allocator.allocate())
        with pytest.raises(KeyNotFoundError):
            yield from client.kv_get(kv, b"missing")
        missing = yield from client.kv_get_or_none(kv, b"missing")
        assert missing is None

    run_process(cluster, flow(client, pool))


def test_kv_list_and_remove():
    cluster, _, pool, client = make_env()

    def flow(client, pool):
        container = yield from client.container_create(pool, label="c")
        kv = yield from client.kv_open(container, container.oid_allocator.allocate())
        for key in (b"a", b"b", b"c"):
            yield from client.kv_put(kv, key, b"v")
        keys = yield from client.kv_list(kv)
        yield from client.kv_remove(kv, b"b")
        keys_after = yield from client.kv_list(kv)
        return keys, keys_after

    keys, keys_after = run_process(cluster, flow(client, pool))
    assert keys == [b"a", b"b", b"c"]
    assert keys_after == [b"a", b"c"]


def test_array_write_read_roundtrip_and_pool_charge():
    cluster, _, pool, client = make_env()
    data = PatternPayload(4 * MiB, seed=3)

    def flow(client, pool):
        container = yield from client.container_create(pool, label="c", is_default=True)
        array = yield from client.array_create(container, OC_S1)
        yield from client.array_write(array, 0, data, pool=pool)
        back = yield from client.array_read(array, 0, data.size)
        size = yield from client.array_get_size(array)
        yield from client.array_close(array)
        return back, size

    back, size = run_process(cluster, flow(client, pool))
    assert back == data
    assert size == data.size
    assert pool.used == data.size


def test_striped_array_charges_multiple_targets():
    cluster, _, pool, client = make_env()
    data = PatternPayload(8 * MiB, seed=1)

    def flow(client, pool):
        container = yield from client.container_create(pool, label="c", is_default=True)
        array = yield from client.array_create(container, OC_SX)
        yield from client.array_write(array, 0, data, pool=pool)
        return array

    array = run_process(cluster, flow(client, pool))
    charged = [i for i in range(pool.n_targets) if pool.target_used(i) > 0]
    assert len(charged) == 8  # 8 x 1 MiB cells over 8 distinct targets
    assert pool.used == data.size


def test_array_open_missing_raises():
    cluster, _, pool, client = make_env()

    def flow(client, pool):
        container = yield from client.container_create(pool, label="c")
        from repro.daos.oid import ObjectId

        with pytest.raises(ObjectNotFoundError):
            yield from client.array_open(container, ObjectId.from_user(7, 7))

    run_process(cluster, flow(client, pool))


def test_array_set_size_truncates():
    cluster, _, pool, client = make_env()

    def flow(client, pool):
        container = yield from client.container_create(pool, label="c", is_default=True)
        array = yield from client.array_create(container, OC_S1)
        yield from client.array_write(array, 0, BytesPayload(b"x" * 100), pool=pool)
        yield from client.array_set_size(array, 10, pool=pool)
        size = yield from client.array_get_size(array)
        return size

    assert run_process(cluster, flow(client, pool)) == 10


def test_no_space_error_surfaces():
    cluster = Cluster(ClusterConfig(n_server_nodes=1, n_client_nodes=1))
    system = DaosSystem(cluster)
    # A pool with a tiny per-target quota.
    small_pool = system.create_pool("tiny", scm_bytes_per_target=1 * MiB)
    client = DaosClient(system, cluster.client_addresses(1)[0])

    def flow(client, pool):
        container = yield from client.container_create(pool, label="c", is_default=True)
        array = yield from client.array_create(container, OC_S1)
        with pytest.raises(NoSpaceError):
            yield from client.array_write(
                array, 0, PatternPayload(2 * MiB, seed=0), pool=pool
            )

    run_process(cluster, flow(client, small_pool))


def test_container_touch_charged_only_outside_default():
    cluster, _, pool, client = make_env()

    def flow(client, pool):
        default = yield from client.container_create(pool, label="d", is_default=True)
        side = yield from client.container_create(pool, label="s")
        t0 = client.sim.now
        yield from client.array_create(default, OC_S1)
        default_time = client.sim.now - t0
        t1 = client.sim.now
        yield from client.array_create(side, OC_S1)
        side_time = client.sim.now - t1
        return default_time, side_time

    default_time, side_time = run_process(cluster, flow(client, pool))
    assert side_time > default_time


def test_stats_counting():
    cluster, _, pool, client = make_env()

    def flow(client, pool):
        container = yield from client.container_create(pool, label="c", is_default=True)
        array = yield from client.array_create(container, OC_S1)
        yield from client.array_write(array, 0, BytesPayload(b"hi"), pool=pool)
        yield from client.array_read(array, 0, 2)

    run_process(cluster, flow(client, pool))
    assert client.stats["container_create"] == 1
    assert client.stats["array_create"] == 1
    assert client.stats["array_write"] == 1
    assert client.stats["array_read"] == 1


def test_concurrent_writers_to_one_engine_share_scm_bandwidth():
    cluster, system, pool, _ = make_env(n_client_nodes=2)
    size = 64 * MiB
    addresses = cluster.client_addresses(4)

    def one(client, pool, container):
        array = yield from client.array_create(container, OC_S1)
        yield from client.array_write(array, 0, PatternPayload(size, seed=1), pool=pool)

    setup = DaosClient(system, addresses[0])
    container = run_process(
        cluster, setup.container_create(pool, label="c", is_default=True)
    )
    processes = [
        cluster.sim.process(one(DaosClient(system, addr), pool, container))
        for addr in addresses
    ]
    t0 = cluster.sim.now
    cluster.sim.run(until=cluster.sim.all_of(processes))
    elapsed = cluster.sim.now - t0
    total = len(addresses) * size
    bandwidth = total / elapsed
    # Bounded by the two engines' write path (~5.2 GiB/s aggregate).
    assert bandwidth < 5.5 * GiB
    assert bandwidth > 3.0 * GiB


def test_driver_is_transparent_to_sends_throws_and_returns():
    """The op driver turns float legs into delays and nothing else: event
    values, event failures and the body's return value pass straight
    through, and the op is counted and observed once."""
    cluster, _system, _pool, client = make_env()
    sim = cluster.sim
    seen = []

    def legs():
        seen.append((yield 0.5))                          # delay leg
        seen.append((yield sim.timeout(0.25, value="v")))  # event leg, value sent back
        try:
            yield sim.event().fail(KeyNotFoundError("boom"))
        except KeyNotFoundError as error:                 # failure thrown into the body
            seen.append(str(error))
        yield 1                                           # int delays count too
        return "done"

    def caller():
        return (yield client._launch("legs", legs(), 3))

    assert run_process(cluster, caller()) == "done"
    assert seen == [None, "v", "boom"]
    assert sim.now == 1.75
    entry = client.op_metrics["legs"]
    assert client.stats["legs"] == entry.count == 1
    assert (entry.total_time, entry.total_bytes, entry.errors) == (1.75, 3, 0)
