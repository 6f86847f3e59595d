"""Rebuild service: re-replication after engine loss, accounting, degraded I/O."""

import pytest

from repro.config import ClusterConfig, DaosServiceConfig, EngineFailureEvent, HealthConfig
from repro.daos.array_object import ArrayObject
from repro.daos.client import DaosClient
from repro.daos.errors import TargetDownError
from repro.daos.objclass import OC_RP_2G1, OC_S1
from repro.daos.oid import ObjectId
from repro.daos.payload import PatternPayload
from repro.daos.system import DaosSystem
from repro.hardware.topology import Cluster
from repro.units import MiB
from tests.conftest import run_process

FAIL_ENGINE_1 = (EngineFailureEvent(at=0.0, engine=1, kind="fail"),)


def make_env(events=FAIL_ENGINE_1, **kwargs):
    """Health-enabled single-server deployment; schedule armed manually."""
    kwargs.setdefault("n_server_nodes", 1)
    kwargs.setdefault("n_client_nodes", 1)
    kwargs.setdefault(
        "daos",
        DaosServiceConfig(
            health=HealthConfig(enabled=True, events=events, arm_at_start=False)
        ),
    )
    cluster = Cluster(ClusterConfig(**kwargs))
    system = DaosSystem(cluster)
    pool = system.create_pool()
    client = DaosClient(system, cluster.client_addresses(1)[0])
    return cluster, system, pool, client


def write_array(client, pool, oclass, data):
    container = yield from client.container_create(pool, label="c", is_default=True)
    array = yield from client.array_create(container, oclass)
    yield from client.array_write(array, 0, data, pool=pool)
    return array


def engine_targets(system, engine_index):
    return {t.global_index for t in system.engines[engine_index].targets}


def test_rebuild_rereplicates_lost_shard():
    cluster, system, pool, client = make_env()
    data = PatternPayload(2 * MiB, seed=3)
    array = run_process(cluster, write_array(client, pool, OC_RP_2G1, data))
    lost_targets = engine_targets(system, 1)
    (lost,) = [t for t in array.layout if t in lost_targets]

    system.arm_failure_schedule()
    cluster.sim.run()

    (run,) = system.rebuild.runs
    assert run.completed is not None and run.duration > 0
    assert run.shards_rebuilt == 1
    assert run.bytes_moved == 2 * MiB
    assert run.objects_lost == 0

    # The layout no longer references the dead engine, and the replacement
    # replica lives on a target that is both up and distinct from the
    # survivor.
    assert lost not in array.layout
    assert len(set(array.layout)) == 2
    for target in array.layout:
        assert system.pool_map.is_up(target)

    # Space accounting followed the shard: the dead target's bytes were
    # refunded, the replacement was charged, the pool total is unchanged.
    assert pool.target_used(lost) == 0
    for target in array.layout:
        assert pool.target_used(target) == 2 * MiB
    assert pool.used == 4 * MiB


def test_excluded_targets_after_rebuild():
    cluster, system, _pool, client = make_env()
    pool = system.pools["pool0"]
    run_process(cluster, write_array(client, pool, OC_RP_2G1, PatternPayload(MiB, seed=1)))
    system.arm_failure_schedule()
    cluster.sim.run()
    from repro.daos.health import TargetState

    for target in engine_targets(system, 1):
        assert system.pool_map.state(target) is TargetState.EXCLUDED
    assert not system.engines[1].alive


def test_read_after_rebuild_is_bit_identical():
    cluster, system, pool, client = make_env(n_client_nodes=2)
    data = PatternPayload(2 * MiB, seed=9)
    array = run_process(cluster, write_array(client, pool, OC_RP_2G1, data))
    system.arm_failure_schedule()
    cluster.sim.run()

    for address in cluster.client_addresses(2):
        reader = DaosClient(system, address)
        payload = run_process(cluster, reader.array_read(array, 0, data.size))
        assert payload == data


def test_unreplicated_object_on_dead_engine_is_lost():
    cluster, system, pool, client = make_env()
    data = PatternPayload(MiB, seed=2)
    # Allocate S1 arrays until one lands on engine 1 (placement cycles
    # round-robin over engines, so the second object at the latest).
    def flow():
        container = yield from client.container_create(pool, label="c", is_default=True)
        arrays = []
        for _ in range(4):
            array = yield from client.array_create(container, OC_S1)
            yield from client.array_write(array, 0, data, pool=pool)
            arrays.append(array)
        return arrays

    arrays = run_process(cluster, flow())
    lost_targets = engine_targets(system, 1)
    doomed = [a for a in arrays if a.layout[0] in lost_targets]
    assert doomed  # round-robin placement guarantees engine 1 got some

    system.arm_failure_schedule()
    cluster.sim.run()

    (run,) = system.rebuild.runs
    assert run.objects_lost == len(doomed)
    # An unreplicated object on a dead engine fails honestly: the refresh
    # middleware refetches the map, sees no newer version, and surfaces the
    # error instead of spinning.
    with pytest.raises(TargetDownError):
        run_process(cluster, client.array_read(doomed[0], 0, data.size))


def test_rebuild_without_affected_objects_still_excludes():
    cluster, system, _pool, _client = make_env()
    system.arm_failure_schedule()
    cluster.sim.run()
    (run,) = system.rebuild.runs
    assert run.shards_rebuilt == 0 and run.bytes_moved == 0
    assert run.completed is not None


@pytest.mark.parametrize("op", ["kv_put", "kv_get", "array_open"])
def test_metadata_op_on_down_target_is_rejected_before_any_state_change(op):
    """The metadata bodies keep the authoritative check the data path has: an
    op addressed to a DOWN non-replicated target raises, leaves functional
    state untouched and holds no lock afterwards."""
    cluster, system, pool, client = make_env()
    lost_targets = engine_targets(system, 1)

    def setup():
        container = yield from client.container_create(pool, label="c", is_default=True)
        # Placement cycles over engines: of four S1 objects some land on engine 1.
        kvs, arrays = [], []
        for index in range(4):
            kv = yield from client.kv_open(container, ObjectId.from_user(0, 0x50 + index), OC_S1)
            yield from client.kv_put(kv, b"old", b"kept")
            kvs.append(kv)
            arrays.append((yield from client.array_create(container, OC_S1)))
        return container, kvs, arrays

    container, kvs, arrays = run_process(cluster, setup())
    kv = next(kv for kv in kvs if kv.layout[0] in lost_targets)
    array = next(array for array in arrays if array.layout[0] in lost_targets)

    system.arm_failure_schedule()
    cluster.sim.run()

    attempt = {
        "kv_put": lambda: client.kv_put(kv, b"new", b"lost"),
        "kv_get": lambda: client.kv_get(kv, b"old"),
        "array_open": lambda: client.array_open(container, array.oid),
    }[op]
    with pytest.raises(TargetDownError):
        run_process(cluster, attempt())
    assert sorted(kv.keys()) == [b"old"]
    assert not kv.lock.write_locked and kv.lock.queue_length == 0
    # One refresh learned of the failure; the retry met the same dead target.
    assert client.map_refreshes == 2
    assert client.op_metrics[op].errors == 1


def test_objects_share_a_layout_tuple_and_rebuild_replaces_only_its_own():
    """Objects with one placement share one layout tuple; re-homing a shard
    builds a new tuple for the rebuilt object, never mutating the shared one."""
    cluster, system, pool, client = make_env()
    data = PatternPayload(2 * MiB, seed=3)
    array = run_process(cluster, write_array(client, pool, OC_RP_2G1, data))
    (container,) = pool.containers()
    # The same OID and container salt: the same placement, outside the pool.
    twin = ArrayObject(array.oid, OC_RP_2G1)
    system.register_object(twin, OC_RP_2G1, container_salt=container.uuid.int)
    assert isinstance(array.layout, tuple)
    assert twin.layout is array.layout
    shared = array.layout
    lost_targets = engine_targets(system, 1)
    (lost,) = [t for t in shared if t in lost_targets]

    system.arm_failure_schedule()
    cluster.sim.run()

    assert system.rebuild.runs[0].shards_rebuilt == 1
    assert lost not in array.layout and isinstance(array.layout, tuple)
    assert twin.layout is shared and lost in shared
