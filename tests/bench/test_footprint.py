"""Footprint of a finished simulated rank.

The end-to-end ledger pauses the cyclic collector inside a pass, and every
deployment graph is cyclic, so each deployment of a pass -- with every
client, object and lock its ranks made -- stays resident until the pass
ends.  The bytes one finished rank keeps therefore bound how many ranks one
worker can simulate; these tests pin them.
"""

import gc
import tracemalloc

import pytest

from repro.bench.ior import IorParams, run_ior
from repro.bench.runner import build_deployment
from repro.bench.timestamps import IoRecord
from repro.config import ClusterConfig
from repro.daos.array_object import ArrayObject, Extent
from repro.daos.client import DaosClient
from repro.daos.kv import KeyValueObject
from repro.daos.oid import ObjectId
from repro.posixfs.client import PosixClient
from repro.simulation import Simulator
from repro.units import KiB

#: Retained bytes allowed per finished IOR rank (see the test below).
RANK_BYTES_BOUND = 2_150


def _ior_deployment(ppn: int, backend: str = "daos"):
    """A finished two-node IOR run whose clients stay referenced, as the
    ledger's deployments keep theirs; returns what it holds and the number
    of ranks per phase."""
    cluster, system, pool = build_deployment(
        ClusterConfig(n_server_nodes=1, n_client_nodes=2, seed=0), backend=backend
    )
    clients = []
    make_client = system.make_client

    def recording_make_client(address, middleware=None):
        clients.append(make_client(address, middleware=middleware))
        return clients[-1]

    system.make_client = recording_make_client
    params = IorParams(segment_size=64 * KiB, segments=2, processes_per_node=ppn)
    result = run_ior(cluster, system, pool, params)
    return (cluster, system, pool, clients, result), 2 * ppn


def _retained_bytes(ppn: int):
    """Traced bytes a finished run holds, with the collector paused."""
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        held, ranks = _ior_deployment(ppn)
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
        gc.enable()
    del held
    return retained, ranks


def test_retained_bytes_per_finished_rank():
    """A finished rank is one writer and one reader process: two clients,
    one array with its lock and extent, two timestamp records, and the
    pooled op driver its synchronised wave needed.  On CPython 3.11 it kept
    5,562 B before clients, objects and locks dropped the state they never
    use (empty lock queues, per-lock name strings, instance dicts,
    per-client stage lists and container caches), 3,779 B after, and
    3,146 B once the op counts became a view of the per-op accumulators
    (no ``stats`` dict per client) and each driver woke on a bare
    :class:`~repro.simulation.events.Wake` instead of a lane event with
    its callback list, 2,291 B once the accumulators became rows of
    the system's op table (no ``OpStats`` objects or ``op_metrics`` dict
    per client) and ranks pinned to one socket shared its address,
    2,395 B once each lock carried the two gates its grants are claimed
    through (no grant event per queued acquire), and 2,058 B once clients
    dropped their cluster handles and fault counter, op-table rows their
    three rarely written counts, and objects shared one layout tuple per
    placement and kept their extents in a tuple."""
    _retained_bytes(4)  # warm module-level memos out of the measurement
    small, small_ranks = _retained_bytes(8)
    large, large_ranks = _retained_bytes(40)
    # The slope cancels what a deployment holds whatever its rank count.
    per_rank = (large - small) / (large_ranks - small_ranks)
    assert 0 < per_rank <= RANK_BYTES_BOUND


@pytest.mark.parametrize("backend", ["daos", "posixfs"])
def test_ranks_keep_no_instance_dicts(backend):
    (_, system, _, clients, result), _ = _ior_deployment(2, backend)
    client_type = PosixClient if backend == "posixfs" else DaosClient
    assert clients and all(type(client) is client_type for client in clients)
    arrays = [
        obj
        for pool in system.pools.values()
        for container in pool.containers()
        for obj in container.objects()
    ]
    assert arrays and all(isinstance(array, ArrayObject) for array in arrays)
    instances = [*clients, *arrays, arrays[0]._extents[0], arrays[0].oid, result.log.records[0]]
    for instance in instances:
        assert not hasattr(instance, "__dict__"), type(instance).__name__
    for cls in (DaosClient, PosixClient, ArrayObject, Extent, KeyValueObject, ObjectId, IoRecord):
        assert "__dict__" not in dir(cls), cls.__name__


def test_clients_keep_no_op_count_dict_and_simulators_no_lane_pool():
    assert "stats" not in DaosClient.__slots__
    # The cluster's handles are one ``client.system.cluster`` away, and the
    # fault count is a sum over the op table (see tests/daos/test_rpc.py).
    for name in ("net", "fabric", "provider", "faults_injected"):
        assert name not in DaosClient.__slots__, name
    assert isinstance(DaosClient.stats, property)
    sim = Simulator()
    assert not any("lane" in name for name in vars(sim))
    assert not any("lane" in name for name in dir(Simulator))


def test_finished_processes_hold_no_wake():
    """A finished process drops its wake: the Process <-> Wake cycle would
    otherwise outlive a pass whose collector is paused."""
    sim = Simulator()

    def body():
        yield 1.0

    processes = [sim.process(body()), *sim.spawn_batch([body(), body()])]
    sim.run()
    assert all(process.processed and process._wake is None for process in processes)


def test_default_clients_build_no_stage_list_until_read():
    """A default client builds no stage list, ever: it holds no policy
    object (no admission), and the system turns on no default policy."""
    (_, system, _, clients, _), _ = _ior_deployment(2)
    assert not system.default_staged
    assert all(client._qos is None for client in clients)
