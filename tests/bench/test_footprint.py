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
from repro.units import KiB

#: Retained bytes allowed per finished IOR rank (see the test below).
RANK_BYTES_BOUND = 4_500


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
    one array with its lock and extent, two timestamp records.  On CPython
    3.11 it kept 5,562 B before clients, objects and locks dropped the
    state they never use (empty lock queues, per-lock name strings,
    instance dicts, per-client stage lists and container caches), and
    keeps 3,779 B after."""
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


def test_default_clients_build_no_stage_list_until_read():
    (_, system, _, clients, _), _ = _ior_deployment(2)
    assert all(client._middleware is None for client in clients)
    # Reading it builds a list of the client's own (see test_shared_chain).
    assert clients[0].middleware is not clients[1].middleware
    assert clients[0]._middleware is not None

