"""The system op table: every client's per-op accumulators as typed rows.

``client.op_metrics`` is a fresh view of the client's rows of its system's
:class:`~repro.daos.rpc.OpTable`.  These tests hold the table to a
reference accumulation of one :class:`~repro.daos.rpc.OpStats` per
(client, op), fed the very values the op driver observes, on both backends.
"""

import dataclasses
import math

import pytest

from repro.bench.runner import build_deployment
from repro.config import (
    ClusterConfig,
    EngineFailureEvent,
    FaultInjectionConfig,
    HealthConfig,
)
from repro.daos.client import DaosClient
from repro.daos.errors import ContainerExistsError, KeyNotFoundError, TargetDownError
from repro.daos.objclass import OC_S1
from repro.daos.oid import ObjectId
from repro.daos.payload import PatternPayload
from repro.daos.rpc import OpColumn, OpStats, merge_op_stats
from repro.experiments.cache import ResultCache
from repro.posixfs.client import PosixClient
from repro.units import KiB
from tests.conftest import run_process

BACKENDS = ["daos", "posixfs"]


def _bits(stats):
    """An exact rendering of ``{op: OpStats}``: floats as hex, ops sorted."""
    return sorted(
        (op, tuple(v.hex() if isinstance(v, float) else v for v in entry.as_dict().values()))
        for op, entry in stats.items()
    )


class _Reference:
    """One ``OpStats`` per (client, op), made at launch and fed every
    observation and stage tally the table receives."""

    def __init__(self, monkeypatch):
        self.stats = {}
        self._rows = {}
        launch, observe, tally = DaosClient._launch, OpColumn.observe, DaosClient.tally_op

        def launch_with_reference(client, op, legs, nbytes):
            entry = self.stats.setdefault(client, {}).setdefault(op, OpStats())
            self._rows[id(client.system.op_table[op]), client._slot] = entry
            return launch(client, op, legs, nbytes)

        def observe_with_reference(column, slot, elapsed, nbytes, ok):
            self._rows[id(column), slot].observe(elapsed, nbytes, ok)
            observe(column, slot, elapsed, nbytes, ok)

        def tally_with_reference(client, op, field):
            entry = self.stats[client][op]
            setattr(entry, field, getattr(entry, field) + 1)
            tally(client, op, field)

        monkeypatch.setattr(DaosClient, "_launch", launch_with_reference)
        monkeypatch.setattr(OpColumn, "observe", observe_with_reference)
        monkeypatch.setattr(DaosClient, "tally_op", tally_with_reference)


def _mixed_config(backend):
    """Fault injection with retries on both backends; on DAOS also health,
    so an engine failure drives pool-map-refresh retries."""
    base = ClusterConfig(n_server_nodes=1, n_client_nodes=1, seed=7)
    daos = dataclasses.replace(
        base.daos,
        fault_injection=FaultInjectionConfig(enabled=True, rate=0.25, seed=13),
        retry=dataclasses.replace(base.daos.retry, max_attempts=8),
    )
    if backend == "daos":
        daos = dataclasses.replace(
            daos,
            health=HealthConfig(
                enabled=True,
                events=(EngineFailureEvent(at=0.0, engine=1, kind="fail"),),
                arm_at_start=False,
            ),
        )
    return dataclasses.replace(base, daos=daos)


def _mixed_run(backend, monkeypatch):
    """Four clients under seeded faults: contended container creates (all
    but one fail), KV puts, a missing-key get, a multi-op and array I/O; on
    DAOS, then gets against a failed engine's targets (refresh, retry, fail)."""
    reference = _Reference(monkeypatch)
    cluster, system, pool = build_deployment(_mixed_config(backend), backend=backend)
    clients = [system.make_client(address) for address in cluster.client_addresses(4)]
    kvs = {}

    def rank(index, client):
        try:
            container = yield from client.container_create(pool, label="c")
        except ContainerExistsError:  # the create-if-absent race of the FDB
            container = yield from client.container_open(pool, "c")
        kv = yield from client.kv_open(container, ObjectId.from_user(0, 0x50 + index), OC_S1)
        kvs[index] = kv
        for key in range(6):
            yield from client.kv_put(kv, b"k%d" % key, b"v" * (key + 1))
        with pytest.raises(KeyNotFoundError):
            yield from client.kv_get(kv, b"missing")
        yield from client.kv_put_many([(kv, b"m%d" % key, b"x") for key in range(3)])
        array = yield from client.array_create(container, OC_S1)
        yield from client.array_write(array, 0, PatternPayload(64 * KiB, seed=index), pool=pool)
        yield from client.array_read(array, 0, 64 * KiB)
        yield from client.array_close(array)

    processes = [cluster.sim.process(rank(i, c)) for i, c in enumerate(clients)]
    cluster.sim.run(until=cluster.sim.all_of(processes))
    if backend == "daos":
        system.arm_failure_schedule()
        cluster.sim.run()
        lost = {target.global_index for target in system.engines[1].targets}
        stale = [(i, kv) for i, kv in sorted(kvs.items()) if kv.layout[0] in lost]
        assert stale, "no KV landed on the failed engine"
        for index, kv in stale:
            with pytest.raises(TargetDownError):
                run_process(cluster, clients[index].kv_get(kv, b"k0"))
    return clients, reference


@pytest.mark.parametrize("backend", BACKENDS)
def test_views_and_merge_equal_a_reference_accumulation(backend, monkeypatch):
    clients, reference = _mixed_run(backend, monkeypatch)
    merged = merge_op_stats(client.op_metrics for client in clients)
    entries = [entry for stats in reference.stats.values() for entry in stats.values()]
    assert sum(entry.errors for entry in entries) > 0
    assert sum(client.faults_injected for client in clients) > 0
    assert merged["container_create"].errors == len(clients) - 1
    assert sum(entry.faults_injected for entry in merged.values()) == sum(
        client.faults_injected for client in clients
    )
    assert sum(entry.retries for entry in merged.values()) > 0
    if backend == "daos":
        assert sum(client.map_refreshes for client in clients) > 0
    for client in clients:
        assert _bits(client.op_metrics) == _bits(reference.stats[client])
        assert client.stats == {op: e.count for op, e in reference.stats[client].items()}
        assert client.faults_injected == sum(
            entry.faults_injected for entry in reference.stats[client].values()
        )
    # Only the columns that saw a failure, retry or fault made a tallies map,
    # and it holds an entry for exactly the slots that had one.
    for op, column in clients[0].system.op_table.items():
        tallied = {
            client._slot
            for client in clients
            if op in reference.stats[client]
            and any(
                getattr(reference.stats[client][op], field)
                for field in ("errors", "retries", "faults_injected")
            )
        }
        assert set(column.tallies or ()) == tallied, op
    assert _bits(merged) == _bits(merge_op_stats(reference.stats[c] for c in clients))


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_failure_free_run_builds_no_tallies(backend):
    """A row keeps what every op writes -- ``count`` and ``total_bytes``,
    then the three times -- and a run with no failure, retry or fault
    builds no column's sparse ``tallies`` map."""
    cluster, system, pool = build_deployment(
        ClusterConfig(n_server_nodes=1, n_client_nodes=1, seed=0), backend=backend
    )
    clients = [system.make_client(address) for address in cluster.client_addresses(2)]

    def rank(index, client):
        try:
            container = yield from client.container_create(pool, label="c")
        except ContainerExistsError:
            container = yield from client.container_open(pool, "c")
        kv = yield from client.kv_open(container, ObjectId.from_user(0, 0x70 + index), OC_S1)
        yield from client.kv_put(kv, b"k", b"v")
        yield from client.kv_get(kv, b"k")
        array = yield from client.array_create(container, OC_S1)
        yield from client.array_write(array, 0, PatternPayload(64 * KiB, seed=index), pool=pool)
        yield from client.array_read(array, 0, 64 * KiB)
        yield from client.array_close(array)

    # The first rank's create succeeds: nothing has failed yet.
    run_process(cluster, rank(0, clients[0]))
    table = system.op_table
    assert all(column.tallies is None for column in table.values())
    for column in table.values():
        rows = column.stop - column.base
        assert (len(column.counts), len(column.times)) == (2 * rows, 3 * rows)
    entry = clients[0].op_metrics["array_write"]
    assert (entry.count, entry.errors, entry.retries, entry.faults_injected) == (1, 0, 0, 0)
    assert entry.total_bytes == 64 * KiB
    # The second rank's create fails (the container exists): that makes
    # ``container_create``'s map, for that slot alone.
    run_process(cluster, rank(1, clients[1]))
    assert table["container_create"].tallies == {clients[1]._slot: [1, 0, 0]}
    assert all(column.tallies is None for op, column in table.items() if op != "container_create")


@pytest.mark.parametrize("backend", BACKENDS)
def test_an_in_flight_op_shows_count_zero(backend):
    cluster, system, _pool = build_deployment(
        ClusterConfig(n_server_nodes=1, n_client_nodes=1, seed=0), backend=backend
    )
    client = system.make_client(cluster.client_addresses(1)[0])

    def legs():
        yield 1.0

    def caller():
        return (yield client._launch("legs", legs(), 5))

    cluster.sim.process(caller())
    cluster.sim.run(until=0.5)
    entry = client.op_metrics["legs"]
    assert (entry.count, entry.errors, entry.total_time, entry.total_bytes) == (0, 0, 0.0, 0)
    assert entry.min_time == math.inf and entry.max_time == 0.0
    assert client.stats == {"legs": 0}
    cluster.sim.run()
    entry = client.op_metrics["legs"]
    assert (entry.count, entry.total_time, entry.min_time, entry.total_bytes) == (1, 1.0, 1.0, 5)


@pytest.mark.parametrize("backend", BACKENDS)
def test_lower_slot_after_higher_slot_prepends_rows(backend):
    """Slots 0..3; the op is first used by slot 3, then slot 1, then slot 0:
    the column grows downwards twice and slot 2 stays absent from views
    until it uses the op; a second op appends past a gap."""
    cluster, system, pool = build_deployment(
        ClusterConfig(n_server_nodes=1, n_client_nodes=1, seed=0), backend=backend
    )
    clients = [system.make_client(address) for address in cluster.client_addresses(4)]
    assert [client._slot for client in clients] == [0, 1, 2, 3]

    def legs(delay):
        yield delay

    def caller(client, delay):
        return (yield client._launch("legs", legs(delay), 1))

    def client_op(client, op):
        return (yield client._launch(op, legs(0.5), 0))

    for index, delay in ((3, 0.5), (1, 0.25), (0, 2.0), (3, 1.0)):
        run_process(cluster, caller(clients[index], delay))
    column = system.op_table["legs"]
    assert (column.base, column.stop) == (0, 4)
    views = [client.op_metrics for client in clients]
    assert "legs" not in views[2] and "legs" not in clients[2].stats
    assert [(v["legs"].count, v["legs"].total_time) for v in (views[0], views[1], views[3])] == [
        (1, 2.0), (1, 0.25), (2, 1.5)
    ]
    assert (views[3]["legs"].min_time, views[3]["legs"].max_time) == (0.5, 1.0)
    # The absent row fills in when its slot first uses the op.
    run_process(cluster, caller(clients[2], 0.125))
    assert clients[2].op_metrics["legs"].count == 1
    assert [client.op_metrics["legs"].count for client in clients] == [1, 1, 1, 2]
    # Appending past a gap: slots 1 and 2 get absent rows.
    for index in (0, 3):
        run_process(cluster, client_op(clients[index], "other"))
    assert (system.op_table["other"].base, system.op_table["other"].stop) == (0, 4)
    assert ["other" in client.op_metrics for client in clients] == [True, False, False, True]


@pytest.mark.parametrize("backend", BACKENDS)
def test_cache_round_trips_merged_rpc_stats(backend, monkeypatch, tmp_path):
    clients, _ = _mixed_run(backend, monkeypatch)
    merged = merge_op_stats(client.op_metrics for client in clients)
    cache = ResultCache(tmp_path)
    fingerprint = cache.fingerprint(test_cache_round_trips_merged_rpc_stats, {"b": backend})
    cache.store(
        fingerprint,
        test_cache_round_trips_merged_rpc_stats,
        {"rpc_stats": {op: stats.as_dict() for op, stats in merged.items()}},
    )
    hit, point = ResultCache(tmp_path).lookup(fingerprint)
    assert hit
    restored = {op: OpStats.from_dict(data) for op, data in point["rpc_stats"].items()}
    assert _bits(restored) == _bits(merged)
    assert list(restored) == list(merged)


def test_op_metrics_is_a_read_only_view():
    assert "op_metrics" not in DaosClient.__slots__
    assert "op_metrics" not in PosixClient.__slots__
    assert isinstance(DaosClient.op_metrics, property)
    assert DaosClient.op_metrics.fset is None
    cluster, system, _pool = build_deployment(
        ClusterConfig(n_server_nodes=1, n_client_nodes=1, seed=0)
    )
    client = system.make_client(cluster.client_addresses(1)[0])

    def legs():
        yield 1.0

    run_process(cluster, (lambda: (yield client._launch("legs", legs(), 0)))())
    view = client.op_metrics
    view["legs"].retries += 1
    view["other"] = OpStats()
    assert client.op_metrics is not view
    assert client.op_metrics == {"legs": OpStats(1, 0, 0, 0, 1.0, 1.0, 1.0, 0)}
