"""The Field I/O benchmark (§5.2): unsynchronised field write/read streams.

Parallel processes each perform a sequence of field I/O operations with the
:class:`~repro.fdb.fieldio.FieldIO` functions — no barriers, no start
synchronisation (processes begin after a random start-up delay, which is why
the paper needs high iteration counts "to reduce the effect of any process
start-up delays in global timing bandwidth measurements", §6.3.1).

Two access patterns (§5.3):

* **A** — every process writes ``n_ops`` new fields; once *all* writers are
  done, a fresh process set reads them back.
* **B** — after a setup phase, half the processes re-write their designated
  field while the other half simultaneously re-reads theirs (the designated
  pairs collide, mimicking model output being post-processed as it lands).

Contention is controlled through the keys (see
:mod:`repro.workloads.generator`): ``HIGH`` shares one forecast index KV
among all processes, ``LOW`` gives each process its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from enum import Enum
from typing import Dict, List

from repro.bench.metrics import BandwidthSummary, summarise
from repro.bench.timestamps import IoRecord, TimestampLog
from repro.config import ClusterConfig
from repro.daos.errors import SimulatedFaultError
from repro.daos.objclass import OC_S1, OC_SX, ObjectClass
from repro.daos.rpc import OpStats, merge_op_stats
from repro.daos.system import DaosSystem
from repro.fdb.fieldio import FieldIO
from repro.fdb.modes import FieldIOMode
from repro.hardware.topology import Cluster
from repro.units import MiB
from repro.workloads.fields import field_payload
from repro.workloads.generator import pattern_a_keys, pattern_b_pairs

__all__ = [
    "Contention",
    "FieldIOBenchParams",
    "FieldIOBenchResult",
    "run_fieldio_pattern_a",
    "run_fieldio_pattern_b",
]


class Contention(Enum):
    """Index-KV contention level (§5.2)."""

    #: One forecast index KV per process — the optimistic usage scenario.
    LOW = "low"
    #: A single forecast index KV shared by every process — worst case.
    HIGH = "high"


@dataclass(frozen=True)
class FieldIOBenchParams:
    """One Field I/O benchmark run."""

    mode: FieldIOMode = FieldIOMode.FULL
    contention: Contention = Contention.HIGH
    #: I/O operations per process (the paper uses 2000 for Figs 4/5 and 100
    #: for Fig 6; scaled runs use proportionally fewer).
    n_ops: int = 50
    #: Field (array object) size in bytes.
    field_size: int = 1 * MiB
    processes_per_node: int = 8
    kv_oclass: ObjectClass = OC_SX
    array_oclass: ObjectClass = OC_S1
    #: Maximum random process start-up delay, seconds.  Real MPI launches
    #: stagger process starts; this is what makes short runs report lower
    #: global timing bandwidth (§6.3.1).
    startup_skew: float = 0.25
    #: Pipelined Field I/O writes: overlap the array transfer with the index
    #: kv_put via the client event queue (arXiv:2404.03107).  Off by default
    #: — the blocking path is the paper's measured configuration.
    async_io: bool = False

    def __post_init__(self) -> None:
        if self.n_ops < 1:
            raise ValueError("need at least one op per process")
        if self.field_size < 1:
            raise ValueError("field size must be positive")
        if self.processes_per_node < 1:
            raise ValueError("processes per node must be positive")
        if self.startup_skew < 0:
            raise ValueError("start-up skew must be non-negative")


@dataclass
class FieldIOBenchResult:
    """Timestamp log and bandwidths of one Field I/O benchmark run."""

    params: FieldIOBenchParams
    config: ClusterConfig
    pattern: str
    log: TimestampLog
    #: Aggregated per-op RPC stats across every client process in the run
    #: (the report layer renders these as the RPC breakdown table).
    rpc_stats: Dict[str, OpStats] = dataclass_field(default_factory=dict)
    summary: BandwidthSummary = dataclass_field(init=False)

    def __post_init__(self) -> None:
        self.summary = summarise(self.log, synchronous=False)


def _check_known_bugs(cluster: Cluster, params: FieldIOBenchParams, pattern: str) -> None:
    """Reproduce the instability the paper hit (§7) when asked to.

    "our benchmarks with Field I/O in full mode, access pattern A with low
    contention failed using more than 8 server nodes."
    """
    if not cluster.config.daos.emulate_known_bugs:
        return
    if (
        params.mode is FieldIOMode.FULL
        and params.contention is Contention.LOW
        and pattern == "A"
        and cluster.config.n_server_nodes > 8
    ):
        raise SimulatedFaultError(
            "DAOS v2.0.1 instability: Field I/O full mode, pattern A, low "
            "contention fails with more than 8 server nodes (paper §7)"
        )


def _make_fieldio(
    system: DaosSystem, pool, address, params: FieldIOBenchParams
) -> FieldIO:
    client = system.make_client(address)
    return FieldIO(
        client,
        pool,
        mode=params.mode,
        kv_oclass=params.kv_oclass,
        array_oclass=params.array_oclass,
        async_io=params.async_io,
    )


def _bootstrap(cluster: Cluster, system: DaosSystem, pool) -> None:
    client = system.make_client(cluster.client_addresses(1)[0])
    process = cluster.sim.process(FieldIO.bootstrap(client, pool))
    cluster.sim.run(until=process)


def _skew_delays(cluster: Cluster, n: int, skew: float, phase: str) -> List[float]:
    rng = cluster.sim.rng.stream(f"fieldio-skew-{phase}")
    if skew <= 0.0:
        return [0.0] * n
    return list(rng.uniform(0.0, skew, size=n))


def _field_stream_process(
    fieldio: FieldIO,
    keys,
    op: str,
    rank: int,
    node: int,
    delay: float,
    field_size: int,
    log: TimestampLog,
):
    """One benchmark process: a delay, then a sequence of field ops."""
    sim = fieldio.client.sim
    if delay > 0.0:
        yield sim.timeout(delay)
    for iteration, key in enumerate(keys):
        io_start = sim.now
        if op == "write":
            yield from fieldio.write(key, field_payload(key, field_size))
        else:
            payload = yield from fieldio.read(key)
            if payload.size != field_size:
                raise AssertionError(
                    f"rank {rank} read {payload.size} B for {key.canonical()!r}, "
                    f"expected {field_size}"
                )
        log.add(
            IoRecord(
                node=node,
                rank=rank,
                iteration=iteration,
                op=op,
                size=field_size,
                io_start=io_start,
                io_end=sim.now,
            )
        )


def run_fieldio_pattern_a(
    cluster: Cluster, system: DaosSystem, pool, params: FieldIOBenchParams
) -> FieldIOBenchResult:
    """Access pattern A: unique writes, then (all done) unique reads."""
    _check_known_bugs(cluster, params, "A")
    _bootstrap(cluster, system, pool)
    addresses = cluster.client_addresses(params.processes_per_node)
    shared = params.contention is Contention.HIGH
    log = TimestampLog()
    log.execution_start = cluster.sim.now

    clients = []
    for op, phase in (("write", "a-write"), ("read", "a-read")):
        delays = _skew_delays(cluster, len(addresses), params.startup_skew, phase)
        streams = []
        for rank, address in enumerate(addresses):
            fieldio = _make_fieldio(system, pool, address, params)
            clients.append(fieldio.client)
            keys = pattern_a_keys(rank, params.n_ops, shared)
            node = rank // params.processes_per_node
            streams.append(
                _field_stream_process(
                    fieldio, keys, op, rank, node, delays[rank],
                    params.field_size, log,
                )
            )
        processes = cluster.sim.spawn_batch(streams, name=f"fieldio:{phase}")
        cluster.sim.run(until=cluster.sim.all_of(processes))

    log.execution_end = cluster.sim.now
    log.validate()
    return FieldIOBenchResult(
        params=params,
        config=cluster.config,
        pattern="A",
        log=log,
        rpc_stats=merge_op_stats(c.op_metrics for c in clients),
    )


def run_fieldio_pattern_b(
    cluster: Cluster, system: DaosSystem, pool, params: FieldIOBenchParams
) -> FieldIOBenchResult:
    """Access pattern B: repeated re-writes while repeated reads (§5.3).

    Setup: the writer half populates its designated fields (untimed).
    Main: writers re-write and readers re-read the *same* designated
    fields, concurrently and unsynchronised.
    """
    _check_known_bugs(cluster, params, "B")
    _bootstrap(cluster, system, pool)
    addresses = cluster.client_addresses(params.processes_per_node)
    if len(addresses) % 2 != 0:
        raise ValueError(
            "pattern B needs an even total process count "
            f"(got {len(addresses)}); adjust processes_per_node or node count"
        )
    shared = params.contention is Contention.HIGH
    writer_keys, reader_keys = pattern_b_pairs(len(addresses), shared)
    n_writers = len(writer_keys)

    # Setup phase: populate the designated fields (half the processes write
    # one object each; untimed, like IOR's setup).
    fieldios = {}
    for rank, address in enumerate(addresses):
        fieldios[rank] = _make_fieldio(system, pool, address, params)
    setup_processes = cluster.sim.spawn_batch(
        (
            _field_stream_process(
                fieldios[writer_rank], [writer_keys[writer_rank]], "write",
                writer_rank, writer_rank // params.processes_per_node, 0.0,
                params.field_size, TimestampLog(),
            )
            for writer_rank in range(n_writers)
        ),
        name="fieldio:b-setup",
    )
    cluster.sim.run(until=cluster.sim.all_of(setup_processes))

    # Main phase: re-writes and reads, simultaneously.
    log = TimestampLog()
    log.execution_start = cluster.sim.now
    delays = _skew_delays(cluster, len(addresses), params.startup_skew, "b-main")
    streams = []
    for rank in range(len(addresses)):
        node = rank // params.processes_per_node
        if rank < n_writers:
            op, key = "write", writer_keys[rank]
        else:
            op, key = "read", reader_keys[rank - n_writers]
        keys = [key] * params.n_ops
        streams.append(
            _field_stream_process(
                fieldios[rank], keys, op, rank, node, delays[rank],
                params.field_size, log,
            )
        )
    processes = cluster.sim.spawn_batch(streams, name="fieldio:b-main")
    cluster.sim.run(until=cluster.sim.all_of(processes))
    log.execution_end = cluster.sim.now
    log.validate()
    return FieldIOBenchResult(
        params=params,
        config=cluster.config,
        pattern="B",
        log=log,
        rpc_stats=merge_op_stats(f.client.op_metrics for f in fieldios.values()),
    )
