"""IOR clone — segments mode over the DAOS Array API (§5.1).

Reproduces exactly the op sequence the paper configures (``-b = -t =`` part
size, ``-s`` parts, ``-i 1``, ``-F`` file per process): every process does

    a) initial barrier, b) pre-I/O barrier, c) object create/open of
    ``t*s`` bytes, d) one transfer of ``t*s`` bytes, e) object close,
    f) post-I/O barrier, g) logging, h) final barrier.

Access pattern A drives it: a write phase with one process set, then — once
all writers everywhere have finished — a read phase with a fresh process set
of the same size and distribution reading the objects back (§5.3).

Per §5.5, IOR's ``io_start`` coincides with ``open_start``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Dict

from repro.bench.metrics import BandwidthSummary, summarise
from repro.bench.sync import Barrier
from repro.bench.timestamps import IoRecord, TimestampLog
from repro.backends.protocol import StorageClient
from repro.config import ClusterConfig
from repro.daos.objclass import OC_S1, ObjectClass
from repro.daos.oid import ObjectId
from repro.daos.payload import PatternPayload
from repro.daos.system import DaosSystem
from repro.hardware.topology import Cluster
from repro.units import MiB

__all__ = ["IorParams", "IorResult", "run_ior"]


@dataclass(frozen=True)
class IorParams:
    """One IOR invocation (segments mode)."""

    #: ``-b``/``-t``: size of each data part (segment), bytes.
    segment_size: int = 1 * MiB
    #: ``-s``: number of parts per process; object size = segment_size * segments.
    segments: int = 100
    #: Client processes per client node.
    processes_per_node: int = 24
    #: DAOS object class for the per-process arrays.
    oclass: ObjectClass = OC_S1
    #: Run the write phase / the read phase.
    do_write: bool = True
    do_read: bool = True
    #: Byte-compare read data against what the write phase stored (IOR's
    #: ``-R`` read-verify).  Costs host memory/CPU proportional to the
    #: object size; simulated timing is unaffected.
    verify_reads: bool = False

    def __post_init__(self) -> None:
        if self.segment_size < 1:
            raise ValueError("segment size must be positive")
        if self.segments < 1:
            raise ValueError("segment count must be positive")
        if self.processes_per_node < 1:
            raise ValueError("processes per node must be positive")
        if not (self.do_write or self.do_read):
            raise ValueError("nothing to do: enable write and/or read")

    @property
    def object_size(self) -> int:
        return self.segment_size * self.segments


@dataclass
class IorResult:
    """Timestamp logs and bandwidth summary of one IOR run."""

    params: IorParams
    config: ClusterConfig
    log: TimestampLog
    summary: BandwidthSummary = dataclass_field(init=False)

    def __post_init__(self) -> None:
        self.summary = summarise(self.log, synchronous=True)


def _ior_process(
    client: StorageClient,
    pool,
    container,
    rank: int,
    node: int,
    params: IorParams,
    barriers: Dict[str, Barrier],
    oids: Dict[int, ObjectId],
    log: TimestampLog,
    op: str,
):
    """One IOR client process (one phase)."""
    sim = client.sim
    yield barriers["initial"].wait()
    yield barriers["pre_io"].wait()
    io_start = open_start = sim.now
    if op == "write":
        array = yield from client.array_create(container, params.oclass)
        oids[rank] = array.oid
    else:
        array = yield from client.array_open(container, oids[rank])
    open_end = sim.now
    transfer_start = sim.now
    if op == "write":
        payload = PatternPayload(params.object_size, seed=rank)
        yield from client.array_write(array, 0, payload, pool=pool)
    else:
        payload = yield from client.array_read(array, 0, params.object_size)
        if payload.size != params.object_size:
            raise AssertionError(
                f"rank {rank} read {payload.size} B, expected {params.object_size}"
            )
        if params.verify_reads:
            expected = PatternPayload(params.object_size, seed=rank)
            if payload != expected:
                raise AssertionError(f"rank {rank} read-verify mismatch")
    transfer_end = sim.now
    close_start = sim.now
    yield from client.array_close(array)
    close_end = io_end = sim.now
    yield barriers["post_io"].wait()
    log.add(
        IoRecord(
            node=node,
            rank=rank,
            iteration=0,
            op=op,
            size=params.object_size,
            io_start=io_start,
            io_end=io_end,
            open_start=open_start,
            open_end=open_end,
            transfer_start=transfer_start,
            transfer_end=transfer_end,
            close_start=close_start,
            close_end=close_end,
        )
    )
    yield barriers["final"].wait()


def _run_phase(
    cluster: Cluster,
    system: DaosSystem,
    pool,
    container,
    params: IorParams,
    oids: Dict[int, ObjectId],
    log: TimestampLog,
    op: str,
) -> None:
    addresses = cluster.client_addresses(params.processes_per_node)
    n = len(addresses)
    barriers = {
        name: Barrier(cluster.sim, n, name=f"ior:{op}:{name}")
        for name in ("initial", "pre_io", "post_io", "final")
    }
    # One wave at one instant: a shared bootstrap (event-order identical to
    # a spawn loop, see Simulator.spawn_batch) instead of one per rank.
    processes = cluster.sim.spawn_batch(
        (
            _ior_process(
                system.make_client(address), pool, container, rank,
                rank // params.processes_per_node, params, barriers, oids, log, op,
            )
            for rank, address in enumerate(addresses)
        ),
        name=f"ior:{op}",
    )
    cluster.sim.run(until=cluster.sim.all_of(processes))


def run_ior(
    cluster: Cluster,
    system: DaosSystem,
    pool,
    params: IorParams,
    container_label: str = "ior",
    between_phases=None,
) -> IorResult:
    """Run IOR (access pattern A) on an assembled deployment.

    The container is created outside the timed region, as IOR's setup is.
    ``between_phases``, if given, is called (with no arguments) after the
    write phase completes and before the read phase starts — e.g. to reset
    telemetry so each phase is sampled separately.
    """
    setup_client = system.make_client(cluster.client_addresses(1)[0])
    container_process = cluster.sim.process(
        setup_client.container_create(pool, label=container_label, is_default=True)
    )
    container = cluster.sim.run(until=container_process)

    oids: Dict[int, ObjectId] = {}
    log = TimestampLog()
    log.execution_start = cluster.sim.now
    if params.do_write:
        _run_phase(cluster, system, pool, container, params, oids, log, "write")
    if params.do_read:
        if not params.do_write:
            raise ValueError("read-only IOR requires a prior write phase for its data")
        if between_phases is not None:
            between_phases()
        _run_phase(cluster, system, pool, container, params, oids, log, "read")
    log.execution_end = cluster.sim.now
    log.validate()
    return IorResult(params=params, config=cluster.config, log=log)
