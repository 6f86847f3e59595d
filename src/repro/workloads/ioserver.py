"""The NWP I/O-server pipeline of §1.2.

At ECMWF the model's ~2500 compute nodes do not talk to storage: fields
travel over the low-latency interconnect to ~250 dedicated I/O-server
nodes, are aggregated and encoded there, and only then flow into the
object store; post-processing reads each step's output as soon as the step
lands.  This module reproduces that three-stage pipeline on the simulated
fabric:

    model ranks --(p2p fabric flows)--> I/O servers --(FDB archive)--> DAOS
                                                   \\--(step-complete)--> product readers

Model ranks and I/O servers are both *client* processes of the storage
system (compute nodes in real life); the model→server hop uses the same
adapters and rails as storage traffic, so heavy field fan-in genuinely
competes with the archive stream, as it does in production.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.bench.metrics import global_timing_bandwidth
from repro.bench.timestamps import IoRecord, TimestampLog
from repro.daos.system import DaosSystem
from repro.fdb.fieldio import FieldIO
from repro.fdb.key import FieldKey
from repro.hardware.topology import Cluster
from repro.simulation.resources import Store
from repro.units import MiB
from repro.workloads.fields import field_payload
from repro.workloads.forecast import ForecastSpec

__all__ = ["PipelineParams", "PipelineResult", "run_pipeline"]


@dataclass(frozen=True)
class PipelineParams:
    """Shape of one model-output pipeline run."""

    n_model_ranks: int = 8
    n_io_servers: int = 4
    n_readers: int = 4
    field_size: int = 2 * MiB
    #: Per-field encoding cost at the I/O server (GRIB encoding CPU time).
    encode_time: float = 200e-6
    #: Simulated interval between a model rank's successive field emissions
    #: (compute time between outputs; 0 = emit as fast as the pipe drains).
    produce_interval: float = 0.0

    def __post_init__(self) -> None:
        if self.n_model_ranks < 1 or self.n_io_servers < 1 or self.n_readers < 1:
            raise ValueError("pipeline needs at least one of each process kind")
        if self.field_size < 1:
            raise ValueError("field size must be positive")
        if self.encode_time < 0 or self.produce_interval < 0:
            raise ValueError("times must be non-negative")


@dataclass
class PipelineResult:
    """Timing and throughput of one pipeline run."""

    params: PipelineParams
    forecast: ForecastSpec
    cycle_time: float
    #: Simulated completion time of each step's archive (step -> time).
    step_completion: Dict[str, float]
    write_log: TimestampLog
    read_log: TimestampLog

    @property
    def archive_bandwidth(self) -> float:
        return global_timing_bandwidth(self.write_log)

    @property
    def read_bandwidth(self) -> float:
        return global_timing_bandwidth(self.read_log)

    @property
    def aggregated_bandwidth(self) -> float:
        return self.archive_bandwidth + self.read_bandwidth


def _model_rank(cluster: Cluster, rank: int, my_addr, server_addrs, keys, params, inboxes):
    """A model rank: emit its fields to their assigned I/O servers."""
    sim = cluster.sim
    provider = cluster.provider
    for index, key in enumerate(keys):
        if params.produce_interval > 0.0:
            yield params.produce_interval
        server_index = (rank + index) % len(server_addrs)
        path = cluster.fabric.p2p_path(my_addr, server_addrs[server_index])
        yield cluster.net.transfer(
            path, params.field_size, rate_cap=provider.per_flow_cap,
            name=f"field:{rank}:{index}",
        )
        inboxes[server_index].put(key)


def _io_server(
    fieldio: FieldIO,
    inbox: Store,
    n_expected: int,
    params: PipelineParams,
    write_log: TimestampLog,
    server_index: int,
    archived: Store,
):
    """One I/O server: receive, encode, archive, announce."""
    sim = fieldio.client.sim
    for count in range(n_expected):
        key = yield inbox.get()
        if params.encode_time > 0.0:
            yield params.encode_time
        start = sim.now
        yield from fieldio.write(key, field_payload(key, params.field_size))
        write_log.add(
            IoRecord(
                node=0, rank=server_index, iteration=count, op="write",
                size=params.field_size, io_start=start, io_end=sim.now,
            )
        )
        archived.put(key)


def _reader(
    fieldio: FieldIO,
    archived: Store,
    n_expected: int,
    params: PipelineParams,
    read_log: TimestampLog,
    reader_index: int,
    step_completion: Dict[str, float],
    per_step_remaining: Dict[str, int],
):
    """One product reader: fetch each field as its archive lands."""
    sim = fieldio.client.sim
    for count in range(n_expected):
        key = yield archived.get()
        start = sim.now
        payload = yield from fieldio.read(key)
        if payload.size != params.field_size:
            raise AssertionError(
                f"reader {reader_index} got {payload.size} B for {key.canonical()!r}"
            )
        read_log.add(
            IoRecord(
                node=0, rank=reader_index, iteration=count, op="read",
                size=params.field_size, io_start=start, io_end=sim.now,
            )
        )
        step = key["step"]
        per_step_remaining[step] -= 1
        if per_step_remaining[step] == 0:
            step_completion[step] = sim.now


def run_pipeline(
    cluster: Cluster,
    system: DaosSystem,
    pool,
    forecast: ForecastSpec,
    params: Optional[PipelineParams] = None,
) -> PipelineResult:
    """Run one forecast through the model → I/O server → reader pipeline."""
    params = params or PipelineParams()
    total_procs = params.n_model_ranks + params.n_io_servers + params.n_readers
    nodes = cluster.config.n_client_nodes
    per_node = -(-total_procs // nodes)  # ceil: pack everything on the clients
    addresses = cluster.client_addresses(per_node)
    model_addrs = addresses[: params.n_model_ranks]
    server_addrs = addresses[
        params.n_model_ranks : params.n_model_ranks + params.n_io_servers
    ]
    reader_addrs = addresses[
        params.n_model_ranks + params.n_io_servers : total_procs
    ]

    bootstrap = system.make_client(addresses[0])
    cluster.sim.run(until=cluster.sim.process(FieldIO.bootstrap(bootstrap, pool)))

    keys: List[FieldKey] = list(forecast.field_keys())
    shards = forecast.partition(params.n_model_ranks)
    # Fields land on servers round-robin from each rank: count expectations.
    expected_per_server = [0] * params.n_io_servers
    for rank, shard in enumerate(shards):
        for index in range(len(shard)):
            expected_per_server[(rank + index) % params.n_io_servers] += 1

    inboxes = [Store(cluster.sim, name=f"ioserver{i}") for i in range(params.n_io_servers)]
    archived = Store(cluster.sim, name="archived")
    write_log = TimestampLog()
    read_log = TimestampLog()
    step_completion: Dict[str, float] = {}
    per_step_remaining = {
        step: len(forecast.params) * len(forecast.levels) for step in forecast.steps
    }

    start = cluster.sim.now
    processes = []
    for rank, shard in enumerate(shards):
        processes.append(
            cluster.sim.process(
                _model_rank(
                    cluster, rank, model_addrs[rank], server_addrs, shard,
                    params, inboxes,
                ),
                name=f"model:{rank}",
            )
        )
    for server_index in range(params.n_io_servers):
        fieldio = FieldIO(system.make_client(server_addrs[server_index]), pool)
        processes.append(
            cluster.sim.process(
                _io_server(
                    fieldio, inboxes[server_index],
                    expected_per_server[server_index], params, write_log,
                    server_index, archived,
                ),
                name=f"ioserver:{server_index}",
            )
        )
    base, extra = divmod(len(keys), params.n_readers)
    for reader_index in range(params.n_readers):
        fieldio = FieldIO(system.make_client(reader_addrs[reader_index]), pool)
        expected = base + (1 if reader_index < extra else 0)
        processes.append(
            cluster.sim.process(
                _reader(
                    fieldio, archived, expected, params, read_log,
                    reader_index, step_completion, per_step_remaining,
                ),
                name=f"reader:{reader_index}",
            )
        )
    cluster.sim.run(until=cluster.sim.all_of(processes))

    return PipelineResult(
        params=params,
        forecast=forecast,
        cycle_time=cluster.sim.now - start,
        # Report step completions relative to the cycle start, like the
        # cycle time itself.
        step_completion={step: t - start for step, t in step_completion.items()},
        write_log=write_log,
        read_log=read_log,
    )
