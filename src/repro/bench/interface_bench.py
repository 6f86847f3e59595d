"""Client-interface comparison benchmark (after Manubens et al., arXiv:2311.18714).

The paper's follow-up work benchmarks the different DAOS client interfaces
for the same weather-field workload: the native Field I/O functions against
the DFS file-system layer and the pydaos-style dictionary path.  This
benchmark runs the *same* per-process field stream — write ``n_ops`` fields,
then read them all back, no barriers, per-process keys — through one of
three adapters over an assembled deployment:

* ``native`` — :class:`~repro.fdb.fieldio.FieldIO` in full mode (the
  paper's measured path: array object per field plus index KV updates);
* ``dfs`` — one file per field through :class:`~repro.daos.dfs.Dfs`
  (directory-KV walks and entry updates around every array transfer);
* ``kv`` — whole fields as single KV values, the data path under the
  pydaos ``DDict`` convenience interface of :mod:`repro.daos.simple`
  (no array objects at all; every field is one ``kv_put``/``kv_get``).

Contention is deliberately low (per-process objects) so the per-operation
interface overhead, not index serialisation, dominates the comparison.  For
the ``kv`` adapter to report honest bandwidth the deployment should enable
``kv_bulk_threshold`` so whole-field values move as fabric bulk flows.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from repro.backends.protocol import StorageClient
from repro.bench.metrics import BandwidthSummary, summarise
from repro.bench.timestamps import IoRecord, TimestampLog
from repro.config import ClusterConfig
from repro.daos.dfs import Dfs
from repro.daos.objclass import OC_SX
from repro.daos.oid import ObjectId
from repro.daos.payload import PatternPayload
from repro.fdb.fieldio import FieldIO
from repro.fdb.modes import FieldIOMode
from repro.hardware.topology import Cluster
from repro.units import MiB
from repro.workloads.fields import field_payload
from repro.workloads.generator import pattern_a_keys

__all__ = [
    "INTERFACES",
    "InterfaceBenchParams",
    "InterfaceBenchResult",
    "run_interface_bench",
]

#: Adapter names, in report order.
INTERFACES = ("native", "dfs", "kv")

#: Container label of the KV adapter; OID namespace base for its per-rank KVs.
_KV_CONTAINER = "iface_kv"
_KV_OID_BASE = 0x1F000


@dataclass(frozen=True)
class InterfaceBenchParams:
    """One interface-comparison run."""

    interface: str = "native"
    n_ops: int = 20
    field_size: int = 1 * MiB
    processes_per_node: int = 8
    #: Maximum random process start-up delay, seconds (as in the Field I/O
    #: benchmark — real MPI launches stagger process starts).
    startup_skew: float = 0.1

    def __post_init__(self) -> None:
        if self.interface not in INTERFACES:
            raise ValueError(
                f"unknown interface {self.interface!r}; expected one of {INTERFACES}"
            )
        if self.n_ops < 1:
            raise ValueError("need at least one op per process")
        if self.field_size < 1:
            raise ValueError("field size must be positive")
        if self.processes_per_node < 1:
            raise ValueError("processes per node must be positive")
        if self.startup_skew < 0:
            raise ValueError("start-up skew must be non-negative")


@dataclass
class InterfaceBenchResult:
    """Timestamp log and bandwidths of one interface-comparison run."""

    params: InterfaceBenchParams
    config: ClusterConfig
    log: TimestampLog
    summary: BandwidthSummary = dataclass_field(init=False)

    def __post_init__(self) -> None:
        self.summary = summarise(self.log, synchronous=False)


class _NativeAdapter:
    """Field I/O full mode: array object per field plus index KV updates."""

    def __init__(self, client: StorageClient, pool, rank: int, params) -> None:
        self.fieldio = FieldIO(client, pool, mode=FieldIOMode.FULL)
        self.keys = pattern_a_keys(rank, params.n_ops, shared_forecast=False)
        self.field_size = params.field_size

    def write(self, index: int):
        key = self.keys[index]
        yield from self.fieldio.write(key, field_payload(key, self.field_size))

    def read(self, index: int):
        payload = yield from self.fieldio.read(self.keys[index])
        return payload


class _DfsAdapter:
    """One file per field through the DFS layer."""

    def __init__(self, client: StorageClient, pool, rank: int, params) -> None:
        self.client = client
        self.pool = pool
        self.rank = rank
        self.field_size = params.field_size
        self.dfs = None  # mounted in setup()

    def setup(self):
        self.dfs = yield from Dfs.mount(self.client, self.pool)
        yield from self.dfs.mkdir(f"/iface.{self.rank}")

    def _path(self, index: int) -> str:
        return f"/iface.{self.rank}/field.{index}"

    def write(self, index: int):
        payload = PatternPayload(
            self.field_size, seed=self.rank * 65536 + index
        )
        yield from self.dfs.write_file(self._path(index), payload)

    def read(self, index: int):
        payload = yield from self.dfs.read_file(self._path(index))
        return payload


class _KvAdapter:
    """Whole fields as single KV values (the pydaos ``DDict`` data path)."""

    def __init__(self, client: StorageClient, pool, rank: int, params) -> None:
        self.client = client
        self.pool = pool
        self.rank = rank
        self.value = b"\xa5" * params.field_size
        self.kv = None  # opened in setup()

    def setup(self):
        container = yield from self.client.container_open(self.pool, _KV_CONTAINER)
        self.kv = yield from self.client.kv_open(
            container, ObjectId.from_user(0, _KV_OID_BASE + self.rank), OC_SX
        )

    def write(self, index: int):
        yield from self.client.kv_put(self.kv, b"field.%d" % index, self.value)

    def read(self, index: int):
        value = yield from self.client.kv_get(self.kv, b"field.%d" % index)
        return value


_ADAPTERS = {"native": _NativeAdapter, "dfs": _DfsAdapter, "kv": _KvAdapter}


def _bootstrap(cluster: Cluster, system, pool, interface: str) -> None:
    """Shared namespace setup, outside the timed phases (like IOR's setup)."""
    client = system.make_client(cluster.client_addresses(1)[0])
    sim = cluster.sim
    if interface == "native":
        sim.run(until=sim.process(FieldIO.bootstrap(client, pool)))
    elif interface == "dfs":
        sim.run(until=sim.process(Dfs.mount(client, pool)))
    else:
        def create():
            yield from client.container_create(pool, label=_KV_CONTAINER)

        sim.run(until=sim.process(create()))


def _stream(sim, adapter, op: str, rank: int, node: int, delay: float,
            params: InterfaceBenchParams, log: TimestampLog):
    """One benchmark process: a delay, then a sequence of field ops."""
    if delay > 0.0:
        yield float(delay)
    for index in range(params.n_ops):
        start = sim.now
        if op == "write":
            yield from adapter.write(index)
        else:
            result = yield from adapter.read(index)
            size = result.size if hasattr(result, "size") else len(result)
            if size != params.field_size:
                raise AssertionError(
                    f"rank {rank} read {size} B via {params.interface!r}, "
                    f"expected {params.field_size}"
                )
        log.add(
            IoRecord(
                node=node, rank=rank, iteration=index, op=op,
                size=params.field_size, io_start=start, io_end=sim.now,
            )
        )


def run_interface_bench(
    cluster: Cluster, system, pool, params: InterfaceBenchParams
) -> InterfaceBenchResult:
    """Run the write-then-read field stream through one interface adapter."""
    sim = cluster.sim
    _bootstrap(cluster, system, pool, params.interface)
    addresses = cluster.client_addresses(params.processes_per_node)

    adapters = [
        _ADAPTERS[params.interface](system.make_client(address), pool, rank, params)
        for rank, address in enumerate(addresses)
    ]
    # Each wave below starts at one instant, so it rides one shared
    # bootstrap (event-order identical to a spawn loop).
    setup_processes = sim.spawn_batch(
        (adapter.setup() for adapter in adapters if hasattr(adapter, "setup")),
        name="iface-setup",
    )
    if setup_processes:
        sim.run(until=sim.all_of(setup_processes))

    log = TimestampLog()
    log.execution_start = sim.now
    for op, phase in (("write", "write"), ("read", "read")):
        if params.startup_skew > 0.0:
            rng = cluster.sim.rng.stream(f"iface-skew-{phase}")
            delays = list(rng.uniform(0.0, params.startup_skew, size=len(addresses)))
        else:
            delays = [0.0] * len(addresses)
        processes = sim.spawn_batch(
            (
                _stream(
                    sim, adapter, op, rank, rank // params.processes_per_node,
                    delays[rank], params, log,
                )
                for rank, adapter in enumerate(adapters)
            ),
            name=f"iface:{phase}",
        )
        sim.run(until=sim.all_of(processes))
    log.execution_end = sim.now
    log.validate()
    return InterfaceBenchResult(params=params, config=cluster.config, log=log)
