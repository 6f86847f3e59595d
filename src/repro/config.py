"""Configuration dataclasses and calibration constants.

Every number here is either taken from the paper's description of the
NEXTGenIO testbed (§6.1) or *calibrated* against one of its measurements.
Where a constant is calibrated, the comment names the anchoring measurement
(table/figure) so the provenance is auditable.  The reproduction targets the
*shape* of the results — orderings, scaling slopes, crossovers — rather than
absolute numbers, per DESIGN.md §5.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.units import GiB, MiB, USEC

__all__ = [
    "ProviderSpec",
    "TCP_PROVIDER",
    "PSM2_PROVIDER",
    "HardwareConfig",
    "FaultInjectionConfig",
    "RetryPolicy",
    "EngineFailureEvent",
    "HealthConfig",
    "DaosServiceConfig",
    "ClusterConfig",
]


@dataclass(frozen=True)
class FaultInjectionConfig:
    """Deterministic, seeded RPC fault schedule (off by default).

    When enabled, the client's attempt loop drops RPCs
    according to a schedule that is a pure function of ``seed``, the client
    address, the op kind, and the per-client RPC sequence number — so a
    faulty run replays identically, independent of every other random
    stream.  Injected faults surface as
    :class:`~repro.daos.errors.SimulatedFaultError` *before* the op touches
    any state, which is what makes retry-with-backoff sound.
    """

    enabled: bool = False
    #: Probability an RPC is dropped (evaluated on the deterministic schedule).
    rate: float = 0.0
    #: Schedule seed, independent of the simulation seed so fault placement
    #: can be varied without perturbing the workload timeline.
    seed: int = 0
    #: Restrict injection to these op kinds (empty tuple = all ops).
    ops: Tuple[str, ...] = ()
    #: Cap on total faults injected per client (``None`` = unlimited).
    max_faults: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.max_faults is not None and self.max_faults < 0:
            raise ValueError("max_faults must be non-negative")


@dataclass(frozen=True)
class EngineFailureEvent:
    """One scheduled health transition of an engine.

    ``at`` is relative to the moment the schedule is armed (by default the
    instant the :class:`~repro.daos.system.DaosSystem` is built; experiments
    that need a failure mid-phase arm manually via
    ``DaosSystem.arm_failure_schedule``).
    """

    at: float
    #: Global engine index (order of ``DaosSystem.engines``).
    engine: int
    #: ``"fail"`` takes the engine's targets DOWN; ``"reintegrate"`` brings
    #: previously failed/excluded targets back UP.
    kind: str = "fail"

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"event time must be non-negative, got {self.at}")
        if self.engine < 0:
            raise ValueError(f"engine index must be non-negative, got {self.engine}")
        if self.kind not in ("fail", "reintegrate"):
            raise ValueError(f"unknown event kind {self.kind!r}")


@dataclass(frozen=True)
class HealthConfig:
    """Pool health / self-healing model (off by default).

    When disabled, no monitor process is created and no health checks alter
    the event stream — the default path stays bit-identical to the
    health-unaware kernel (the golden digests are the contract).  When
    enabled, the scheduled :class:`EngineFailureEvent` list drives engine
    failures and reintegrations; replicated objects survive via degraded
    reads and a background rebuild service re-protects them.
    """

    enabled: bool = False
    #: Deterministic failure schedule (see :func:`repro.daos.health.seeded_failure_schedule`
    #: for deriving one from a seed).
    events: Tuple[EngineFailureEvent, ...] = ()
    #: Arm the schedule when the system is built (times relative to t=0).
    #: Experiments that need a failure relative to a phase boundary set this
    #: False and call ``DaosSystem.arm_failure_schedule()`` themselves.
    arm_at_start: bool = True
    #: Pool-service time of a ``pool_query`` (client pool-map refresh).
    pool_query_service_time: float = 50 * USEC
    #: Concurrent shard reconstructions the rebuild service keeps in flight;
    #: the throttle that trades re-protection time against stolen client
    #: bandwidth (real DAOS: per-engine rebuild ULTs).
    rebuild_max_inflight: int = 4

    def __post_init__(self) -> None:
        if self.rebuild_max_inflight < 1:
            raise ValueError("rebuild_max_inflight must be >= 1")
        if self.pool_query_service_time < 0:
            raise ValueError("pool_query_service_time must be non-negative")


@dataclass(frozen=True)
class RetryPolicy:
    """Client retry-with-backoff for faulted RPCs (applied by the client's
    attempt loop)."""

    #: Total attempts per RPC, including the first (1 = no retries).
    max_attempts: int = 3
    #: Backoff before the first retry; doubles (``backoff_factor``) per retry.
    backoff_base: float = 200 * USEC
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")


@dataclass(frozen=True)
class ProviderSpec:
    """Performance envelope of an OFI fabric provider (§6.1.1).

    The per-flow cap and the adapter aggregate curve are anchored on the MPI
    point-to-point measurements of Table 2; the engine-side processing caps
    are anchored on Table 1 / Fig 3 / Fig 7 as noted per field.
    """

    name: str
    #: Max rate of a single stream (Table 2: TCP 3.1 GiB/s, PSM2 12.1 GiB/s).
    per_flow_cap: float
    #: One-way small-message latency. TCP ~100 us (kernel sockets over
    #: OmniPath), PSM2 ~15 us (RDMA). Order of magnitude from OFI provider
    #: characteristics; validated by the Field-I/O-vs-IOR bandwidth gap.
    message_latency: float
    #: Adapter aggregate curve parameters: effective adapter capacity with n
    #: concurrent streams is ``min(curve_scale * n**curve_exponent,
    #: curve_saturation) - droop`` (see :func:`adapter_capacity`).
    #: TCP fit to Table 2 rows (3.1, 4.1, 6.9, 9.5, 9.0 GiB/s at n=1,2,4,8,16).
    curve_scale: float
    curve_exponent: float
    curve_saturation: float
    #: Droop per extra stream beyond ``droop_onset`` streams (Table 2: TCP
    #: drops from 9.5 at 8 pairs to 9.0 at 16 pairs).
    droop_onset: int
    droop_per_flow: float
    droop_floor: float
    #: Server-side per-engine network processing caps.  TCP tx 5.0 GiB/s is
    #: calibrated to Fig 3 (single dual-engine server reads ~5 GiB/s per
    #: engine); PSM2 tx 6.0 gives the +10..25% of Fig 7.  The rx caps bound
    #: the write path together with SCM media write bandwidth (Table 1 write
    #: ceilings ~2.75 GiB/s/engine under TCP; Fig 7 write gap under PSM2).
    engine_tx_cap: float
    engine_rx_cap: float
    #: Client-side DAOS library stack ceilings, per client socket.  The TCP
    #: receive ceiling of ~4.3 GiB/s is calibrated to Table 1 row 1 (read
    #: saturates at 4.2 GiB/s with a single client interface); the send side
    #: is bounded by the adapter aggregate curve instead.
    client_tx_cap: float
    client_rx_cap: float

    def adapter_capacity(self, n_flows: int) -> float:
        """Effective adapter capacity (bytes/s) with ``n_flows`` streams."""
        if n_flows <= 0:
            return self.curve_saturation
        base = min(self.curve_scale * n_flows**self.curve_exponent, self.curve_saturation)
        if n_flows > self.droop_onset:
            base = max(
                base - self.droop_per_flow * (n_flows - self.droop_onset),
                self.droop_floor,
            )
        return base


#: OFI TCP provider (§6.1.1; used for the majority of the paper's runs).
TCP_PROVIDER = ProviderSpec(
    name="tcp",
    per_flow_cap=3.1 * GiB,  # Table 2 row 2
    message_latency=100 * USEC,
    curve_scale=3.1 * GiB,  # Table 2: F(1) = 3.1 GiB/s
    curve_exponent=0.53,  # fit: F(2)=4.5, F(4)=6.5, F(8)=9.3 (Table 2: 4.1/6.9/9.5)
    curve_saturation=9.5 * GiB,  # Table 2: peak aggregate 9.5 GiB/s
    droop_onset=8,
    droop_per_flow=0.06 * GiB,  # Table 2: 9.5 -> 9.0 GiB/s between 8 and 16 pairs
    droop_floor=8.5 * GiB,
    engine_tx_cap=5.0 * GiB,  # Fig 3: ~5 GiB/s read per engine, single server
    engine_rx_cap=2.6 * GiB,  # Table 1: write ceiling ~2.6-3.0 GiB/s per engine
    client_tx_cap=9.5 * GiB,  # Table 2: TCP aggregate peak
    client_rx_cap=4.3 * GiB,  # Table 1 row 1: read 4.2 GiB/s via 1 client iface
)

#: OFI PSM2 provider (RDMA over OmniPath; §6.4, Table 2 row 1, Fig 7).
PSM2_PROVIDER = ProviderSpec(
    name="psm2",
    per_flow_cap=12.1 * GiB,  # Table 2 row 1
    message_latency=15 * USEC,
    curve_scale=12.1 * GiB,
    curve_exponent=0.0,  # RDMA: aggregate is flat at the single-stream rate
    curve_saturation=12.1 * GiB,
    droop_onset=1 << 30,  # no observed droop
    droop_per_flow=0.0,
    droop_floor=12.1 * GiB,
    engine_tx_cap=6.0 * GiB,  # Fig 7: PSM2 reads +10..25% over TCP
    engine_rx_cap=2.9 * GiB,  # Fig 7: PSM2 writes +~10%; bounded by SCM media
    client_tx_cap=12.1 * GiB,  # RDMA: line rate
    client_rx_cap=9.0 * GiB,  # RDMA receive path; Fig 7 low-node-count advantage
)


@dataclass(frozen=True)
class HardwareConfig:
    """NEXTGenIO node and fabric model (§6.1)."""

    #: Dual-socket Cascade Lake nodes.
    sockets_per_node: int = 2
    #: Raw OmniPath adapter bandwidth, one adapter per socket (§6.1).
    adapter_raw_bw: float = 12.5 * GiB
    #: Aggregate bisection capacity of each OmniPath rail.  Calibrated to the
    #: Fig 3 read droop above ~8 server nodes (two rails flatten reads toward
    #: ~75 GiB/s at 10 servers / 20 clients).
    rail_bisection_bw: float = 37.5 * GiB
    #: Inter-switch (rail-to-rail) uplink capacity per direction: traffic
    #: between a client socket on one rail and an engine on the other crosses
    #: it.  Sized to the rail bisection so balanced dual-rail traffic (half of
    #: which crosses) is not uplink-bound.
    inter_rail_bw: float = 37.5 * GiB
    #: Per-socket SCM: 6 x 256 GiB Optane DCPMM gen-1, AppDirect interleaved.
    scm_capacity: int = 6 * 256 * GiB
    #: Per-socket SCM media model.  Gen-1 DCPMM is strongly asymmetric:
    #: reads sustain roughly twice the write rate and mixed read/write
    #: traffic interferes.  We model one media link of ``scm_media_bw``
    #: whose capacity write flows consume ``scm_write_amplification`` times
    #: over: a pure-write socket then sustains media_bw / amplification
    #: (2.75 GiB/s — the paper's per-engine write ceiling), a pure-read
    #: socket the full media_bw, and mixed pattern-B workloads degrade the
    #: way the paper observes (aggregate ~2.75-3.7 GiB/s per engine, Fig 5).
    scm_media_bw: float = 5.5 * GiB
    scm_write_amplification: int = 2


@dataclass(frozen=True)
class DaosServiceConfig:
    """DAOS server-side service model (§3 and emergent-behaviour knobs).

    Service times are charged at the owning target (or the pool service) in
    addition to provider message latency.  They encode the cost of VOS tree
    updates in SCM and of collective container/pool metadata operations.
    """

    #: Engines per server node: one per socket (§6.1: "two DAOS engines ...
    #: one in each socket").
    engines_per_server: int = 2
    #: Targets per engine (§6.1: "12 targets per engine").
    targets_per_engine: int = 12
    #: Concurrent requests a target services at once (xstream group depth).
    target_concurrency: int = 8
    #: Base service time for any object RPC at a target (enqueue, VOS lookup).
    rpc_service_time: float = 10 * USEC
    #: KV update (put) holds the object's serialisation point; calibrated so
    #: a single shared index KV saturates near ~14k updates/s, bending the
    #: Fig 4 indexed-mode write curves past ~4 server nodes.
    kv_put_service_time: float = 70 * USEC
    #: KV lookup (get) also holds the object's serialisation point briefly
    #: (VOS dkey-tree descent on a single hot object); calibrated so shared-KV
    #: reads flatten near ~33k lookups/s (Fig 4 read droop).  On per-process
    #: index KVs the owner is sequential anyway, so this costs nothing extra.
    kv_get_service_time: float = 30 * USEC
    #: Keys returned per ``daos_kv_list`` RPC round-trip (libdaos default
    #: anchor/page granularity); ``kv_list`` charges one get-service per page.
    kv_list_page_size: int = 128
    #: KV values at least this large move as a bulk fabric flow to/from the
    #: dkey target, like a libdaos value above the inline-RPC threshold.
    #: ``None`` (default) keeps values inline, bit-identical to the original
    #: KV model; the ``interfaces`` experiment sets it so the pydaos-style
    #: whole-field-in-KV path pays honest bandwidth (arXiv 2311.18714).
    kv_bulk_threshold: Optional[int] = None
    #: Array open/create/close/punch service times.
    array_create_service_time: float = 30 * USEC
    array_open_service_time: float = 20 * USEC
    array_close_service_time: float = 10 * USEC
    #: Container create/open at the pool service (serial); container create
    #: is a collective (expensive), open a handshake.
    container_create_service_time: float = 500 * USEC
    container_open_service_time: float = 150 * USEC
    #: Pool-service touch charged per array create/open in a *non-default*
    #: container.  This models the per-container metadata traffic that makes
    #: the paper's "full" mode persistently slower than "no containers"
    #: (Fig 5) — an effect the authors report but do not explain (§7).
    container_touch_service_time: float = 25 * USEC
    #: Stripe cell size used by striped object classes.
    stripe_cell_size: int = 1 * MiB
    #: Per-stripe-shard service overheads at the shard's target (extra fetch
    #: RPC per shard).
    shard_read_overhead: float = 120 * USEC
    shard_write_overhead: float = 25 * USEC
    #: Client-side cost of issuing each shard RPC, serial in the client.
    #: Reads pay substantially more per shard than writes: a striped read
    #: issues one fetch round trip per shard and reassembles, while writes
    #: scatter eagerly in bulk.  This asymmetry is what reproduces the
    #: Fig 6 split — striping across all targets (SX) wins for write while
    #: modest striping (S2) wins for read.
    shard_issue_write_time: float = 20 * USEC
    shard_issue_read_time: float = 150 * USEC
    #: Reproduce the instability the paper hit: Field I/O *full* mode with
    #: more than 8 server nodes failed in pattern A low contention (§7).
    emulate_known_bugs: bool = False
    #: RPC fault-injection schedule (client attempt loop; off by default, so
    #: the blocking path stays bit-identical to the fault-free kernel).
    fault_injection: FaultInjectionConfig = field(default_factory=FaultInjectionConfig)
    #: Retry policy applied by the client's attempt loop whenever fault
    #: injection is enabled (ignored otherwise).
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Pool health / engine-failure / rebuild model (off by default; the
    #: health-free path is bit-identical to the pre-health kernel).
    health: HealthConfig = field(default_factory=HealthConfig)


@dataclass(frozen=True)
class ClusterConfig:
    """A complete simulated deployment: servers, clients, provider, seed."""

    n_server_nodes: int = 1
    n_client_nodes: int = 1
    #: Engines actually deployed per server node (1 = single-rail tests).
    engines_per_server: Optional[int] = None
    #: Sockets used per client node (1 = single-rail tests, §6.4).
    client_sockets: Optional[int] = None
    provider: ProviderSpec = TCP_PROVIDER
    hardware: HardwareConfig = field(default_factory=HardwareConfig)
    daos: DaosServiceConfig = field(default_factory=DaosServiceConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_server_nodes < 1:
            raise ValueError("need at least one server node")
        if self.n_client_nodes < 1:
            raise ValueError("need at least one client node")
        engines = self.resolved_engines_per_server
        if not 1 <= engines <= self.hardware.sockets_per_node:
            raise ValueError(
                f"engines per server must be in [1, {self.hardware.sockets_per_node}]"
            )
        sockets = self.resolved_client_sockets
        if not 1 <= sockets <= self.hardware.sockets_per_node:
            raise ValueError(
                f"client sockets must be in [1, {self.hardware.sockets_per_node}]"
            )

    @property
    def resolved_engines_per_server(self) -> int:
        return (
            self.engines_per_server
            if self.engines_per_server is not None
            else self.daos.engines_per_server
        )

    @property
    def resolved_client_sockets(self) -> int:
        return (
            self.client_sockets
            if self.client_sockets is not None
            else self.hardware.sockets_per_node
        )

    @property
    def total_engines(self) -> int:
        return self.n_server_nodes * self.resolved_engines_per_server

    @property
    def total_targets(self) -> int:
        return self.total_engines * self.daos.targets_per_engine

    def with_provider(self, provider: ProviderSpec) -> "ClusterConfig":
        """Copy of this config with a different fabric provider."""
        return replace(self, provider=provider)
