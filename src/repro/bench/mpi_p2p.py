"""MPI-style point-to-point transfer benchmark (Table 2).

Pairs of processes on the first sockets of two separate nodes exchange
messages of a fixed size through the raw fabric (no DAOS stack), exactly as
the paper's MPI test does to ground what the network itself can deliver
under each OFI provider.  The benchmark sweeps transfer sizes and reports,
per (provider, pair count), the optimal size and the bandwidth achieved at
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.config import ClusterConfig
from repro.hardware.topology import Cluster
from repro.network.fabric import NodeSocket
from repro.units import GiB, MiB

__all__ = ["MpiP2pParams", "MpiP2pResult", "run_mpi_p2p", "sweep_transfer_sizes"]


@dataclass(frozen=True)
class MpiP2pParams:
    """One MPI point-to-point run: pairs × messages of one size."""

    process_pairs: int = 1
    transfer_size: int = 2 * MiB
    #: Messages per pair; enough to amortise the first-message ramp.
    messages: int = 32

    def __post_init__(self) -> None:
        if self.process_pairs < 1:
            raise ValueError("need at least one process pair")
        if self.transfer_size < 1:
            raise ValueError("transfer size must be positive")
        if self.messages < 1:
            raise ValueError("need at least one message")


@dataclass
class MpiP2pResult:
    """Aggregate bandwidth of one run."""

    params: MpiP2pParams
    provider: str
    elapsed: float
    total_bytes: int

    @property
    def bandwidth(self) -> float:
        """Aggregate bytes/second across all pairs."""
        return self.total_bytes / self.elapsed

    @property
    def bandwidth_gib(self) -> float:
        return self.bandwidth / GiB


def _sender(cluster: Cluster, src: NodeSocket, dst: NodeSocket, params: MpiP2pParams):
    """One pair's sender: ``messages`` back-to-back transfers."""
    provider = cluster.provider
    path = cluster.fabric.p2p_path(src, dst)
    for _ in range(params.messages):
        # Each message pays the provider's small-message latency (rendezvous
        # handshake) before the bulk moves.
        yield cluster.sim.timeout(provider.message_latency)
        yield cluster.net.transfer(
            path, params.transfer_size, rate_cap=provider.per_flow_cap, name="mpi"
        )


def run_mpi_p2p(config: ClusterConfig, params: MpiP2pParams) -> MpiP2pResult:
    """Run the benchmark on a fresh two-node cluster built from ``config``.

    ``config.n_client_nodes`` must be >= 2; processes are pinned to the
    first socket of nodes 0 and 1 (§6.2: "between pairs of processes running
    on the first socket in two separate nodes").
    """
    if config.n_client_nodes < 2:
        raise ValueError("MPI p2p needs at least two client nodes")
    cluster = Cluster(config)
    src = NodeSocket(0, 0)
    dst = NodeSocket(1, 0)
    start = cluster.sim.now
    processes = cluster.sim.spawn_batch(
        (_sender(cluster, src, dst, params) for _ in range(params.process_pairs)),
        name="mpi",
    )
    cluster.sim.run(until=cluster.sim.all_of(processes))
    elapsed = cluster.sim.now - start
    total = params.process_pairs * params.messages * params.transfer_size
    return MpiP2pResult(
        params=params,
        provider=cluster.provider.name,
        elapsed=elapsed,
        total_bytes=total,
    )


def sweep_transfer_sizes(
    config: ClusterConfig,
    process_pairs: int,
    sizes: Sequence[int] = tuple(s * MiB for s in (1, 2, 4, 8, 16, 32)),
    messages: int = 32,
) -> Tuple[int, float, Dict[int, float]]:
    """Find the optimal transfer size for a pair count (Table 2 columns).

    Returns ``(best_size, best_bandwidth, {size: bandwidth})``.
    """
    results: Dict[int, float] = {}
    for size in sizes:
        params = MpiP2pParams(
            process_pairs=process_pairs, transfer_size=size, messages=messages
        )
        results[size] = run_mpi_p2p(config, params).bandwidth
    best_size = max(results, key=lambda s: results[s])
    return best_size, results[best_size], results
