"""Cluster assembly: simulator + flow network + fabric + nodes in one place.

A :class:`Cluster` is the root object experiments construct.  It owns the
discrete-event :class:`~repro.simulation.core.Simulator`, the fluid-flow
:class:`~repro.network.flow.FlowNetwork`, the :class:`~repro.network.fabric.Fabric`
links derived from the :class:`~repro.config.ClusterConfig`, and the server /
client :class:`~repro.hardware.node.Node` inventories with their SCM regions.
The DAOS layer (:mod:`repro.daos`) is built *on top of* a cluster.
"""

from __future__ import annotations

from typing import List

from repro.config import ClusterConfig
from repro.hardware.node import Node, pin_processes
from repro.network.fabric import Fabric, NodeSocket
from repro.network.flow import FlowNetwork
from repro.network.provider import Provider, provider_from_name
from repro.simulation.core import Simulator

__all__ = ["Cluster"]


class Cluster:
    """A fully assembled simulated deployment."""

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self.sim = Simulator(seed=config.seed)
        self.provider: Provider = provider_from_name(config.provider.name)
        # Respect a customised spec (e.g. an ablation overriding latency).
        if config.provider is not self.provider.spec:
            self.provider = Provider(config.provider)
        self.net = FlowNetwork(self.sim)
        self.fabric = Fabric(self.net, config, self.provider)

        hw = config.hardware
        self.server_nodes: List[Node] = [
            Node(
                name=f"server{i}",
                n_sockets=hw.sockets_per_node,
            )
            for i in range(config.n_server_nodes)
        ]
        self.client_nodes: List[Node] = [
            Node(
                name=f"client{i}",
                n_sockets=hw.sockets_per_node,
            )
            for i in range(config.n_client_nodes)
        ]

    # -- placement helpers -----------------------------------------------------
    def client_addresses(self, processes_per_node: int) -> List[NodeSocket]:
        """Socket address for every client process, balanced per §6.1.2.

        Processes fill node 0 first (ranks 0..ppn-1), then node 1, etc.;
        within a node they round-robin over the sockets that carry a client
        interface in this configuration.  Ranks pinned to the same socket
        share one (immutable) address.
        """
        if processes_per_node < 1:
            raise ValueError("processes_per_node must be >= 1")
        sockets = self.config.resolved_client_sockets
        pins = pin_processes(processes_per_node, sockets)
        nodes = range(self.config.n_client_nodes)
        shared = [[NodeSocket(node, socket) for socket in range(sockets)] for node in nodes]
        return [shared[node][pin] for node in nodes for pin in pins]

    @property
    def engine_addresses(self) -> List[NodeSocket]:
        """Deployed engine addresses, ordered by (node, socket)."""
        return self.fabric.engine_addresses

    def scm_region(self, engine: NodeSocket):
        """The SCM region backing a given engine."""
        return self.server_nodes[engine.node].sockets[engine.socket].scm

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cfg = self.config
        return (
            f"<Cluster {cfg.n_server_nodes} servers x "
            f"{cfg.resolved_engines_per_server} engines, "
            f"{cfg.n_client_nodes} clients, provider={self.provider.name}>"
        )
