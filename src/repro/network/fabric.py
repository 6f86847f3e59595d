"""Fabric topology: adapters, rails, and the paths data flows traverse.

The NEXTGenIO fabric (§6.1) is dual-rail OmniPath: each socket of every node
has its own adapter, first-socket adapters hang off one switch (rail 0),
second-socket adapters off another (rail 1), with an inter-switch uplink.
The :class:`Fabric` builds one :class:`~repro.network.flow.Link` per
capacity-limited element and answers path queries for the two data
directions::

    write:  client stack tx -> client adapter tx -> rail(s) ->
            server adapter rx -> engine rx -> SCM media (amplified)

    read:   SCM media -> engine tx -> server adapter tx -> rail(s) ->
            client adapter rx -> client stack rx

All switch-level links are per-direction (switch fabrics are full duplex).
Adapters carry a provider-dependent aggregate-capacity curve (kernel TCP
does not reach line rate and its aggregate depends on stream count —
Table 2); client/engine stack links carry the provider's processing
ceilings.  Write flows traverse the SCM media link
``scm_write_amplification`` times, modelling gen-1 DCPMM write/read
asymmetry and mixed-workload interference (see ``HardwareConfig``).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

from repro.config import ClusterConfig
from repro.network.flow import FlowNetwork, Link
from repro.network.provider import Provider

__all__ = ["NodeSocket", "Adapter", "FabricPort", "Fabric"]


class NodeSocket(NamedTuple):
    """Address of a socket within a node group ('server' or 'client')."""

    node: int
    socket: int


class Adapter:
    """One OmniPath adapter: a tx and an rx link with the provider curve."""

    def __init__(self, net: FlowNetwork, name: str, raw_bw: float, provider: Provider):
        curve = provider.adapter_capacity_fn()
        self.tx: Link = net.add_link(f"{name}.tx", raw_bw, capacity_fn=curve)
        self.rx: Link = net.add_link(f"{name}.rx", raw_bw, capacity_fn=curve)


class FabricPort:
    """The per-socket endpoint stack of a client: adapter plus library caps."""

    def __init__(
        self, net: FlowNetwork, name: str, raw_bw: float, provider: Provider
    ) -> None:
        self.adapter = Adapter(net, name, raw_bw, provider)
        self.stack_tx: Link = net.add_link(f"{name}.stack_tx", provider.spec.client_tx_cap)
        self.stack_rx: Link = net.add_link(f"{name}.stack_rx", provider.spec.client_rx_cap)


class Fabric:
    """All network links of a simulated deployment, plus path construction.

    Engine-side links (``engine_tx/rx`` processing, SCM media) are also owned
    here so that a path is a single list of links; the DAOS layer only deals
    in engine addresses.
    """

    def __init__(self, net: FlowNetwork, config: ClusterConfig, provider: Provider):
        self.net = net
        self.config = config
        self.provider = provider
        hw = config.hardware

        sockets = hw.sockets_per_node
        # Per-direction switch links: c2s carries client->server traffic,
        # s2c the reverse.
        self._rail_c2s: List[Link] = [
            net.add_link(f"rail{s}.c2s", hw.rail_bisection_bw) for s in range(sockets)
        ]
        self._rail_s2c: List[Link] = [
            net.add_link(f"rail{s}.s2c", hw.rail_bisection_bw) for s in range(sockets)
        ]
        self._inter_rail_c2s: Link = net.add_link("inter_rail.c2s", hw.inter_rail_bw)
        self._inter_rail_s2c: Link = net.add_link("inter_rail.s2c", hw.inter_rail_bw)

        # Client ports: only the configured number of sockets carries one.
        self._client_ports: Dict[NodeSocket, FabricPort] = {}
        for node in range(config.n_client_nodes):
            for socket in range(config.resolved_client_sockets):
                addr = NodeSocket(node, socket)
                self._client_ports[addr] = FabricPort(
                    net, f"client{node}.s{socket}", hw.adapter_raw_bw, provider
                )

        # Server side: adapter + engine processing + SCM media per engine.
        self._server_adapters: Dict[NodeSocket, Adapter] = {}
        self._engine_tx: Dict[NodeSocket, Link] = {}
        self._engine_rx: Dict[NodeSocket, Link] = {}
        self._scm_media: Dict[NodeSocket, Link] = {}
        for node in range(config.n_server_nodes):
            for socket in range(config.resolved_engines_per_server):
                addr = NodeSocket(node, socket)
                base = f"server{node}.s{socket}"
                self._server_adapters[addr] = Adapter(
                    net, base, hw.adapter_raw_bw, provider
                )
                self._engine_tx[addr] = net.add_link(
                    f"{base}.engine_tx", provider.engine_tx_cap
                )
                self._engine_rx[addr] = net.add_link(
                    f"{base}.engine_rx", provider.engine_rx_cap
                )
                self._scm_media[addr] = net.add_link(f"{base}.scm", hw.scm_media_bw)

    # -- address enumeration --------------------------------------------------
    @property
    def engine_addresses(self) -> List[NodeSocket]:
        """All deployed engines, ordered by (node, socket)."""
        return sorted(self._engine_tx)

    @property
    def client_ports(self) -> List[NodeSocket]:
        """All client ports, ordered by (node, socket)."""
        return sorted(self._client_ports)

    # -- path construction ----------------------------------------------------
    def _rail_hop(
        self, from_socket: int, to_socket: int, direction: str
    ) -> List[Link]:
        """Switch links between two rails in one direction.

        Traffic enters at the source socket's rail; if the destination hangs
        off the other rail it crosses the inter-switch uplink and also loads
        the destination rail.
        """
        rails = self._rail_c2s if direction == "c2s" else self._rail_s2c
        inter = self._inter_rail_c2s if direction == "c2s" else self._inter_rail_s2c
        hop: List[Link] = [rails[from_socket]]
        if from_socket != to_socket:
            hop.append(inter)
            hop.append(rails[to_socket])
        return hop

    def write_path(self, client: NodeSocket, engine: NodeSocket) -> Tuple[Link, ...]:
        """Links a bulk write from ``client`` to ``engine`` traverses.

        The SCM media link appears ``scm_write_amplification`` times so that
        write traffic consumes proportionally more media capacity (gen-1
        DCPMM write asymmetry).
        """
        port = self._client_ports[client]
        media = (self._scm_media[engine],) * self.config.hardware.scm_write_amplification
        return (
            port.stack_tx,
            port.adapter.tx,
            *self._rail_hop(client.socket, engine.socket, "c2s"),
            self._server_adapters[engine].rx,
            self._engine_rx[engine],
            *media,
        )

    def read_path(self, client: NodeSocket, engine: NodeSocket) -> Tuple[Link, ...]:
        """Links a bulk read from ``engine`` back to ``client`` traverses."""
        port = self._client_ports[client]
        return (
            self._scm_media[engine],
            self._engine_tx[engine],
            self._server_adapters[engine].tx,
            *self._rail_hop(engine.socket, client.socket, "s2c"),
            port.adapter.rx,
            port.stack_rx,
        )

    def rebuild_path(self, src: NodeSocket, dst: NodeSocket) -> Tuple[Link, ...]:
        """Links an engine-to-engine rebuild transfer traverses.

        Rebuild reads a surviving replica from ``src`` SCM and re-writes it
        to ``dst`` SCM, riding the same server adapters, rails, and media
        links client traffic uses — so rebuild visibly steals bandwidth from
        concurrent reads (shared ``src`` media/tx) and writes (shared ``dst``
        media, amplified like any other SCM write).  Server-to-server
        transfers travel the s2c switch direction, contending with client
        reads rather than writes on the rails.
        """
        media_in = (self._scm_media[dst],) * self.config.hardware.scm_write_amplification
        return (
            self._scm_media[src],
            self._engine_tx[src],
            self._server_adapters[src].tx,
            *self._rail_hop(src.socket, dst.socket, "s2c"),
            self._server_adapters[dst].rx,
            self._engine_rx[dst],
            *media_in,
        )

    def p2p_path(self, src: NodeSocket, dst: NodeSocket) -> Tuple[Link, ...]:
        """Adapter-to-adapter path between two *client* ports.

        Used by the MPI point-to-point benchmark (Table 2): raw transport
        between processes, no DAOS client/server stacks involved.
        """
        src_port = self._client_ports[src]
        dst_port = self._client_ports[dst]
        return (
            src_port.adapter.tx,
            *self._rail_hop(src.socket, dst.socket, "c2s"),
            dst_port.adapter.rx,
        )

    def rpc_latency(self) -> float:
        """Round-trip small-message latency between any client and engine."""
        return self.provider.rpc_latency()
