"""Assembly of a Lustre-style POSIX deployment over a simulated cluster.

Reuses the DAOS system's engines/targets as OSS/OSTs (same fabric, same
SCM media model — the hardware is the controlled variable in the A/B
comparison) and adds the two pieces Lustre's architecture centralises:
a single metadata server resource and the distributed lock manager.
"""

from __future__ import annotations

from typing import Optional

from repro.daos.errors import InvalidArgumentError
from repro.daos.system import DaosSystem
from repro.hardware.topology import Cluster
from repro.network.fabric import NodeSocket
from repro.posixfs.config import PosixServiceConfig
from repro.posixfs.locks import LockManager
from repro.simulation.resources import Resource

__all__ = ["PosixSystem"]


class PosixSystem(DaosSystem):
    """OSS/OST topology plus one MDS and an LDLM lock space."""

    backend_name = "posixfs"

    def __init__(
        self, cluster: Cluster, posix: Optional[PosixServiceConfig] = None
    ) -> None:
        if cluster.config.daos.health.enabled:
            # The failure/rebuild model is DAOS-specific (pool map versions,
            # degraded replica routing); refusing loudly beats silently
            # running a Lustre model with DAOS healing semantics.
            raise InvalidArgumentError(
                "the posixfs backend does not support the health/rebuild model"
            )
        super().__init__(cluster)
        self.posix = posix if posix is not None else PosixServiceConfig()
        #: The single metadata server every namespace op funnels through.
        self.mds = Resource(
            cluster.sim, capacity=self.posix.mds_service_threads, name="mds"
        )
        #: Extent/flock space, shared by all clients of this deployment.
        self.locks = LockManager(
            cluster.sim, self.posix, rtt=2 * cluster.provider.message_latency
        )

    def make_client(self, address: NodeSocket, middleware=None):
        from repro.posixfs.client import PosixClient

        return PosixClient(self, address, qos=middleware)

    def register_object(self, obj, oclass, container_salt: int = 0) -> None:
        if oclass.replicas > 1:
            # Lustre (without file-level replication) stores one copy; the
            # replicated object classes only make sense on DAOS.
            raise InvalidArgumentError(
                f"posixfs backend does not replicate objects "
                f"(object class {oclass.name!r} has {oclass.replicas} replicas)"
            )
        super().register_object(obj, oclass, container_salt)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PosixSystem {len(self.engines)} OSS, {len(self.targets)} OSTs, "
            f"{len(self.pools)} pools>"
        )
