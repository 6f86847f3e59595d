"""Assembly of a whole DAOS system over a simulated cluster.

The :class:`DaosSystem` instantiates the engines and targets described by
the cluster configuration, owns the pool-service serialisation point, and
provides pool creation plus object registration (placement + per-object
locks).  Per-process :class:`~repro.daos.client.DaosClient` objects drive
I/O against it.
"""

from __future__ import annotations

import uuid as uuid_module
from typing import Dict, List, Optional

from repro.daos.engine import Engine, Target
from repro.daos.errors import InvalidArgumentError
from repro.daos.health import PoolMap, health_monitor
from repro.daos.locks import RWLock
from repro.daos.objclass import ObjectClass
from repro.daos.placement import place_object, remap_target
from repro.daos.pool import Pool
from repro.hardware.topology import Cluster
from repro.network.fabric import NodeSocket
from repro.simulation.resources import Resource

__all__ = ["DaosSystem"]


class DaosSystem:
    """Engines, targets, pools, and the pool service of one deployment."""

    #: Registry name of this storage backend (see :mod:`repro.backends`).
    backend_name = "daos"

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self.config = cluster.config.daos
        sim = cluster.sim

        self.engines: List[Engine] = []
        self.targets: List[Target] = []
        for addr in cluster.engine_addresses:
            engine = Engine(
                sim, addr, first_target_index=len(self.targets), config=self.config
            )
            self.engines.append(engine)
            self.targets.extend(engine.targets)

        #: The pool service: the serial metadata authority for pool and
        #: container operations (hosted by the first engine in real DAOS).
        self.pool_service = Resource(sim, capacity=1, name="pool_service")
        self.pools: Dict[str, Pool] = {}
        self._uuid_counter = 0
        #: Free-list of recycled op drivers, shared by all clients (see
        #: :class:`repro.daos.client._FastDriver`).
        self.fast_drivers: list = []

        #: Authoritative target-health map.  Always present (version 1, all
        #: UP), but only ever *changes* when the health subsystem is enabled
        #: — so the default path stays bit-identical to a health-free build.
        self.pool_map = PoolMap(len(self.targets))
        self.rebuild = None
        self._schedule_armed = False
        health = self.config.health
        if health.enabled:
            from repro.daos.rebuild import RebuildService

            self.rebuild = RebuildService(self)
            if health.arm_at_start and health.events:
                self.arm_failure_schedule()

    # -- clients ------------------------------------------------------------------
    def make_client(self, address: NodeSocket, middleware=None):
        """A per-process client bound to ``address`` for this backend.

        The factory is the only place consumers need a concrete client
        class; everything downstream talks the ``StorageClient`` protocol
        (:mod:`repro.backends.protocol`), which is what lets a posixfs
        deployment slot in behind the same benches and ``FieldIO``.
        """
        from repro.daos.client import DaosClient

        return DaosClient(self, address, middleware=middleware)

    # -- health -------------------------------------------------------------------
    def arm_failure_schedule(self) -> None:
        """Start the health monitor driving the configured failure events.

        Event times are relative to *now*, so an experiment can run a clean
        warm-up phase and arm the schedule when the measured phase starts
        (``HealthConfig.arm_at_start=False``).  Arming twice, or arming with
        the subsystem disabled, is an error — both would silently distort
        the event sequence the determinism contract relies on.
        """
        if not self.config.health.enabled:
            raise InvalidArgumentError("health subsystem is disabled by config")
        if self._schedule_armed:
            raise InvalidArgumentError("failure schedule is already armed")
        self._schedule_armed = True
        if self.config.health.events:
            self.cluster.sim.process(health_monitor(self), name="health_monitor")

    # -- identity helpers --------------------------------------------------------
    def deterministic_uuid(self, namespace: str) -> uuid_module.UUID:
        """A UUID derived from the system seed and a name (reproducible runs)."""
        self._uuid_counter += 1
        return uuid_module.uuid5(
            uuid_module.NAMESPACE_OID,
            f"{self.cluster.config.seed}/{namespace}/{self._uuid_counter}",
        )

    # -- pools --------------------------------------------------------------------
    def create_pool(
        self, label: str = "pool0", scm_bytes_per_target: Optional[int] = None
    ) -> Pool:
        """Create a pool spanning every target of every engine.

        By default the pool reserves each target's full share of its
        socket's SCM region; the reservation is allocated from the regions
        so capacity misconfiguration fails loudly at create time.
        """
        if label in self.pools:
            raise InvalidArgumentError(f"pool label {label!r} already exists")
        per_engine_targets = self.config.targets_per_engine
        if scm_bytes_per_target is None:
            region = self.cluster.scm_region(self.engines[0].addr)
            scm_bytes_per_target = region.free // per_engine_targets
        pool = Pool(
            uuid=self.deterministic_uuid(f"pool/{label}"),
            label=label,
            n_targets=len(self.targets),
            scm_bytes_per_target=scm_bytes_per_target,
        )
        for engine in self.engines:
            region = self.cluster.scm_region(engine.addr)
            region.allocate(scm_bytes_per_target * per_engine_targets)
        self.pools[label] = pool
        return pool

    # -- object registration --------------------------------------------------------
    def register_object(self, obj, oclass: ObjectClass, container_salt: int = 0) -> None:
        """Compute placement for a fresh object and attach its lock.

        Called by the client when an object is first materialised.  The
        layout lists *global* target indices, one per shard.
        ``container_salt`` comes from the owning container's UUID so that
        the per-container OID sequences spread over distinct targets.
        """
        obj.layout = place_object(
            obj.oid,
            oclass,
            len(self.targets),
            container_salt=container_salt,
            n_groups=len(self.engines),
        )
        # Objects created while targets are down avoid them from the start —
        # creation is a server-side act, so the authoritative map applies.
        unavailable = self.pool_map.unavailable
        if unavailable:
            for position, target in enumerate(obj.layout):
                if target in unavailable:
                    obj.layout[position] = remap_target(
                        obj.oid,
                        position,
                        avoid=unavailable | set(obj.layout),
                        n_targets=len(self.targets),
                    )
        obj.lock = RWLock(self.cluster.sim, name=f"obj:{obj.oid}")

    def target(self, global_index: int) -> Target:
        return self.targets[global_index]

    def engine_of_target(self, global_index: int) -> NodeSocket:
        """Engine address that owns a target."""
        return self.targets[global_index].engine_addr

    @property
    def n_targets(self) -> int:
        return len(self.targets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DaosSystem {len(self.engines)} engines, {len(self.targets)} targets, "
            f"{len(self.pools)} pools>"
        )
