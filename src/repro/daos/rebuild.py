"""Background rebuild: re-replicating data lost with a failed engine.

When the health monitor marks an engine's targets DOWN, the
:class:`RebuildService` starts one rebuild run: it scans every pool for
replicated objects with shards on the lost targets, and re-replicates each
affected shard from a surviving replica onto a deterministically chosen
spare target (:func:`~repro.daos.placement.remap_target`).  The copies are
real flows on the fabric's :meth:`~repro.network.fabric.Fabric.rebuild_path`
— source SCM/engine-tx, the switch rails, destination engine-rx/SCM with
write amplification — so rebuild traffic *visibly competes* with concurrent
client I/O, which is the effect the ``rebuild`` experiment measures.

Concurrency is throttled to ``HealthConfig.rebuild_max_inflight`` parallel
shard moves (real DAOS similarly bounds rebuild ULTs so rebuild does not
starve foreground I/O completely).  Objects with *no* surviving replica
(non-replicated classes, or replica counts the failure overwhelmed) are
counted as lost and left pointing at the dead target, so reads keep raising
:class:`~repro.daos.errors.TargetDownError` — the model never silently
resurrects data.

State machine driven here: DOWN --run starts--> REBUILDING --run done-->
EXCLUDED (each a pool-map version bump).  Reintegration while a run is in
flight wins: targets back UP are not demoted to EXCLUDED.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.daos.array_object import ArrayObject
from repro.daos.health import TargetState
from repro.daos.placement import remap_target, shard_layout
from repro.simulation.resources import Resource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.daos.pool import Pool
    from repro.daos.system import DaosSystem

__all__ = ["ShardMove", "RebuildRun", "RebuildService"]


@dataclass
class ShardMove:
    """One planned shard re-replication."""

    pool: "Pool"
    obj: object
    position: int  # index into obj.layout being re-homed
    src_target: int  # surviving replica the data is read from
    dst_target: int  # spare target the data is written to
    nbytes: int


@dataclass
class RebuildRun:
    """Stats of one engine-failure rebuild (what the experiment reports)."""

    engine: int
    targets: Tuple[int, ...]
    started: float
    completed: Optional[float] = None
    objects_scanned: int = 0
    shards_rebuilt: int = 0
    bytes_moved: int = 0
    objects_lost: int = 0
    shards_lost: int = 0

    @property
    def duration(self) -> Optional[float]:
        if self.completed is None:
            return None
        return self.completed - self.started


class RebuildService:
    """Owns rebuild runs and the shared in-flight throttle."""

    def __init__(self, system: "DaosSystem") -> None:
        self.system = system
        self.sim = system.cluster.sim
        self._inflight = Resource(
            self.sim,
            capacity=system.config.health.rebuild_max_inflight,
            name="rebuild_inflight",
        )
        self.runs: List[RebuildRun] = []

    # -- entry point (called by the health monitor) ----------------------------
    def on_engine_failure(self, engine_index: int, targets: Sequence[int]) -> RebuildRun:
        """Kick off a rebuild run for a freshly failed engine."""
        run = RebuildRun(
            engine=engine_index, targets=tuple(targets), started=self.sim.now
        )
        self.runs.append(run)
        self.sim.process(self._rebuild(run), name=f"rebuild:engine{engine_index}")
        return run

    # -- planning ---------------------------------------------------------------
    def _shard_bytes(self, obj, stripes: int) -> List[int]:
        """Stored bytes per shard index (length ``stripes``)."""
        if isinstance(obj, ArrayObject):
            totals = [0] * stripes
            for shard, _offset, length in shard_layout(
                obj.nbytes_stored, stripes, self.system.config.stripe_cell_size
            ):
                totals[shard] = length
            return totals
        # KV objects: G1 classes have stripes == 1, so every replica target
        # holds the whole object; striped KVs split evenly (approximation —
        # per-dkey placement history is not worth carrying for rebuild).
        nbytes = obj.nbytes
        return [nbytes // stripes] * stripes

    def _plan(self, run: RebuildRun, affected: frozenset) -> List[ShardMove]:
        """Scan all pools for shards living on the failed targets."""
        pool_map = self.system.pool_map
        n_targets = self.system.n_targets
        moves: List[ShardMove] = []
        for pool in self.system.pools.values():
            for container in pool.containers():
                for obj in container.objects():
                    hit = [
                        position
                        for position, target in enumerate(obj.layout)
                        if target in affected
                    ]
                    run.objects_scanned += 1
                    if not hit:
                        continue
                    replicas = obj.oclass.replicas
                    stripes = len(obj.layout) // replicas
                    per_shard = self._shard_bytes(obj, stripes)
                    lost_here = 0
                    for position in hit:
                        shard = position % stripes
                        survivors = [
                            obj.layout[replica * stripes + shard]
                            for replica in range(replicas)
                            if replica * stripes + shard != position
                            and pool_map.is_up(obj.layout[replica * stripes + shard])
                        ]
                        if not survivors:
                            lost_here += 1
                            continue
                        dst = remap_target(
                            obj.oid,
                            position,
                            avoid=pool_map.unavailable | set(obj.layout),
                            n_targets=n_targets,
                        )
                        moves.append(
                            ShardMove(
                                pool=pool,
                                obj=obj,
                                position=position,
                                src_target=survivors[0],
                                dst_target=dst,
                                nbytes=per_shard[shard],
                            )
                        )
                    if lost_here:
                        run.objects_lost += 1
                        run.shards_lost += lost_here
        return moves

    # -- execution ---------------------------------------------------------------
    def _move_shard(self, run: RebuildRun, move: ShardMove):
        """One throttled shard copy: flow on the rebuild path, then bookkeeping."""
        yield self._inflight.slot
        try:
            if move.nbytes > 0:
                src_engine = self.system.engine_of_target(move.src_target)
                dst_engine = self.system.engine_of_target(move.dst_target)
                yield self.system.cluster.net.transfer(
                    self.system.cluster.fabric.rebuild_path(src_engine, dst_engine),
                    move.nbytes,
                    name=f"rebuild:{move.obj.oid}/{move.position}",
                )
        finally:
            self._inflight.release()
        # The shard is re-protected only once the copy lands: update the
        # layout and move the space accounting from the dead target to the
        # spare (clamped, like every refund against approximate placement).
        # A new tuple: the old one may be shared with other objects.
        layout = move.obj.layout
        lost_target = layout[move.position]
        move.obj.layout = (
            layout[: move.position] + (move.dst_target,) + layout[move.position + 1 :]
        )
        if move.nbytes > 0:
            move.pool.refund(
                lost_target, min(move.nbytes, move.pool.target_used(lost_target))
            )
            move.pool.charge(move.dst_target, move.nbytes)
        run.shards_rebuilt += 1
        run.bytes_moved += move.nbytes

    def _rebuild(self, run: RebuildRun):
        """The rebuild run: DOWN -> REBUILDING, copy everything, -> EXCLUDED."""
        sim = self.sim
        pool_map = self.system.pool_map
        affected = frozenset(
            t for t in run.targets if pool_map.state(t) is TargetState.DOWN
        )
        if not affected:
            run.completed = sim.now
            return
        version = pool_map.set_state(affected, TargetState.REBUILDING)
        moves = self._plan(run, affected)
        sim.record(
            "rebuild_start",
            engine=run.engine,
            map_version=version,
            shards=len(moves),
            bytes=sum(m.nbytes for m in moves),
        )
        workers = [
            sim.process(
                self._move_shard(run, move),
                name=f"rebuild:engine{run.engine}/{i}",
            )
            for i, move in enumerate(moves)
        ]
        if workers:
            yield sim.all_of(workers)
        # Targets reintegrated mid-run are back UP; do not demote them.
        still_rebuilding = [
            t for t in affected if pool_map.state(t) is TargetState.REBUILDING
        ]
        if still_rebuilding:
            version = pool_map.set_state(still_rebuilding, TargetState.EXCLUDED)
        run.completed = sim.now
        sim.record(
            "rebuild_done",
            engine=run.engine,
            map_version=version,
            shards_rebuilt=run.shards_rebuilt,
            bytes_moved=run.bytes_moved,
            shards_lost=run.shards_lost,
            duration=run.duration,
        )
