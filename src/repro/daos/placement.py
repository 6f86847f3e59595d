"""Deterministic object placement over pool targets.

Real DAOS places object shards with a pseudorandom algorithm seeded by the
OID over the pool map.  We reproduce the properties that matter for the
benchmarks: placement is a pure function of ``(oid, object class, pool
size)``, shards of a striped object land on distinct targets, and the load
spreads uniformly.  The hash is SHA-256-based so it is stable across Python
processes and versions (``hash()`` is salted and unsuitable).
"""

from __future__ import annotations

import hashlib
from typing import AbstractSet, List, Sequence, Tuple

from repro.daos.errors import InvalidArgumentError
from repro.daos.objclass import ObjectClass
from repro.daos.oid import ObjectId

__all__ = [
    "placement_hash",
    "place_object",
    "engine_span",
    "remap_target",
    "shard_layout",
    "shard_for_offset",
]


def placement_hash(oid: ObjectId, salt: int = 0, container_salt: int = 0) -> int:
    """Stable 64-bit hash of an OID.

    ``salt`` separates replica groups; ``container_salt`` separates the
    placement of identically-numbered OIDs living in *different* containers
    (DAOS object placement hashes over the container handle's pool map view,
    so two containers' first objects do not collide on a target).
    """
    digest = hashlib.sha256(
        oid.hi.to_bytes(8, "little")
        + oid.lo.to_bytes(8, "little")
        + salt.to_bytes(4, "little")
        + (container_salt & ((1 << 64) - 1)).to_bytes(8, "little")
    ).digest()
    return int.from_bytes(digest[:8], "little")


def place_object(
    oid: ObjectId,
    oclass: ObjectClass,
    n_targets: int,
    container_salt: int = 0,
    n_groups: int = 1,
) -> List[int]:
    """Target indices for each shard of ``oid`` (length = stripes * replicas).

    Placement follows DAOS's scheme for ``S``-class objects: each container
    gets a hashed origin on the pool map, consecutive OIDs cycle round-robin
    from it, and a striped object's shards occupy consecutive layout slots.
    The cycling matters: objects allocated in sequence (IOR's
    file-per-process arrays, a forecast's field arrays) spread evenly
    instead of colliding binomially, which is what lets the hardware
    saturate.  OIDs that are not sequential (md5-derived ones) still land
    pseudo-uniformly because their user bits are uniform.

    ``n_groups`` interleaves consecutive layout slots across target groups
    (engines): slot v maps to target ``(v % groups) * (targets/groups) +
    v // groups``, so sequential objects — and the shards of one striped
    object — alternate engines the way the DAOS pool map distributes its
    domains.  Replica groups start at independently hashed origins.
    """
    stripes = oclass.resolve_stripes(n_targets)
    if n_groups < 1 or n_targets % n_groups != 0:
        raise ValueError(
            f"n_groups={n_groups} must be >= 1 and divide n_targets={n_targets}"
        )
    per_group = n_targets // n_groups
    replicas = oclass.replicas
    layout: List[int] = []
    if replicas == 1:
        # The paper's classes: plain striping, no distinctness bookkeeping.
        origin = (
            placement_hash(ObjectId(0, 0), salt=0, container_salt=container_salt)
            + oid.lo * stripes
            + oid.user_hi
        ) % n_targets
        for shard in range(stripes):
            slot = (origin + shard) % n_targets
            layout.append((slot % n_groups) * per_group + slot // n_groups)
        return layout
    # Replicated classes: shards must never co-locate — a replica sharing a
    # target with another protects nothing.  Tiny pools where that is
    # impossible are rejected instead of silently degraded.
    if stripes * replicas > n_targets:
        raise InvalidArgumentError(
            f"object class {oclass.name} needs {stripes * replicas} distinct "
            f"targets ({stripes} stripes x {replicas} replicas) but the pool "
            f"has only {n_targets}"
        )
    # For the G1 classes (one shard per replica) additionally spread the
    # replicas over target groups (engines) as evenly as the pool allows —
    # the fault-domain separation that keeps at least one replica alive
    # through a whole-engine loss.  With enough groups this is "one replica
    # per engine"; with fewer groups than replicas the cap still guarantees
    # no single engine holds them all.
    group_cap = -(-replicas // n_groups) if stripes == 1 else None
    used_targets: set = set()
    group_counts: dict = {}
    for replica in range(replicas):
        origin = (
            placement_hash(ObjectId(0, 0), salt=replica, container_salt=container_salt)
            + oid.lo * stripes
            + oid.user_hi
        ) % n_targets
        for shard in range(stripes):
            slot = (origin + shard) % n_targets
            for _probe in range(n_targets):
                target = (slot % n_groups) * per_group + slot // n_groups
                group = target // per_group
                if target not in used_targets and (
                    group_cap is None or group_counts.get(group, 0) < group_cap
                ):
                    break
                slot = (slot + 1) % n_targets
            else:  # pragma: no cover - excluded by the size check above
                raise InvalidArgumentError(
                    f"cannot place {oclass.name} shard on {n_targets} targets"
                )
            used_targets.add(target)
            group_counts[group] = group_counts.get(group, 0) + 1
            layout.append(target)
    return layout


def engine_span(layout: Sequence[int], n_targets: int, n_engines: int) -> int:
    """Number of distinct engines a layout's targets live on.

    Targets are grouped contiguously per engine (``n_targets / n_engines``
    each), matching :meth:`repro.daos.system.DaosSystem.engine_of_target`.
    The serving tier uses this to verify that promoting a hot object to a
    replicated class actually spread its replicas over engines — the whole
    point of the promotion.
    """
    if n_engines < 1 or n_targets % n_engines != 0:
        raise ValueError(
            f"n_engines={n_engines} must be >= 1 and divide n_targets={n_targets}"
        )
    per_engine = n_targets // n_engines
    return len({target // per_engine for target in layout})


def remap_target(
    oid: ObjectId,
    shard_position: int,
    avoid: AbstractSet[int],
    n_targets: int,
) -> int:
    """Deterministic spare target for a displaced shard.

    Used when a layout slot lands on (or loses its data to) an unavailable
    target: the spare is a pure function of the OID and the layout position,
    probed linearly past every target in ``avoid`` (unavailable targets plus
    the rest of the object's layout, so replicas stay distinct).  Raises
    :class:`InvalidArgumentError` when no target remains.
    """
    if len(avoid) >= n_targets:
        raise InvalidArgumentError(
            f"no spare target: all {n_targets} targets avoided for {oid}"
        )
    start = placement_hash(oid, salt=0x5EED + shard_position) % n_targets
    for probe in range(n_targets):
        candidate = (start + probe) % n_targets
        if candidate not in avoid:
            return candidate
    raise InvalidArgumentError(  # pragma: no cover - excluded by len check
        f"no spare target among {n_targets} for {oid}"
    )


def shard_layout(
    size: int, stripes: int, cell_size: int
) -> List[Tuple[int, int, int]]:
    """Split a contiguous extent of ``size`` bytes over ``stripes`` shards.

    Returns ``(shard_index, offset, length)`` triples covering ``[0, size)``:
    data is distributed in round-robin cells of ``cell_size`` bytes, matching
    DAOS array striping.  Lengths per shard are aggregated, since for the
    fluid-flow model only the per-shard byte totals matter.
    """
    if size < 0:
        raise ValueError(f"size must be non-negative, got {size}")
    if stripes < 1:
        raise ValueError(f"stripes must be >= 1, got {stripes}")
    if cell_size < 1:
        raise ValueError(f"cell size must be >= 1, got {cell_size}")
    if size == 0:
        return []
    # Closed form of dealing cells round-robin: every shard gets the full
    # rounds, the first ``extra`` shards one more full cell, and the shard
    # after those the partial tail cell; shard s first appears at cell s.
    full_cells, tail = divmod(size, cell_size)
    rounds, extra = divmod(full_cells, stripes)
    layout = []
    for shard in range(min(stripes, full_cells + (tail > 0))):
        length = (rounds + (shard < extra)) * cell_size
        if shard == extra:
            length += tail
        layout.append((shard, shard * cell_size, length))
    return layout


def shard_for_offset(offset: int, stripes: int, cell_size: int) -> int:
    """Shard index holding the byte at ``offset`` under round-robin cells."""
    if offset < 0:
        raise ValueError(f"offset must be non-negative, got {offset}")
    return (offset // cell_size) % stripes


def spread(values: Sequence[int], n_bins: int) -> List[int]:
    """Histogram of ``values`` over ``n_bins`` bins (placement-balance tests)."""
    counts = [0] * n_bins
    for v in values:
        counts[v] += 1
    return counts
