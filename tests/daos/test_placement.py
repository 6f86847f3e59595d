"""Placement: determinism, distinctness, balance, shard layout."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.daos.objclass import OC_RP_2G1, OC_S1, OC_S2, OC_SX
from repro.daos.oid import ObjectId
from repro.daos.placement import (
    place_object,
    placement_hash,
    shard_for_offset,
    shard_layout,
    spread,
)
from repro.units import MiB


def test_placement_is_deterministic():
    oid = ObjectId.from_user(1, 2)
    assert place_object(oid, OC_S2, 24) == place_object(oid, OC_S2, 24)


def test_placement_hash_stable_value():
    """Guard against accidental hash changes (placement is persistent state)."""
    oid = ObjectId.from_user(1, 2)
    assert placement_hash(oid) == placement_hash(oid)
    assert placement_hash(oid, salt=1) != placement_hash(oid, salt=2)


def test_s1_places_one_shard():
    layout = place_object(ObjectId.from_user(0, 7), OC_S1, 24)
    assert len(layout) == 1
    assert 0 <= layout[0] < 24


def test_striped_shards_are_distinct_consecutive_targets():
    layout = place_object(ObjectId.from_user(0, 7), OC_S2, 24)
    assert len(layout) == 2
    assert layout[1] == (layout[0] + 1) % 24


def test_sx_covers_every_target():
    layout = place_object(ObjectId.from_user(3, 9), OC_SX, 24)
    assert sorted(layout) == list(range(24))


def test_replicated_class_produces_replica_groups():
    layout = place_object(ObjectId.from_user(1, 1), OC_RP_2G1, 24)
    assert len(layout) == 2  # 1 stripe x 2 replicas


def test_placement_spreads_uniformly():
    n_targets = 24
    leads = [
        place_object(ObjectId.from_user(0, i), OC_S1, n_targets)[0]
        for i in range(2400)
    ]
    counts = spread(leads, n_targets)
    assert min(counts) > 50  # ~100 expected per target


def test_shard_layout_covers_all_bytes():
    shards = shard_layout(10 * MiB, stripes=4, cell_size=1 * MiB)
    assert sum(length for _, _, length in shards) == 10 * MiB
    assert {s for s, _, _ in shards} == {0, 1, 2, 3}


def test_shard_layout_small_object_single_shard():
    shards = shard_layout(1 * MiB, stripes=24, cell_size=1 * MiB)
    assert len(shards) == 1
    assert shards[0] == (0, 0, 1 * MiB)


def test_shard_layout_round_robin_totals():
    # 5 cells over 2 stripes: shard0 gets cells 0,2,4; shard1 gets 1,3.
    shards = shard_layout(5 * MiB, stripes=2, cell_size=1 * MiB)
    totals = {s: length for s, _, length in shards}
    assert totals == {0: 3 * MiB, 1: 2 * MiB}


def test_shard_layout_partial_tail_cell():
    shards = shard_layout(1536, stripes=2, cell_size=1024)
    totals = {s: length for s, _, length in shards}
    assert totals == {0: 1024, 1: 512}


def _shard_layout_cell_by_cell(size, stripes, cell_size):
    """The original O(cells) dealing loop, kept as the closed form's oracle."""
    totals = [0] * stripes
    first_offset = [None] * stripes
    offset = 0
    cell = 0
    while offset < size:
        length = min(cell_size, size - offset)
        shard = cell % stripes
        if first_offset[shard] is None:
            first_offset[shard] = offset
        totals[shard] += length
        offset += length
        cell += 1
    return [
        (shard, first_offset[shard], totals[shard])
        for shard in range(stripes)
        if totals[shard] > 0
    ]


@given(
    cells=st.integers(min_value=0, max_value=200),
    tail=st.integers(min_value=0, max_value=63),
    stripes=st.integers(min_value=1, max_value=64),
    cell_size=st.sampled_from([1, 7, 64, 1024]),
)
@settings(max_examples=300, deadline=None)
def test_shard_layout_matches_cell_by_cell_oracle(cells, tail, stripes, cell_size):
    """Sizes of 0, under one cell, exact multiples and ragged tails."""
    size = cells * cell_size + tail % cell_size
    assert shard_layout(size, stripes, cell_size) == _shard_layout_cell_by_cell(
        size, stripes, cell_size
    )


def test_shard_layout_zero_size():
    assert shard_layout(0, stripes=2, cell_size=1024) == []


def test_shard_layout_validation():
    with pytest.raises(ValueError):
        shard_layout(-1, 1, 1)
    with pytest.raises(ValueError):
        shard_layout(1, 0, 1)
    with pytest.raises(ValueError):
        shard_layout(1, 1, 0)


def test_shard_for_offset():
    assert shard_for_offset(0, stripes=4, cell_size=1024) == 0
    assert shard_for_offset(1024, stripes=4, cell_size=1024) == 1
    assert shard_for_offset(4096, stripes=4, cell_size=1024) == 0
    with pytest.raises(ValueError):
        shard_for_offset(-1, 4, 1024)


@given(
    size=st.integers(min_value=0, max_value=1 << 24),
    stripes=st.integers(min_value=1, max_value=48),
    cell=st.sampled_from([4096, 1 << 16, 1 << 20]),
)
@settings(max_examples=60, deadline=None)
def test_shard_layout_conservation_property(size, stripes, cell):
    shards = shard_layout(size, stripes, cell)
    assert sum(length for _, _, length in shards) == size
    indices = [s for s, _, _ in shards]
    assert len(indices) == len(set(indices))
    assert all(0 <= s < stripes for s in indices)
    assert all(length > 0 for _, _, length in shards)


def test_replicated_oversubscription_rejected():
    from repro.daos.errors import InvalidArgumentError
    from repro.daos.objclass import OC_RP_3G1

    oid = ObjectId.from_user(1, 0)
    with pytest.raises(InvalidArgumentError, match="distinct"):
        place_object(oid, OC_RP_3G1, n_targets=2)
    # Exactly enough targets is fine — and still fully distinct.
    layout = place_object(oid, OC_RP_3G1, n_targets=3)
    assert len(set(layout)) == 3


def test_rp3_replicas_spread_over_engines():
    from repro.daos.objclass import OC_RP_3G1

    for lo in range(32):
        layout = place_object(
            ObjectId.from_user(lo, 0), OC_RP_3G1, n_targets=48, n_groups=3
        )
        groups = {target // 16 for target in layout}
        assert len(groups) == 3  # one replica per engine when pool allows


def test_rp3_on_two_engines_never_collapses_onto_one():
    """Fewer engines than replicas: the per-group cap still guarantees the
    replicas span both engines, so a single engine loss never kills all."""
    from repro.daos.objclass import OC_RP_3G1

    for lo in range(32):
        layout = place_object(
            ObjectId.from_user(lo, 0), OC_RP_3G1, n_targets=32, n_groups=2
        )
        assert len(set(layout)) == 3
        assert len({target // 16 for target in layout}) == 2


def test_remap_target_avoids_and_is_deterministic():
    from repro.daos.placement import remap_target

    oid = ObjectId.from_user(7, 0)
    avoid = frozenset(range(8)) | {12, 13}
    spare = remap_target(oid, 1, avoid=avoid, n_targets=16)
    assert spare not in avoid
    assert spare == remap_target(oid, 1, avoid=avoid, n_targets=16)
    # Different layout positions hash independently but obey the same avoid set.
    assert remap_target(oid, 0, avoid=avoid, n_targets=16) not in avoid


def test_remap_target_exhausted_pool_rejected():
    from repro.daos.errors import InvalidArgumentError
    from repro.daos.placement import remap_target

    with pytest.raises(InvalidArgumentError, match="no spare"):
        remap_target(ObjectId.from_user(1, 0), 0, avoid=frozenset(range(4)), n_targets=4)
