"""Synthetic field generation."""

import numpy as np
import pytest

from repro.fdb.key import FieldKey
from repro.units import MiB
from repro.workloads.fields import (
    GaussianGrid,
    field_payload,
    synthesize_field,
)


def key(param="t", step="0"):
    return FieldKey(
        {
            "class": "od", "stream": "oper", "expver": "0001",
            "date": "20260705", "time": "00", "type": "fc",
            "levtype": "pl", "levelist": "500", "param": param, "step": step,
        }
    )


def test_payload_deterministic_in_key():
    assert field_payload(key(), 1024).to_bytes() == field_payload(key(), 1024).to_bytes()
    assert (
        field_payload(key("t"), 1024).to_bytes()
        != field_payload(key("u"), 1024).to_bytes()
    )


def test_payload_size():
    assert field_payload(key(), 5 * MiB).size == 5 * MiB
    with pytest.raises(ValueError):
        field_payload(key(), -1)


def test_grid_sizes():
    grid = GaussianGrid()
    assert grid.points == 640 * 1280
    assert grid.nbytes_f32 == grid.points * 4
    # Default grid lands in the paper's 1-5 MiB field range.
    assert 1 * MiB <= grid.nbytes_f32 <= 5 * MiB


def test_synthesized_field_shape_and_determinism():
    grid = GaussianGrid(n_lat=18, n_lon=36)
    payload = synthesize_field(key(), grid)
    assert payload.size == grid.nbytes_f32
    again = synthesize_field(key(), grid)
    assert payload == again
    other = synthesize_field(key(step="6"), grid)
    assert payload != other


def test_synthesized_field_is_physical():
    grid = GaussianGrid(n_lat=64, n_lon=128)
    data = np.frombuffer(synthesize_field(key(), grid).to_bytes(), dtype=np.float32)
    data = data.reshape(grid.n_lat, grid.n_lon)
    # Warm equator, cold poles.
    assert data[grid.n_lat // 2].mean() > data[0].mean()
    assert data[grid.n_lat // 2].mean() > data[-1].mean()
    assert np.isfinite(data).all()


def test_seed_cache_is_bounded_and_overflow_changes_nothing():
    from repro.workloads import fields

    bound = fields._seed_from_key.cache_info().maxsize
    assert bound is not None
    probe = FieldKey({"step": "probe"})
    before = field_payload(probe, 4096)
    reference = fields._seed_from_key.__wrapped__(probe)
    # Push more distinct keys through than the cache holds.
    for index in range(bound + 8):
        fields._seed_from_key(FieldKey._trusted({"step": str(index)}))
    info = fields._seed_from_key.cache_info()
    assert info.currsize == bound
    assert fields._seed_from_key(probe) == reference
    assert field_payload(probe, 4096) == before
