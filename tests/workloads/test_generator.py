"""Benchmark key streams: uniqueness and contention structure."""

import pytest

from repro.fdb.schema import DEFAULT_SCHEMA
from repro.workloads.generator import forecast_msk, pattern_a_keys, pattern_b_pairs


def test_shared_forecast_same_msk_for_all_ranks():
    assert forecast_msk(0, shared=True) == forecast_msk(7, shared=True)


def test_private_forecast_distinct_msk_per_rank():
    msks = {forecast_msk(r, shared=False).canonical() for r in range(50)}
    assert len(msks) == 50


def test_pattern_a_keys_unique_within_and_across_ranks():
    all_keys = set()
    for rank in range(4):
        keys = pattern_a_keys(rank, 25, shared_forecast=True)
        assert len(keys) == 25
        for key in keys:
            DEFAULT_SCHEMA.validate(key)
            all_keys.add(key.canonical())
    assert len(all_keys) == 100


def test_pattern_a_high_contention_shares_forecast():
    a = pattern_a_keys(0, 5, shared_forecast=True)
    b = pattern_a_keys(1, 5, shared_forecast=True)
    msk_a = DEFAULT_SCHEMA.msk(a[0])
    msk_b = DEFAULT_SCHEMA.msk(b[0])
    assert msk_a == msk_b


def test_pattern_a_low_contention_separates_forecasts():
    a = pattern_a_keys(0, 5, shared_forecast=False)
    b = pattern_a_keys(1, 5, shared_forecast=False)
    assert DEFAULT_SCHEMA.msk(a[0]) != DEFAULT_SCHEMA.msk(b[0])


def test_pattern_a_validation():
    with pytest.raises(ValueError):
        pattern_a_keys(0, 0, shared_forecast=True)


def test_pattern_b_reader_reads_writer_field():
    writers, readers = pattern_b_pairs(8, shared_forecast=False)
    assert len(writers) == len(readers) == 4
    assert writers == readers  # designated pairs collide by design


def test_pattern_b_validation():
    with pytest.raises(ValueError):
        pattern_b_pairs(3, shared_forecast=False)
    with pytest.raises(ValueError):
        pattern_b_pairs(0, shared_forecast=False)


def test_pattern_b_writers_distinct():
    writers, _ = pattern_b_pairs(10, shared_forecast=True)
    assert len({w.canonical() for w in writers}) == 5


def test_serving_generators_intern_their_immutable_values():
    from repro.workloads import generator
    from repro.workloads.generator import serving_catalog, serving_request

    assert forecast_msk(0, shared=True) is forecast_msk(7, shared=True)
    assert forecast_msk(3, shared=False) is forecast_msk(3, shared=False)
    # Keyword or positional, a re-requested field is the same Request.
    assert serving_request(3, 16) is serving_request(3, 16, span=1)
    assert serving_request(3, 16, span=2) is not serving_request(3, 16)
    assert serving_request(15, 16, span=2).expand() == [
        serving_catalog(16)[15], serving_catalog(16)[0]
    ]
    # The catalog list is the caller's, its keys are shared.
    first, second = serving_catalog(16), serving_catalog(16)
    assert first is not second and all(a is b for a, b in zip(first, second))
    first.clear()
    assert len(serving_catalog(16)) == 16
    # Argument checks run before the cache, every call.
    for bad in ((16, 16), (-1, 16), (0, 16, 0), (0, 16, 17)):
        with pytest.raises(ValueError):
            serving_request(*bad)
    with pytest.raises(ValueError):
        serving_catalog(0)
    for cached in (
        generator._forecast_msk, generator._serving_catalog, generator._serving_request
    ):
        assert cached.cache_info().maxsize is not None
