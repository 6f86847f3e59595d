"""FieldCache semantics: LRU order, TTL, byte accounting per key."""

import pytest

from repro.daos.payload import BytesPayload
from repro.serving import FieldCache


def payload(data: bytes) -> BytesPayload:
    return BytesPayload(data)


def test_hit_miss_counters_and_hit_rate():
    cache = FieldCache(capacity=1024)
    assert cache.get("a") is None
    cache.put("a", payload(b"x" * 10))
    assert cache.get("a").to_bytes() == b"x" * 10
    assert cache.hits == 1 and cache.misses == 1
    assert cache.hit_rate == 0.5


def test_lru_eviction_order():
    cache = FieldCache(capacity=30)
    cache.put("a", payload(b"a" * 10))
    cache.put("b", payload(b"b" * 10))
    cache.put("c", payload(b"c" * 10))
    # Touch "a" so "b" is now least-recently used.
    assert cache.get("a") is not None
    cache.put("d", payload(b"d" * 10))
    assert cache.contains("a") and cache.contains("c") and cache.contains("d")
    assert not cache.contains("b")
    assert cache.evictions == 1


def test_eviction_never_removes_the_fresh_entry():
    cache = FieldCache(capacity=25)
    cache.put("a", payload(b"a" * 10))
    cache.put("b", payload(b"b" * 10))
    # Inserting 20 bytes evicts both older entries, not the new one.
    assert cache.put("c", payload(b"c" * 20))
    assert cache.contains("c")
    assert not cache.contains("a") and not cache.contains("b")
    assert cache.used_bytes == 20


def test_byte_capacity_accounting():
    cache = FieldCache(capacity=100)
    cache.put("a", payload(b"1" * 40))
    cache.put("b", payload(b"2" * 40))
    assert cache.used_bytes == 80
    cache.put("c", payload(b"3" * 40))  # evicts "a"
    assert cache.used_bytes == 80
    assert len(cache) == 2


def test_identical_payloads_under_two_keys_each_count():
    cache = FieldCache(capacity=100)
    cache.put("a", payload(b"same" * 10))
    cache.put("b", payload(b"same" * 10))
    assert len(cache) == 2
    assert cache.used_bytes == 80
    # A third copy no longer fits: the LRU key goes, not the shared content.
    cache.put("c", payload(b"same" * 10))
    assert not cache.contains("a") and cache.evictions == 1
    assert cache.used_bytes == 80


def test_overwrite_repoints_digest():
    """A put on a cached key replaces its payload and re-accounts its size."""
    cache = FieldCache(capacity=100)
    cache.put("k", payload(b"old-contents"))
    cache.put("other", payload(b"x" * 10))
    cache.put("k", payload(b"new-contents!"))
    assert cache.get("k").to_bytes() == b"new-contents!"
    assert len(cache) == 2 and cache.insertions == 2
    assert cache.used_bytes == len(b"new-contents!") + 10
    # The overwrite made "k" most recent, so growing past the budget evicts
    # "other" first.
    cache.put("big", payload(b"y" * 80))
    assert cache.contains("k") and not cache.contains("other")


def test_same_digest_refresh_renews_ttl_without_reaccounting():
    """A put on a cached key renews its TTL; its bytes count once."""
    cache = FieldCache(capacity=100, ttl=10.0)
    cache.put("k", payload(b"stable"), now=0.0)
    cache.put("k", payload(b"stable"), now=8.0)  # refresh
    assert cache.used_bytes == len(b"stable")
    assert cache.insertions == 1
    # Original expiry would have been t=10; the refresh moved it to t=18.
    assert cache.get("k", now=15.0) is not None
    assert cache.get("k", now=18.0) is None
    assert cache.expirations == 1


def test_ttl_expiry_counts_and_drops():
    cache = FieldCache(capacity=100, ttl=5.0)
    cache.put("k", payload(b"zzz"), now=1.0)
    assert cache.get("k", now=5.9) is not None
    assert cache.get("k", now=6.0) is None  # now >= expires_at
    assert cache.expirations == 1
    assert cache.misses == 1
    assert not cache.contains("k", now=6.0)
    assert cache.used_bytes == 0


def test_oversize_payload_rejected():
    cache = FieldCache(capacity=10)
    assert not cache.put("big", payload(b"x" * 11))
    assert cache.oversize_rejects == 1
    assert len(cache) == 0
    # An oversize overwrite also drops the stale entry rather than serving it.
    cache.put("k", payload(b"y" * 10))
    assert not cache.put("k", payload(b"y" * 11))
    assert not cache.contains("k")


def test_clear_preserves_counters():
    cache = FieldCache(capacity=100)
    cache.put("a", payload(b"abc"))
    cache.get("a")
    cache.clear()
    assert len(cache) == 0 and cache.used_bytes == 0
    assert cache.hits == 1 and cache.insertions == 1


def test_validation():
    with pytest.raises(ValueError):
        FieldCache(capacity=-1)
    with pytest.raises(ValueError):
        FieldCache(capacity=10, ttl=0.0)
