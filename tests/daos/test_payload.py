"""Payload semantics: laziness, slicing, content equality."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.daos.payload import BytesPayload, ConcatPayload, PatternPayload


def test_bytes_payload_roundtrip():
    payload = BytesPayload(b"hello world")
    assert payload.size == 11
    assert payload.to_bytes() == b"hello world"
    assert len(payload) == 11


def test_bytes_payload_slice():
    payload = BytesPayload(b"hello world")
    assert payload.slice(6, 5).to_bytes() == b"world"


def test_slice_bounds_validated():
    payload = BytesPayload(b"abc")
    with pytest.raises(ValueError):
        payload.slice(2, 2)
    with pytest.raises(ValueError):
        payload.slice(-1, 1)


def test_pattern_payload_deterministic():
    assert PatternPayload(64, seed=1).to_bytes() == PatternPayload(64, seed=1).to_bytes()
    assert PatternPayload(64, seed=1).to_bytes() != PatternPayload(64, seed=2).to_bytes()


def test_pattern_payload_slice_is_lazy_and_consistent():
    whole = PatternPayload(1000, seed=9)
    piece = whole.slice(100, 50)
    assert isinstance(piece, PatternPayload)
    assert piece.to_bytes() == whole.to_bytes()[100:150]


def test_pattern_payload_slice_of_slice():
    whole = PatternPayload(1000, seed=9)
    nested = whole.slice(100, 500).slice(50, 20)
    assert nested.to_bytes() == whole.to_bytes()[150:170]


def test_pattern_crosses_block_boundary():
    block = PatternPayload._BLOCK
    whole = PatternPayload(block * 2 + 10, seed=3)
    spanning = whole.slice(block - 5, 10)
    assert spanning.to_bytes() == whole.to_bytes()[block - 5 : block + 5]


def test_cross_type_equality():
    pattern = PatternPayload(32, seed=4)
    assert BytesPayload(pattern.to_bytes()) == pattern
    assert pattern == BytesPayload(pattern.to_bytes())
    assert BytesPayload(b"\x00" * 32) != pattern


def test_size_mismatch_not_equal():
    assert BytesPayload(b"ab") != BytesPayload(b"abc")


def test_zero_size_pattern():
    assert PatternPayload(0, seed=1).to_bytes() == b""


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        PatternPayload(-1, seed=0)


def test_hash_consistent_with_equality():
    pattern = PatternPayload(16, seed=5)
    raw = BytesPayload(pattern.to_bytes())
    assert hash(pattern) == hash(raw)


@given(
    size=st.integers(min_value=0, max_value=4096),
    seed=st.integers(min_value=0, max_value=2**32),
    data=st.data(),
)
@settings(max_examples=50, deadline=None)
def test_pattern_slice_equals_bytes_slice(size, seed, data):
    """Slicing a pattern payload equals slicing its materialisation."""
    payload = PatternPayload(size, seed=seed)
    offset = data.draw(st.integers(min_value=0, max_value=size))
    length = data.draw(st.integers(min_value=0, max_value=size - offset))
    assert (
        payload.slice(offset, length).to_bytes()
        == payload.to_bytes()[offset : offset + length]
    )


def test_digest_memo_spans_instances():
    """Equal content has one digest, whatever the representation.

    A pattern spanning several blocks, a fresh instance of it, the bytes it
    materialises and a concatenation of its slices all stream the same byte
    sequence, so each instance computes the same digest on its own.
    """
    first = PatternPayload(100_000, seed=77, origin=3)
    digest = first.content_digest()
    assert digest == hashlib.sha256(first.to_bytes()).digest()
    assert PatternPayload(100_000, seed=77, origin=3).content_digest() == digest
    assert BytesPayload(first.to_bytes()).content_digest() == digest
    split = ConcatPayload([first.slice(0, 40_000), first.slice(40_000, 60_000)])
    assert split.content_digest() == digest
    assert PatternPayload(100_000, seed=78, origin=3).content_digest() != digest


def test_pattern_blocks_are_frozen():
    """The cross-instance block cache hands out read-only arrays."""
    import numpy as np
    import pytest as _pytest

    block = PatternPayload(16, seed=3)._block(0)
    with _pytest.raises(ValueError):
        block[0] = 0
    assert isinstance(block, np.ndarray)
