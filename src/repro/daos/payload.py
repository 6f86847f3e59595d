"""Lazy data payloads.

Benchmarks move hundreds of gibibytes of simulated data; materialising those
bytes would dwarf the machine's memory for zero benefit.  A :class:`Payload`
is a value object describing bytes: :class:`BytesPayload` holds them for
real (used in functional tests and the examples), :class:`PatternPayload`
describes a deterministic pseudo-random pattern by ``(size, seed)`` and can
materialise any slice on demand, and :class:`ConcatPayload` is a lazy
concatenation of other payloads (what a multi-extent array read returns),
so stitched-together reads stay O(1) in memory until a caller actually
needs bytes.

Payload equality is *content* equality: a ``BytesPayload`` equals a
``PatternPayload`` that would materialise the same bytes, so verification
code does not care which representation a benchmark used.  Equality and
hashing go through a lazily-computed SHA-256 content digest, kept on the
instance and streamed chunk-by-chunk — comparing or hashing a 20 MiB lazy
payload never allocates 20 MiB.  Nothing on a simulated path compares or
hashes payloads, so the digest is computed only where content is verified.
"""

from __future__ import annotations

import functools
import hashlib
from abc import ABC, abstractmethod
from typing import Iterator, List, Sequence

import numpy as np

__all__ = ["Payload", "BytesPayload", "PatternPayload", "ConcatPayload"]


class Payload(ABC):
    """Immutable description of a byte string."""

    #: Cache slot for the content digest; payloads are immutable, so the
    #: digest is computed at most once per instance.
    __slots__ = ("_digest",)

    @property
    @abstractmethod
    def size(self) -> int:
        """Length in bytes."""

    @abstractmethod
    def slice(self, offset: int, length: int) -> "Payload":
        """Payload for ``[offset, offset+length)``; bounds are validated."""

    @abstractmethod
    def to_bytes(self) -> bytes:
        """Materialise the payload (may allocate ``size`` bytes)."""

    def _chunks(self) -> Iterator[bytes]:
        """Yield the content as a sequence of byte chunks.

        Subclasses with a natural block structure override this so digest
        computation streams in bounded memory instead of materialising the
        whole payload.
        """
        yield self.to_bytes()

    def content_digest(self) -> bytes:
        """SHA-256 of the materialised content, computed lazily and cached.

        Two payloads of equal content share the digest whatever their
        representation, because every ``_chunks`` implementation streams
        the same byte sequence.
        """
        digest = getattr(self, "_digest", None)
        if digest is None:
            h = hashlib.sha256()
            for chunk in self._chunks():
                h.update(chunk)
            digest = h.digest()
            self._digest = digest
        return digest

    def _check_bounds(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.size:
            raise ValueError(
                f"slice [{offset}, {offset + length}) out of bounds for "
                f"payload of {self.size} B"
            )

    def __len__(self) -> int:
        return self.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Payload):
            return NotImplemented
        if self.size != other.size:
            return False
        return self.content_digest() == other.content_digest()

    def __hash__(self) -> int:
        return hash((self.size, self.content_digest()))


class BytesPayload(Payload):
    """A payload backed by real bytes."""

    __slots__ = ("_data",)

    def __init__(self, data: bytes) -> None:
        self._data = bytes(data)

    @property
    def size(self) -> int:
        return len(self._data)

    def slice(self, offset: int, length: int) -> "BytesPayload":
        self._check_bounds(offset, length)
        return BytesPayload(self._data[offset : offset + length])

    def to_bytes(self) -> bytes:
        return self._data

    def __repr__(self) -> str:
        preview = self._data[:16]
        return f"<BytesPayload {self.size} B {preview!r}{'...' if self.size > 16 else ''}>"


class PatternPayload(Payload):
    """A payload of deterministic pseudo-random bytes, O(1) in memory.

    The full pattern for ``(seed)`` is an infinite byte stream; an instance
    is a window ``[origin, origin+size)`` into it, so slices remain
    :class:`PatternPayload` without copying.
    """

    __slots__ = ("_size", "seed", "origin")

    #: Pattern blocks are generated in chunks of this many bytes.
    _BLOCK = 1 << 16

    def __init__(self, size: int, seed: int, origin: int = 0) -> None:
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        if origin < 0:
            raise ValueError(f"origin must be non-negative, got {origin}")
        self._size = int(size)
        self.seed = int(seed)
        self.origin = int(origin)

    @property
    def size(self) -> int:
        return self._size

    def slice(self, offset: int, length: int) -> "PatternPayload":
        self._check_bounds(offset, length)
        return PatternPayload(length, self.seed, origin=self.origin + offset)

    def _block(self, block: int) -> np.ndarray:
        return _pattern_block(self.seed, block)

    def _chunks(self) -> Iterator[bytes]:
        if self._size == 0:
            return
        first_block = self.origin // self._BLOCK
        last_block = (self.origin + self._size - 1) // self._BLOCK
        for block in range(first_block, last_block + 1):
            data = self._block(block)
            lo = max(self.origin - block * self._BLOCK, 0)
            hi = min(self.origin + self._size - block * self._BLOCK, self._BLOCK)
            yield data[lo:hi].tobytes()

    def to_bytes(self) -> bytes:
        return b"".join(self._chunks())

    def __repr__(self) -> str:
        return f"<PatternPayload {self.size} B seed={self.seed} origin={self.origin}>"


@functools.lru_cache(maxsize=256)
def _pattern_block(seed: int, block: int) -> np.ndarray:
    """One 64 KiB pattern block, LRU-cached across payload instances.

    Pattern bytes are a pure function of ``(seed, block)``, and the
    callers that materialise them re-read the same content: the rebuild
    experiment's read-back compares each field with the payload it wrote
    (``to_bytes()`` on both), and payload equality digests both sides.
    Regenerating a PCG64 stream per read would repeat that work.  The
    cached array is frozen — callers only slice and ``tobytes`` it.
    """
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=[seed, block]))
    )
    data = rng.integers(0, 256, size=PatternPayload._BLOCK, dtype=np.uint8)
    data.setflags(write=False)
    return data


class ConcatPayload(Payload):
    """A lazy concatenation of payloads.

    Multi-extent array reads return one of these instead of joining the
    pieces eagerly, so reading a pattern-backed striped file stays O(1) in
    memory.  Slicing selects the covered pieces (slicing them at the edges)
    without materialising anything; nested concatenations are flattened at
    construction so deep read-of-read chains stay shallow.
    """

    __slots__ = ("_pieces", "_size")

    def __init__(self, pieces: Sequence[Payload]) -> None:
        flat: List[Payload] = []
        for piece in pieces:
            if not isinstance(piece, Payload):
                raise TypeError(f"not a Payload: {piece!r}")
            if piece.size == 0:
                continue
            if isinstance(piece, ConcatPayload):
                flat.extend(piece._pieces)
            else:
                flat.append(piece)
        self._pieces = tuple(flat)
        self._size = sum(p.size for p in flat)

    @property
    def size(self) -> int:
        return self._size

    @property
    def pieces(self) -> Sequence[Payload]:
        """The flattened, non-empty constituent payloads."""
        return self._pieces

    def slice(self, offset: int, length: int) -> "Payload":
        self._check_bounds(offset, length)
        if length == 0:
            return BytesPayload(b"")
        picked: List[Payload] = []
        cursor = 0
        end = offset + length
        for piece in self._pieces:
            piece_end = cursor + piece.size
            if piece_end <= offset:
                cursor = piece_end
                continue
            if cursor >= end:
                break
            lo = max(offset - cursor, 0)
            hi = min(end - cursor, piece.size)
            picked.append(piece if (lo == 0 and hi == piece.size) else piece.slice(lo, hi - lo))
            cursor = piece_end
        if len(picked) == 1:
            return picked[0]
        return ConcatPayload(picked)

    def _chunks(self) -> Iterator[bytes]:
        for piece in self._pieces:
            yield from piece._chunks()

    def to_bytes(self) -> bytes:
        return b"".join(self._chunks())

    def __repr__(self) -> str:
        return f"<ConcatPayload {self.size} B in {len(self._pieces)} pieces>"
