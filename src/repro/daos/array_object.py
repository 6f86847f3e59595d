"""Functional state of a DAOS Array object.

A DAOS array is a sparse, byte-addressable object.  We store it as a sorted
list of non-overlapping extents, each carrying a :class:`~repro.daos.payload.Payload`
— newest write wins on overlap, reads of holes fail (the Field I/O layer
never reads unwritten ranges; exposing the hole as an error catches bugs).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Optional

from repro.daos.errors import InvalidArgumentError, ObjectNotFoundError
from repro.daos.objclass import ObjectClass
from repro.daos.oid import ObjectId
from repro.daos.payload import BytesPayload, ConcatPayload, Payload

__all__ = ["Extent", "ArrayObject"]


@dataclass(slots=True)
class Extent:
    """A written range ``[offset, offset + payload.size)``."""

    offset: int
    payload: Payload

    @property
    def end(self) -> int:
        return self.offset + self.payload.size


class ArrayObject:
    """Sparse byte array built from non-overlapping extents."""

    __slots__ = ("oid", "oclass", "_extents", "lock", "layout", "version")

    def __init__(self, oid: ObjectId, oclass: ObjectClass) -> None:
        self.oid = oid
        self.oclass = oclass
        self._extents: List[Extent] = []  # sorted by offset, non-overlapping
        #: Set by the system layer (like for KV objects).
        self.lock = None
        self.layout: List[int] = []
        self.version = 0

    # -- write ----------------------------------------------------------------
    def write(self, offset: int, payload: Payload) -> None:
        """Write ``payload`` at ``offset``, replacing any overlapped data."""
        if offset < 0:
            raise InvalidArgumentError(f"offset must be non-negative, got {offset}")
        if not isinstance(payload, Payload):
            payload = BytesPayload(bytes(payload))
        if payload.size == 0:
            return
        new = Extent(offset, payload)
        kept: List[Extent] = []
        for ext in self._extents:
            if ext.end <= new.offset or ext.offset >= new.end:
                kept.append(ext)
                continue
            # Overlap: keep the non-overlapped head and/or tail pieces.
            if ext.offset < new.offset:
                head_len = new.offset - ext.offset
                kept.append(Extent(ext.offset, ext.payload.slice(0, head_len)))
            if ext.end > new.end:
                tail_start = new.end - ext.offset
                kept.append(
                    Extent(new.end, ext.payload.slice(tail_start, ext.end - new.end))
                )
        kept.append(new)
        kept.sort(key=lambda e: e.offset)
        self._extents = kept
        self.version += 1

    # -- read -----------------------------------------------------------------
    def read(self, offset: int, length: int) -> Payload:
        """Payload for ``[offset, offset+length)``.

        Raises :class:`ObjectNotFoundError` if any byte of the range was
        never written (reading a hole).
        """
        if offset < 0 or length < 0:
            raise InvalidArgumentError("offset and length must be non-negative")
        if length == 0:
            return BytesPayload(b"")
        pieces: List[Payload] = []
        cursor = offset
        end = offset + length
        starts = [e.offset for e in self._extents]
        idx = bisect.bisect_right(starts, cursor) - 1
        if idx < 0:
            idx = 0
        for ext in self._extents[idx:]:
            if ext.end <= cursor:
                continue
            if ext.offset >= end:
                break
            if ext.offset > cursor:
                raise ObjectNotFoundError(
                    f"read of unwritten range [{cursor}, {ext.offset}) in array {self.oid}"
                )
            start_in_ext = cursor - ext.offset
            take = min(ext.end, end) - cursor
            pieces.append(ext.payload.slice(start_in_ext, take))
            cursor += take
            if cursor >= end:
                break
        if cursor < end:
            raise ObjectNotFoundError(
                f"read of unwritten range [{cursor}, {end}) in array {self.oid}"
            )
        if len(pieces) == 1:
            return pieces[0]
        # Lazy concatenation: a striped / multi-extent read stays O(1) in
        # memory until a caller actually materialises the bytes.
        return ConcatPayload(pieces)

    def truncate(self, size: int) -> None:
        """Discard all data at or beyond ``size`` (DAOS ``array_set_size``)."""
        if size < 0:
            raise InvalidArgumentError(f"size must be non-negative, got {size}")
        kept: List[Extent] = []
        for ext in self._extents:
            if ext.end <= size:
                kept.append(ext)
            elif ext.offset < size:
                kept.append(Extent(ext.offset, ext.payload.slice(0, size - ext.offset)))
        self._extents = kept
        self.version += 1

    # -- inspection -------------------------------------------------------------
    @property
    def size(self) -> int:
        """Array size: one past the highest written byte (0 if empty)."""
        return self._extents[-1].end if self._extents else 0

    @property
    def nbytes_stored(self) -> int:
        """Bytes currently stored (excluding holes)."""
        return sum(e.payload.size for e in self._extents)

    @property
    def n_extents(self) -> int:
        return len(self._extents)

    def extent_at(self, offset: int) -> Optional[Extent]:
        """The extent containing ``offset``, if any."""
        for ext in self._extents:
            if ext.offset <= offset < ext.end:
                return ext
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ArrayObject {self.oid} size={self.size} "
            f"extents={len(self._extents)} ({self.oclass})>"
        )
