"""128-bit DAOS object identifiers.

DAOS object IDs are 128 bits, of which 96 are user-managed; DAOS reserves
the top 32 bits of the high word to encode, among other things, the object
class (§3).  :class:`ObjectId` reproduces that layout; an
:class:`OidAllocator` hands out unique user parts the way
``daos_obj_generate_oid`` does per container.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.daos.errors import InvalidArgumentError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.daos.objclass import ObjectClass

__all__ = ["ObjectId", "OidAllocator"]

_U64 = (1 << 64) - 1
_U32 = (1 << 32) - 1


@dataclass(frozen=True, order=True, slots=True)
class ObjectId:
    """An immutable 128-bit object id: ``hi`` and ``lo`` 64-bit words.

    The top 32 bits of ``hi`` are DAOS-reserved (they carry the object-class
    id); the remaining 96 bits (``hi`` low word + all of ``lo``) belong to
    the user.
    """

    hi: int
    lo: int

    def __post_init__(self) -> None:
        if not (0 <= self.hi <= _U64 and 0 <= self.lo <= _U64):
            raise InvalidArgumentError(
                f"object id words must be unsigned 64-bit, got hi={self.hi} lo={self.lo}"
            )

    @classmethod
    def from_user(cls, user_hi32: int, user_lo64: int, oclass_id: int = 0) -> "ObjectId":
        """Build an OID from the 96 user bits plus an object-class id."""
        if not 0 <= user_hi32 <= _U32:
            raise InvalidArgumentError(f"user high bits exceed 32 bits: {user_hi32}")
        if not 0 <= user_lo64 <= _U64:
            raise InvalidArgumentError(f"user low bits exceed 64 bits: {user_lo64}")
        if not 0 <= oclass_id <= _U32:
            raise InvalidArgumentError(f"object class id exceeds 32 bits: {oclass_id}")
        return cls(hi=(oclass_id << 32) | user_hi32, lo=user_lo64)

    @property
    def oclass_id(self) -> int:
        """The DAOS-reserved object-class id bits."""
        return (self.hi >> 32) & _U32

    @property
    def user_hi(self) -> int:
        """The user-managed 32 bits of the high word."""
        return self.hi & _U32

    def with_class(self, oclass: "ObjectClass") -> "ObjectId":
        """This OID with its reserved bits set for ``oclass``."""
        return ObjectId(hi=(oclass.class_id << 32) | self.user_hi, lo=self.lo)

    def __int__(self) -> int:
        return (self.hi << 64) | self.lo

    def __str__(self) -> str:
        return f"{self.hi:016x}.{self.lo:016x}"

    @classmethod
    def from_digest(cls, digest: bytes, oclass_id: int = 0) -> "ObjectId":
        """Derive the 96 user bits from a digest (e.g. an md5 of a field key).

        Used by the *no index* Field I/O mode, which maps field identifiers
        directly to array OIDs via md5 (§5.2).
        """
        if len(digest) < 12:
            raise InvalidArgumentError("digest must supply at least 12 bytes")
        user_hi = int.from_bytes(digest[:4], "big")
        user_lo = int.from_bytes(digest[4:12], "big")
        return cls.from_user(user_hi, user_lo, oclass_id)


class OidAllocator:
    """Per-container allocator of unique user OID parts.

    Real DAOS reserves ranges of OIDs per client; uniqueness is what matters
    here, so a simple counter suffices and stays deterministic.
    """

    def __init__(self) -> None:
        self._next = 1

    def allocate(self, oclass_id: int = 0) -> ObjectId:
        """Return a fresh OID whose user bits were never handed out before."""
        value = self._next
        self._next += 1
        return ObjectId.from_user(
            user_hi32=(value >> 64) & _U32, user_lo64=value & _U64, oclass_id=oclass_id
        )
