"""Functional state of a DAOS Key-Value object.

Keys and values are byte strings, as in the DAOS KV API.  Timing (RPC
latency, service time, the per-object serialisation of updates) is charged
by :class:`~repro.daos.client.DaosClient`; this class is the pure data
structure plus the bookkeeping the client needs (placement class, a
serialisation lock, usage counters).
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from repro.daos.errors import InvalidArgumentError, KeyNotFoundError
from repro.daos.objclass import ObjectClass
from repro.daos.oid import ObjectId

__all__ = ["KeyValueObject"]


class KeyValueObject:
    """An open-addressed mapping of byte keys to byte values."""

    __slots__ = ("oid", "oclass", "_data", "lock", "layout", "version")

    def __init__(self, oid: ObjectId, oclass: ObjectClass) -> None:
        self.oid = oid
        self.oclass = oclass
        self._data: Dict[bytes, bytes] = {}
        #: Set by the system layer: per-object serialisation lock and the
        #: targets holding the object's dkeys.
        self.lock = None
        self.layout: Tuple[int, ...] = ()
        #: Monotonic update counter (a stand-in for the object's epoch).
        self.version = 0

    @staticmethod
    def _check_key(key: bytes) -> bytes:
        if not isinstance(key, (bytes, bytearray)):
            raise InvalidArgumentError(f"KV keys must be bytes, got {type(key).__name__}")
        if len(key) == 0:
            raise InvalidArgumentError("KV keys must be non-empty")
        return bytes(key)

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite ``key``."""
        key = self._check_key(key)
        if not isinstance(value, (bytes, bytearray)):
            raise InvalidArgumentError(
                f"KV values must be bytes, got {type(value).__name__}"
            )
        self._data[key] = bytes(value)
        self.version += 1

    def get(self, key: bytes) -> bytes:
        """Value for ``key``; raises :class:`KeyNotFoundError` if absent."""
        key = self._check_key(key)
        try:
            return self._data[key]
        except KeyError:
            raise KeyNotFoundError(f"key {key!r} not found") from None

    def get_or_none(self, key: bytes) -> Optional[bytes]:
        """Value for ``key`` or ``None`` — the probe used by Algorithm 1."""
        return self._data.get(self._check_key(key))

    def remove(self, key: bytes) -> None:
        """Delete ``key``; raises :class:`KeyNotFoundError` if absent."""
        key = self._check_key(key)
        if key not in self._data:
            raise KeyNotFoundError(f"key {key!r} not found")
        del self._data[key]
        self.version += 1

    def contains(self, key: bytes) -> bool:
        return self._check_key(key) in self._data

    def keys(self) -> Iterator[bytes]:
        """Iterate keys in insertion order (dict semantics)."""
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    @property
    def nbytes(self) -> int:
        """Approximate stored size: keys plus values."""
        return sum(len(k) + len(v) for k, v in self._data.items())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<KeyValueObject {self.oid} {len(self._data)} keys ({self.oclass})>"
