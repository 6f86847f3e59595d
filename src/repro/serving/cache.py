"""Gateway-side field cache: LRU over bytes, keyed by field key.

The cache maps field keys to payloads and accounts each entry's
``payload.size`` against a byte budget.  Entries are addressed by key
alone: two keys holding byte-identical payloads each count their bytes
(no workload ever caches one content under two keys), and a ``put`` on a
cached key replaces its payload and refreshes its recency and TTL.

Eviction is LRU over keys with a byte capacity; an optional per-entry TTL
models cycle rollover (yesterday's products age out without explicit
invalidation).  All state transitions are counted — hits, misses,
evictions, expirations — because the serving experiment's headline is the
cache-hit curve.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Optional

from repro.daos.payload import Payload

__all__ = ["FieldCache"]


class _Entry:
    __slots__ = ("payload", "expires_at")

    def __init__(self, payload: Payload, expires_at: Optional[float]) -> None:
        self.payload = payload
        self.expires_at = expires_at


class FieldCache:
    """Byte-bounded LRU of field payloads keyed by field key.

    Parameters
    ----------
    capacity:
        Byte budget for cached payload content.  Payloads larger than the
        whole budget are never cached.
    ttl:
        Seconds an entry stays valid, or ``None`` for no expiry.  Time is
        passed *in* by the caller (``now=sim.now``) so the cache is a pure
        deterministic data structure with no clock of its own.
    """

    def __init__(self, capacity: int, ttl: Optional[float] = None) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        if ttl is not None and ttl <= 0:
            raise ValueError(f"ttl must be positive, got {ttl}")
        self.capacity = capacity
        self.ttl = ttl
        self._entries: "OrderedDict[Hashable, _Entry]" = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0
        self.insertions = 0
        self.oversize_rejects = 0

    def _drop(self, key: Hashable) -> None:
        self._bytes -= self._entries.pop(key).payload.size

    # -- public API -------------------------------------------------------------
    def get(self, key: Hashable, now: float = 0.0) -> Optional[Payload]:
        """The cached payload for ``key``, or ``None`` (counted as a miss)."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        if entry.expires_at is not None and now >= entry.expires_at:
            self._drop(key)
            self.expirations += 1
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry.payload

    def put(self, key: Hashable, payload: Payload, now: float = 0.0) -> bool:
        """Insert/refresh ``key`` -> ``payload``; returns whether it was cached.

        A ``put`` on a cached key replaces the payload and renews its TTL
        and recency (not counted as an insertion).  Growing the cache
        evicts LRU entries until the byte budget holds.
        """
        size = payload.size
        if size > self.capacity:
            if key in self._entries:
                self._drop(key)
            self.oversize_rejects += 1
            return False
        expires_at = now + self.ttl if self.ttl is not None else None
        entry = self._entries.get(key)
        if entry is None:
            self._entries[key] = _Entry(payload, expires_at)
            self.insertions += 1
        else:
            self._bytes -= entry.payload.size
            entry.payload = payload
            entry.expires_at = expires_at
            self._entries.move_to_end(key)
        self._bytes += size
        while self._bytes > self.capacity:
            self._drop(next(iter(self._entries)))
            self.evictions += 1
        return True

    def contains(self, key: Hashable, now: float = 0.0) -> bool:
        """Whether ``key`` is cached and unexpired (no counters, no LRU touch)."""
        entry = self._entries.get(key)
        if entry is None:
            return False
        return entry.expires_at is None or now < entry.expires_at

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        self._entries.clear()
        self._bytes = 0

    # -- introspection -----------------------------------------------------------
    @property
    def used_bytes(self) -> int:
        """Bytes of cached content."""
        return self._bytes

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FieldCache {len(self._entries)} entries, "
            f"{self._bytes}/{self.capacity} B, "
            f"{self.hits}h/{self.misses}m/{self.evictions}e>"
        )
