"""LDLM-style extent locks with client-side lock caching.

Lustre's distributed lock manager grants extent locks to *clients* and lets
them cache a granted lock until another client's conflicting request forces
a blocking callback (revocation).  That caching is why file-per-process
POSIX I/O is cheap — after the first acquire, a process re-locks its own
file for free — and why shared-file writes collapse: every write by a
different process pays a revocation round trip, and each grant under
contention re-arms the whole conflict queue against the new holder.

:class:`ExtentLock` layers that protocol cost model over the simulation's
FIFO :class:`~repro.daos.locks.RWLock` (which supplies the actual mutual
exclusion and fair queueing).  Owners are small integers — deterministic
per-client ids issued by :class:`~repro.posixfs.system.PosixSystem` — so
the cached-state bookkeeping is itself reproducible.

Locks are keyed ``(oid, shard)`` by the :class:`LockManager`: ``shard=None``
is the whole-file flock a KV (small-file) op takes, an integer shard index
is the extent covering one stripe cell.  Writers to *different* byte ranges
that land in the same stripe cell therefore contend — the false sharing on
overlapping stripes that shared-file workloads exhibit on real Lustre.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.daos.errors import LockTimeoutError
from repro.daos.locks import RWLock
from repro.posixfs.config import PosixServiceConfig

__all__ = ["ExtentLock", "LockManager"]


class ExtentLock:
    """One lockable extent (a stripe cell or a whole file).

    The acquires are legs in the op bodies' leg dialect (``yield <float>``
    a delay, ``yield <Event>`` a wait; see :mod:`repro.daos.client`), so
    protocol costs are charged inline, and only a client op body, run by
    the op driver, takes them::

        yield from lock.acquire_write(owner)
        ...
        lock.release_write()

    An uncontended grant of the underlying :class:`RWLock` is elided on a
    settled instant, as the DAOS client does for its object locks.
    """

    __slots__ = ("sim", "config", "rtt", "rwlock", "last_writer", "cached_readers")

    def __init__(
        self, sim, config: PosixServiceConfig, rtt: float, name: str = ""
    ) -> None:
        self.sim = sim
        self.config = config
        #: Client<->lock-server round trip paid on every cache miss.
        self.rtt = rtt
        self.rwlock = RWLock(sim, name=name)
        #: Owner whose *write* lock is still cached (None = nobody's).
        self.last_writer: Optional[int] = None
        #: Owners whose *read* locks are still cached.
        self.cached_readers: Set[int] = set()

    def _check_queue_limit(self) -> None:
        limit = self.config.lock_queue_limit
        if limit is not None and self.rwlock.queue_length >= limit:
            raise LockTimeoutError(
                f"lock {self.rwlock.name!r}: conflict queue at "
                f"{self.rwlock.queue_length} (limit {limit})"
            )

    def acquire_write(self, owner: int):
        """Acquire exclusively for ``owner``, charging LDLM protocol costs."""
        self._check_queue_limit()
        cache_hit = self.last_writer == owner and not (self.cached_readers - {owner})
        if not cache_hit:
            # Enqueue at the lock server...
            yield self.rtt + self.config.ldlm_enqueue_service
            # ...then revoke every other client's cached lock (one blocking
            # callback round trip covers the batch, service accrues per lock).
            n_revoked = len(self.cached_readers - {owner})
            if self.last_writer not in (None, owner):
                n_revoked += 1
            if n_revoked:
                yield self.rtt + self.config.lock_callback_service * n_revoked
            self.cached_readers.clear()
            self.last_writer = None
        rwlock = self.rwlock
        if not (self.sim.settled() and rwlock.try_acquire_write()):
            yield rwlock.acquire_write()
        # Granting under contention re-arms every queued conflicting request
        # against the new holder — the per-op cost that grows with the queue
        # and bends aggregate shared-file bandwidth *down* past the knee.
        waiters = rwlock.queue_length
        if waiters:
            yield self.config.lock_contention_service * waiters
        self.last_writer = owner
        self.cached_readers.clear()

    def acquire_read(self, owner: int):
        """Acquire shared for ``owner``; read locks cache alongside each other."""
        self._check_queue_limit()
        cache_hit = owner in self.cached_readers or self.last_writer == owner
        if not cache_hit:
            yield self.rtt + self.config.ldlm_enqueue_service
            if self.last_writer not in (None, owner):
                # Downgrade the cached write lock: one revocation callback.
                yield self.rtt + self.config.lock_callback_service
                self.last_writer = None
        rwlock = self.rwlock
        if not (self.sim.settled() and rwlock.try_acquire_read()):
            yield rwlock.acquire_read()
        self.cached_readers.add(owner)

    def release_write(self) -> None:
        self.rwlock.release_write()

    def release_read(self) -> None:
        self.rwlock.release_read()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ExtentLock {self.rwlock.name!r} last_writer={self.last_writer} "
            f"cached_readers={len(self.cached_readers)}>"
        )


class LockManager:
    """Lazy registry of extent locks, keyed ``(oid, shard)``."""

    def __init__(self, sim, config: PosixServiceConfig, rtt: float) -> None:
        self.sim = sim
        self.config = config
        self.rtt = rtt
        self._locks: Dict[Tuple[object, Optional[int]], ExtentLock] = {}

    def lock(self, oid, shard: Optional[int] = None) -> ExtentLock:
        key = (oid, shard)
        lock = self._locks.get(key)
        if lock is None:
            suffix = "flock" if shard is None else f"ext{shard}"
            lock = ExtentLock(
                self.sim, self.config, self.rtt, name=f"ldlm:{oid}:{suffix}"
            )
            self._locks[key] = lock
        return lock
