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
exclusion and fair queueing).  Owners are small integers — each client's
op-table slot, unique per deployment — so the cached-state bookkeeping is
itself reproducible.

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
    a delay, ``yield <Gate>`` a claim; see :mod:`repro.daos.client`), so
    protocol costs are charged inline, and only a client op body, run by
    the op driver, takes them::

        yield from lock.acquire_write(owner)
        ...
        lock.release_write()

    The underlying :class:`RWLock` is claimed through its gates, as the
    DAOS client claims its object locks.
    """

    __slots__ = ("config", "rtt", "rwlock", "last_writer", "cached_readers")

    def __init__(
        self, sim, config: PosixServiceConfig, rtt: float, name: str = ""
    ) -> None:
        self.config = config
        #: Client<->lock-server round trip paid on every cache miss.
        self.rtt = rtt
        self.rwlock = RWLock(sim, name=name)
        #: Owner whose *write* lock is still cached (None = nobody's).
        self.last_writer: Optional[int] = None
        #: Owners whose *read* locks are still cached.
        self.cached_readers: Set[int] = set()

    def _check_queue_limit(self, limit: int) -> None:
        if self.rwlock.queue_length >= limit:
            raise LockTimeoutError(
                f"lock {self.rwlock.name!r}: conflict queue at "
                f"{self.rwlock.queue_length} (limit {limit})"
            )

    def acquire_write(self, owner: int):
        """Acquire exclusively for ``owner``, charging LDLM protocol costs."""
        config = self.config
        if config.lock_queue_limit is not None:
            self._check_queue_limit(config.lock_queue_limit)
        cached = self.cached_readers
        # Other owners' cached read locks, counted without a set difference.
        if self.last_writer != owner or len(cached) - (owner in cached):
            # Enqueue at the lock server...
            yield self.rtt + config.ldlm_enqueue_service
            # ...then revoke every other client's cached lock (one blocking
            # callback round trip covers the batch, service accrues per lock).
            n_revoked = len(cached) - (owner in cached)
            if self.last_writer not in (None, owner):
                n_revoked += 1
            if n_revoked:
                yield self.rtt + config.lock_callback_service * n_revoked
            cached.clear()
            self.last_writer = None
        rwlock = self.rwlock
        yield rwlock.exclusive
        # Granting under contention re-arms every queued conflicting request
        # against the new holder — the per-op cost that grows with the queue
        # and bends aggregate shared-file bandwidth *down* past the knee.
        waiters = rwlock.queue_length
        if waiters:
            yield config.lock_contention_service * waiters
        self.last_writer = owner
        cached.clear()

    def acquire_read(self, owner: int):
        """Acquire shared for ``owner``; read locks cache alongside each other."""
        config = self.config
        if config.lock_queue_limit is not None:
            self._check_queue_limit(config.lock_queue_limit)
        if owner not in self.cached_readers and self.last_writer != owner:
            yield self.rtt + config.ldlm_enqueue_service
            if self.last_writer not in (None, owner):
                # Downgrade the cached write lock: one revocation callback.
                yield self.rtt + config.lock_callback_service
                self.last_writer = None
        yield self.rwlock.shared
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
