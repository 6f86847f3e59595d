"""A FIFO readers-writer lock over simulation events.

Object updates in the model serialise at a per-object point (the VOS tree /
dkey leader), while lookups proceed concurrently but must not interleave
with an in-flight update.  That is exactly readers-writer semantics.  Grant
order is FIFO with batched readers: consecutive queued readers are admitted
together, a queued writer blocks later readers — so neither side starves,
and the high-contention benchmarks (§5.2, shared forecast index KV) exhibit
the fair-queueing behaviour a real service gives.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Tuple

from repro.simulation.events import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simulation.core import Simulator

__all__ = ["RWLock"]


class RWLock:
    """FIFO readers-writer lock.

    Usage inside a simulated process::

        yield lock.acquire_read()
        ...
        lock.release_read()

        yield lock.acquire_write()
        ...
        lock.release_write()
    """

    __slots__ = ("sim", "name", "_readers", "_writer", "_queue", "_rname", "_wname")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._readers = 0
        self._writer = False
        #: Queue of (is_writer, event) in arrival order.
        self._queue: Deque[Tuple[bool, Event]] = deque()
        # Acquires run per KV/array op; the event names are built once.
        self._rname = f"{name}:rlock"
        self._wname = f"{name}:wlock"

    @property
    def readers(self) -> int:
        return self._readers

    @property
    def write_locked(self) -> bool:
        return self._writer

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def acquire_read(self) -> Event:
        """Event that triggers once shared (read) access is granted."""
        event = Event(self.sim, name=self._rname)
        if not self._writer and not self._queue:
            self._readers += 1
            event.succeed(self)
        else:
            self._queue.append((False, event))
        return event

    def acquire_write(self) -> Event:
        """Event that triggers once exclusive (write) access is granted."""
        event = Event(self.sim, name=self._wname)
        if not self._writer and self._readers == 0 and not self._queue:
            self._writer = True
            event.succeed(self)
        else:
            self._queue.append((True, event))
        return event

    def try_acquire_write(self) -> bool:
        """Claim exclusive access without allocating a grant event.

        Returns ``True`` (write lock held, release with
        :meth:`release_write`) exactly when :meth:`acquire_write` would have
        granted immediately.  Lock counterpart of
        :meth:`~repro.simulation.resources.Resource.try_acquire`: only valid
        when the simulator instant is settled, so the elided grant cannot be
        reordered against a same-instant event.
        """
        if not self._writer and self._readers == 0 and not self._queue:
            self._writer = True
            return True
        return False

    def release_read(self) -> None:
        if self._readers <= 0:
            raise RuntimeError(f"release_read() with no readers on {self.name!r}")
        self._readers -= 1
        self._grant()

    def release_write(self) -> None:
        if not self._writer:
            raise RuntimeError(f"release_write() with no writer on {self.name!r}")
        self._writer = False
        self._grant()

    def _grant(self) -> None:
        if self._writer:
            return
        # Admit a leading writer if the lock is idle, else a batch of readers.
        if self._queue and self._queue[0][0]:
            if self._readers == 0:
                _, event = self._queue.popleft()
                self._writer = True
                event.succeed(self)
            return
        while self._queue and not self._queue[0][0]:
            _, event = self._queue.popleft()
            self._readers += 1
            event.succeed(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "W" if self._writer else f"R{self._readers}"
        return f"<RWLock {self.name!r} {state} queue={len(self._queue)}>"
