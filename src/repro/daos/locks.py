"""A FIFO readers-writer lock for simulated processes.

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
from typing import TYPE_CHECKING, Deque, Optional, Tuple

from repro.simulation.events import Gate, Wake

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simulation.core import Simulator

__all__ = ["RWLock"]


class RWLock:
    """FIFO readers-writer lock.

    Each side is a :class:`~repro.simulation.events.Gate`, built once with
    the lock; a simulated process claims it with a yield::

        yield lock.shared
        ...
        lock.release_read()

        yield lock.exclusive
        ...
        lock.release_write()
    """

    __slots__ = ("sim", "_name", "_holders", "_queue", "shared", "exclusive")

    def __init__(self, sim: "Simulator", name: object = "") -> None:
        self.sim = sim
        #: Any object naming the lock (an object lock keeps its oid); it is
        #: rendered with ``str`` only when read, by ``repr`` and errors.
        self._name = name
        #: Readers holding the lock, or -1 while a writer holds it.
        self._holders = 0
        #: Queue of (is_writer, wake) in arrival order, made on the first
        #: enqueue: most object locks are never contended.
        self._queue: Optional[Deque[Tuple[bool, Wake]]] = None
        #: The gates a process yields for shared (read) and exclusive
        #: (write) access.
        self.shared = Gate(self, RWLock._claim_read)
        self.exclusive = Gate(self, RWLock._claim_write)

    @property
    def name(self) -> str:
        return str(self._name)

    @property
    def readers(self) -> int:
        return max(self._holders, 0)

    @property
    def write_locked(self) -> bool:
        return self._holders < 0

    @property
    def queue_length(self) -> int:
        return len(self._queue) if self._queue else 0

    def _claim_read(self, wake: Wake) -> bool:
        """The :attr:`shared` gate's claim (see :class:`Gate`)."""
        if self._holders >= 0 and not self._queue:
            self._holders += 1
            live = self.sim._live
            if not live:
                return True
            live.append(wake)
        else:
            self._enqueue(False, wake)
        return False

    def _claim_write(self, wake: Wake) -> bool:
        """The :attr:`exclusive` gate's claim (see :class:`Gate`)."""
        if self._holders == 0 and not self._queue:
            self._holders = -1
            live = self.sim._live
            if not live:
                return True
            live.append(wake)
        else:
            self._enqueue(True, wake)
        return False

    def release_read(self) -> None:
        if self._holders <= 0:
            raise RuntimeError(f"release_read() with no readers on {self.name!r}")
        self._holders -= 1
        if self._queue:
            self._grant()

    def release_write(self) -> None:
        if self._holders >= 0:
            raise RuntimeError(f"release_write() with no writer on {self.name!r}")
        self._holders = 0
        if self._queue:
            self._grant()

    def _grant(self) -> None:
        """Admit a leading writer if the lock is idle, else a batch of
        readers; each resumes at the back of the current instant."""
        queue = self._queue
        if self._holders < 0:
            return
        live = self.sim._live
        if queue[0][0]:
            if self._holders == 0:
                self._holders = -1
                live.append(queue.popleft()[1])
            return
        while queue and not queue[0][0]:
            self._holders += 1
            live.append(queue.popleft()[1])

    def _enqueue(self, is_writer: bool, wake: Wake) -> None:
        queue = self._queue
        if queue is None:
            queue = self._queue = deque()
        queue.append((is_writer, wake))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "W" if self._holders < 0 else f"R{self._holders}"
        return f"<RWLock {self.name!r} {state} queue={self.queue_length}>"
