"""Shared-resource primitives: capacity-limited resources and FIFO stores.

A resource slot is taken with a claim, a leg of the process dialect::

    yield resource.slot
    try:
        ... hold the slot ...
    finally:
        resource.release()

``resource.slot`` is a :class:`~repro.simulation.events.Gate`, built once
with the resource, so an acquire allocates nothing.  All queues are strict
FIFO, which keeps the simulation deterministic and models the request
queues in front of DAOS targets and pool services.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Optional

from repro.simulation.events import Event, Gate, Wake

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simulation.core import Simulator

__all__ = ["Resource", "Store"]


class Resource:
    """A resource with ``capacity`` identical slots and a FIFO wait queue.

    Models a pool of service threads: a DAOS target's xstream group, a pool
    service, or a node's NIC DMA engines.
    """

    __slots__ = ("sim", "capacity", "name", "_in_use", "_waiters", "slot")

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        #: FIFO of the wakes of processes waiting for a slot; made on the
        #: first enqueue (most targets of a short run are never contended).
        self._waiters: Optional[Deque[Wake]] = None
        #: The gate a process yields to hold one slot.
        self.slot = Gate(self, Resource._claim)

    @property
    def in_use(self) -> int:
        """Number of currently-held slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of processes waiting for a slot."""
        return len(self._waiters) if self._waiters else 0

    def _claim(self, wake: Wake) -> bool:
        """The :attr:`slot` gate's claim (see :class:`Gate`): True when a free
        slot is taken on a settled instant, else ``wake`` is queued."""
        if self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            live = self.sim._live
            if not live:
                return True
            live.append(wake)
        else:
            waiters = self._waiters
            if waiters is None:
                waiters = self._waiters = deque()
            waiters.append(wake)
        return False

    def release(self) -> None:
        """Give back a held slot.  The oldest waiter, if any, takes it over
        and resumes at the back of the current instant."""
        if self._in_use <= 0:
            raise RuntimeError(f"release() on idle resource {self.name!r}")
        waiters = self._waiters
        if waiters:
            # Waiters queue only while every slot is held, so exactly this
            # one is free: hand it over without counting it out and back.
            self.sim._live.append(waiters.popleft())
        else:
            self._in_use -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Resource {self.name!r} {self._in_use}/{self.capacity} busy, "
            f"{self.queue_length} queued>"
        )


class Store:
    """An unbounded FIFO buffer of items with blocking ``get``.

    ``put`` never blocks (the store is unbounded — back-pressure in the
    models is exercised through :class:`Resource`/bandwidth instead).
    ``get`` returns an event that triggers with the next item.
    """

    __slots__ = ("sim", "name", "_items", "_getters", "_get_name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._get_name = f"{name}:get"

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Append an item, waking the oldest blocked getter if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event triggering with the next item (FIFO)."""
        event = Event(self.sim, name=self._get_name)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Store {self.name!r} {len(self._items)} items, "
            f"{len(self._getters)} waiting>"
        )
