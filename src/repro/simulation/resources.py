"""Shared-resource primitives: capacity-limited resources and FIFO stores.

These follow the usual process-interaction idiom::

    with_req = resource.request()
    yield with_req
    try:
        ... hold the resource ...
    finally:
        resource.release(with_req)

All queues are strict FIFO, which keeps the simulation deterministic and
models the request queues in front of DAOS targets and pool services.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque

from repro.simulation.events import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simulation.core import Simulator

__all__ = ["Resource", "Store"]


class Resource:
    """A resource with ``capacity`` identical slots and a FIFO wait queue.

    Models a pool of service threads: a DAOS target's xstream group, a pool
    service, or a node's NIC DMA engines.
    """

    __slots__ = ("sim", "capacity", "name", "_in_use", "_waiters", "_request_name")

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Event] = deque()
        # Hot path: request() runs per RPC, so the event name is built once.
        self._request_name = f"{name}:request"

    @property
    def in_use(self) -> int:
        """Number of currently-held slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiters)

    def request(self) -> Event:
        """Return an event that triggers once a slot is held.

        The slot is held from the moment the event triggers until
        :meth:`release` is called with the same event.
        """
        event = Event(self.sim, name=self._request_name)
        if self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            event.succeed(self)
        else:
            self._waiters.append(event)
        return event

    def try_acquire(self) -> bool:
        """Claim a free slot without allocating a grant event.

        Returns ``True`` (slot held, release with :meth:`release_direct`)
        exactly when :meth:`request` would have granted immediately.  Used
        by the metadata service leg (``DaosClient._service_leg``) to elide
        uncontended grant events; callers
        must only do so when the simulator instant is settled
        (:meth:`~repro.simulation.core.Simulator.settled`), otherwise grant
        ordering against same-instant events could differ from the event
        path.
        """
        if self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            return True
        return False

    def release_direct(self) -> None:
        """Release a slot claimed via :meth:`try_acquire` (FIFO handoff kept)."""
        if self._in_use <= 0:
            raise RuntimeError(f"release_direct() on idle resource {self.name!r}")
        self._in_use -= 1
        self._grant_next()

    def release(self, request: Event) -> None:
        """Release the slot held via ``request``.

        A queued request that has not yet been granted may also be passed,
        which cancels it.
        """
        if not request.triggered:
            # Cancel a queued request.
            try:
                self._waiters.remove(request)
            except ValueError:
                raise RuntimeError("release() of a request not issued here") from None
            # Mark it failed-but-handled so a waiting process (if any) learns.
            request._ok = True
            request._value = None
            request.callbacks = None
            return
        if self._in_use <= 0:
            raise RuntimeError(f"release() on idle resource {self.name!r}")
        self._in_use -= 1
        self._grant_next()

    def _grant_next(self) -> None:
        while self._waiters and self._in_use < self.capacity:
            waiter = self._waiters.popleft()
            self._in_use += 1
            waiter.succeed(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Resource {self.name!r} {self._in_use}/{self.capacity} busy, "
            f"{len(self._waiters)} queued>"
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
