"""Process synchronisation for the benchmarks.

IOR relies on MPI barriers to synchronise its phases (§5.1); :class:`Barrier`
is the simulation equivalent: a reusable, generation-counted barrier that
releases all waiters once the configured number have arrived.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.simulation.events import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simulation.core import Simulator

__all__ = ["Barrier"]


class Barrier:
    """A reusable n-party barrier.

    Each process does ``yield barrier.wait()``; the nth arrival releases the
    whole generation and the barrier resets for the next use.

    A generation is *one* event shared by its waiters: each waiter's resume
    is a callback on it, appended as the waiter yields, so the generation
    resumes its waiters in arrival order -- the order in which one event per
    waiter, triggered back to back, would dispatch (consecutive ``(now,
    seq)`` queue entries admit nothing between them; the argument
    :meth:`~repro.simulation.core.Simulator.spawn_batch` makes for
    bootstraps).  A wave of N ranks costs one queue entry, not N.
    """

    def __init__(self, sim: "Simulator", parties: int, name: str = "") -> None:
        if parties < 1:
            raise ValueError(f"barrier needs >= 1 parties, got {parties}")
        self.sim = sim
        self.parties = parties
        self.name = name
        self.generation = 0
        self._n_waiting = 0
        self._event: Optional[Event] = None

    @property
    def n_waiting(self) -> int:
        return self._n_waiting

    def wait(self) -> Event:
        """Event that triggers when all parties have arrived."""
        event = self._event
        if event is None:
            event = self._event = Event(
                self.sim, name=f"{self.name}:barrier{self.generation}"
            )
        self._n_waiting += 1
        if self._n_waiting >= self.parties:
            self._event = None
            self._n_waiting = 0
            self.generation += 1
            event.succeed(self.generation - 1)
        return event

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Barrier {self.name!r} {self._n_waiting}/{self.parties} "
            f"gen={self.generation}>"
        )
