"""Generator-based simulated processes.

A process is an ordinary Python generator that ``yield``\\ s
:class:`~repro.simulation.events.Event` objects.  Each yield suspends the
process until the event triggers; the event's value is sent back into the
generator (or its exception raised there).  A :class:`Process` is itself an
Event that triggers when the generator returns, so processes can wait on
each other and be joined with ``AllOf``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.simulation.events import Event, Wake

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simulation.core import Simulator

__all__ = ["Process"]


class Process(Event):
    """A running simulated process wrapping a generator.

    The process starts on the next simulator step after creation.  When the
    generator returns, the process event succeeds with the return value; if
    the generator raises, the process event fails with that exception.
    """

    __slots__ = ("_generator",)

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator,
        name: str = "",
        bootstrap: Optional[Event] = None,
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(
                f"process body must be a generator, got {type(generator).__name__}"
            )
        super().__init__(sim, name=name or getattr(generator, "__name__", ""))
        self._generator = generator
        if bootstrap is not None:
            # Batch spawn (see Simulator.spawn_batch): ride a shared
            # bootstrap event the caller enqueues once for the whole wave.
            bootstrap.callbacks.append(self._resume)
            return
        # Kick off the process on the next step: a wake queued for now.
        sim._enqueue_triggered(Wake(self._resume))

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    # -- internal stepping ---------------------------------------------------
    def _resume(self, event: Event | Wake) -> None:
        """Advance the generator with ``event``'s outcome until it waits
        (slot access throughout: this runs once per simulated I/O step)."""
        generator = self._generator
        while True:
            try:
                if event._ok:
                    target = generator.send(event._value)
                else:
                    event.defuse()
                    target = generator.throw(event._value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:
                self.fail(exc)
                return

            if not isinstance(target, Event):
                exc = TypeError(
                    f"process {self.name!r} yielded {target!r}; processes must "
                    "yield Event instances"
                )
                generator.close()
                self.fail(exc)
                return
            if target.sim is not self.sim:
                generator.close()
                self.fail(ValueError("yielded event belongs to a different simulator"))
                return
            callbacks = target.callbacks
            if callbacks is not None:
                callbacks.append(self._resume)
                return
            event = target
