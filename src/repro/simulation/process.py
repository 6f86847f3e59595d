"""Generator-based simulated processes.

A process is an ordinary Python generator that ``yield``\\ s
:class:`~repro.simulation.events.Event` objects.  Each yield suspends the
process until the event triggers; the event's value is sent back into the
generator (or its exception raised there).  A :class:`Process` is itself an
Event that triggers when the generator returns, so processes can wait on
each other and be joined with ``AllOf``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.simulation.events import Event

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
        # Kick off the process via an immediately-triggered bootstrap event.
        bootstrap = Event(sim, name=f"{self.name}:start")
        bootstrap.callbacks.append(self._resume)
        bootstrap._ok = True
        bootstrap._value = None
        sim._enqueue_triggered(bootstrap)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    # -- internal stepping ---------------------------------------------------
    def _resume(self, event: Event) -> None:
        # Slot access throughout: _resume fires once per yield of every
        # process, i.e. once per simulated I/O step.
        if event._ok:
            self._step(event._value, as_exception=False)
        else:
            event.defuse()
            self._step(event.value, as_exception=True)

    def _step(self, payload: Any, *, as_exception: bool) -> None:
        try:
            if as_exception:
                target = self._generator.throw(payload)
            else:
                target = self._generator.send(payload)
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
            self._generator.close()
            self.fail(exc)
            return
        if target.sim is not self.sim:
            self._generator.close()
            self.fail(ValueError("yielded event belongs to a different simulator"))
            return
        callbacks = target.callbacks
        if callbacks is None:
            # Already processed: resume immediately (add_callback inlined).
            self._resume(target)
        else:
            callbacks.append(self._resume)
