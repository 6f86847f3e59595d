"""Generator-based simulated processes.

A process is an ordinary Python generator written in the *leg dialect*,
which has three yields:

* ``yield <float>`` (or ``int``) is a *delay* of that many simulated
  seconds, resumed by the process's own bare
  :class:`~repro.simulation.events.Wake` at the queue position a
  ``Timeout`` of that delay would take;
* ``yield <Event>`` is an *event wait*: it suspends the process until the
  event triggers, and the event's value is sent back into the generator
  (or its exception raised there);
* ``yield <Gate>`` is a *claim* of a resource slot or a lock side (see
  :class:`~repro.simulation.events.Gate`): granted inline when free on a
  settled instant, otherwise by queueing the same wake where the grant
  goes; ``None`` is sent back.

A :class:`Process` is itself an Event that triggers when the generator
returns, so processes can wait on each other and be joined with ``AllOf``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.simulation.events import Event, Gate, Wake

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simulation.core import Simulator

__all__ = ["Process"]


class Process(Event):
    """A running simulated process wrapping a generator.

    The process starts on the next simulator step after creation.  When the
    generator returns, the process event succeeds with the return value; if
    the generator raises, the process event fails with that exception.  So
    does a bad yield: a negative delay fails it with ``ValueError``, an
    event of another simulator with ``ValueError``, anything that is
    neither a delay, a gate nor an event (``None``, ``str``, ``bool``, a
    numpy scalar) with ``TypeError``.
    """

    __slots__ = ("_generator", "_wake")

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
            # bootstrap event the caller enqueues once for the whole wave;
            # the wake is made on the first delay.
            self._wake = None
            bootstrap.callbacks.append(self._resume)
            return
        # Kick off the process on the next step: a wake queued for now,
        # kept for every delay the process yields later.
        self._wake = wake = Wake(self._resume)
        sim._enqueue_triggered(wake)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    # -- internal stepping ---------------------------------------------------
    def _resume(self, event: Event | Wake) -> None:
        """Advance the generator with ``event``'s outcome until it waits
        (slot access throughout: this runs once per simulated I/O step).

        A delay schedules the wake with the ``sim._schedule`` call a
        ``Timeout`` makes, so both resume at the same ``(time, seq)``.  A
        gate's claim is handed the same wake; granted inline, the loop
        carries on with it as if it had been dispatched.  An event is told
        by its attributes, not ``isinstance``: the wait path makes no
        builtin call.
        """
        generator = self._generator
        while True:
            try:
                if event._ok:
                    target = generator.send(event._value)
                else:
                    event.defuse()
                    target = generator.throw(event._value)
            except StopIteration as stop:
                self._finish(stop.value, None)
                return
            except BaseException as exc:
                self._finish(None, exc)
                return

            cls = type(target)
            if cls is float or cls is int:
                if target < 0.0:
                    self._reject(ValueError(f"delay must be non-negative, got {target}"))
                    return
                wake = self._wake
                if wake is None:
                    wake = self._wake = Wake(self._resume)
                self.sim._schedule(target, wake)
                return
            if cls is Gate:
                wake = self._wake
                if wake is None:
                    wake = self._wake = Wake(self._resume)
                if target.claim(target.owner, wake):
                    event = wake
                    continue
                return
            try:
                callbacks = target.callbacks
                foreign = target.sim is not self.sim
            except AttributeError:
                self._reject(
                    TypeError(
                        f"process {self.name!r} yielded {target!r}; processes must "
                        "yield Event instances, Gates or float delays"
                    )
                )
                return
            if foreign:
                self._reject(ValueError("yielded event belongs to a different simulator"))
                return
            if callbacks is not None:
                callbacks.append(self._resume)
                return
            # Already processed: continue inline with its outcome.
            event = target

    def _reject(self, exc: BaseException) -> None:
        """Fail the process for a bad yield, closing its generator."""
        self._generator.close()
        self._finish(None, exc)

    def _finish(self, value, error: Optional[BaseException]) -> None:
        """Trigger the process with the generator's outcome (``succeed`` /
        ``fail`` inlined: a generator finishes once).  The wake is dropped,
        so no Process <-> Wake cycle outlives a paused collector."""
        self._wake = None
        if error is None:
            self._ok = True
            self._value = value
        else:
            self._ok = False
            self._value = error
        self.sim._enqueue_triggered(self)
