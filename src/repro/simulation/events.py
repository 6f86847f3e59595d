"""Waitable events for the simulation kernel.

An :class:`Event` is the unit of synchronisation: processes ``yield`` events
and are resumed when the event is *triggered*.  :class:`Timeout` is an event
pre-scheduled to trigger after a delay.  :class:`AllOf` joins a set of
events (a fork/join barrier), collecting their values in a
:class:`ConditionValue`.  A :class:`Wake` is not an event at all: a bare
queue entry that resumes one owner, with nothing to wait on.  A
:class:`Gate` is not one either: a claim point of a resource or lock that
a process yields, and that grants by queueing the process's own wake.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simulation.core import Simulator

__all__ = [
    "PENDING",
    "Event",
    "Timeout",
    "AllOf",
    "ConditionValue",
    "Gate",
    "Wake",
]


class _PendingType:
    """Sentinel for "event has no value yet"."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<PENDING>"


PENDING = _PendingType()


class Event:
    """A one-shot waitable occurrence.

    Lifecycle: *pending* -> *triggered* (``succeed``/``fail``) -> *processed*
    (callbacks run by the simulator).  Triggering twice is an error; waiting
    on an already-processed event resumes the waiter immediately on the next
    simulator step.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused", "name")

    #: Value a time-scheduled event (Timeout) assumes when it fires; the
    #: simulator copies it into ``_value`` when popping a still-pending event
    #: from the queue, so a Timeout does not read as *triggered* before its
    #: due time.
    _delayed_value: Any = None

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        #: Callbacks run when the event is processed; ``None`` once processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok = True
        self._defused = False

    # -- state inspection --------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not be processed yet)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if the event is still pending."""
        if self._value is PENDING:
            raise RuntimeError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.sim._enqueue_triggered(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Any process waiting on the event will have ``exception`` raised at
        its ``yield``.  If nothing ever waits, the simulator re-raises the
        exception at the end of the step (unless :meth:`defuse` was called),
        so failures cannot pass silently.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() expects an exception, got {exception!r}")
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.sim._enqueue_triggered(self)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so the simulator will not re-raise."""
        self._defused = True

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed.

        If the event is already processed the callback is invoked
        immediately (synchronously).
        """
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:
        state = (
            "processed" if self.processed else "triggered" if self.triggered else "pending"
        )
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event that triggers ``delay`` simulated seconds after creation."""

    __slots__ = ("delay", "_delayed_value")

    def __init__(self, sim: "Simulator", delay: float, value: Any = None, name: str = "") -> None:
        if delay < 0:
            raise ValueError(f"timeout delay must be non-negative, got {delay}")
        # ``Event.__init__`` inlined.  The package times its own wake-ups
        # with a bare Wake (a process delay, a flow-network completion);
        # this is what ``Simulator.timeout`` builds for its callers.
        self.sim = sim
        self.name = name
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self.delay = delay
        self._delayed_value = value
        sim._schedule(delay, self)


class Wake:
    """A bare queue entry: the simulator runs ``wake.fire(wake)`` when due.

    No callback list, PENDING swap or failure check -- only "resume this
    owner".  The owner schedules it with ``sim._schedule(delay, wake)``
    (at most once at a time); ``fire`` reads it like a processed event
    that succeeded with ``None``.  A process owns one for its delays and
    grants; a flow network arms a fresh one per solve and drops one a
    later solve superseded by identity.
    """

    __slots__ = ("fire",)

    _ok = True
    _value = None

    def __init__(self, fire: Callable[["Wake"], None]) -> None:
        self.fire = fire


class Gate:
    """A claim point: one slot of a resource, or one side of a lock.

    A gate is built once, with its owner, and a process takes what it
    guards with ``yield gate``.  ``Process._resume`` then calls
    ``gate.claim(gate.owner, wake)`` with the process's own :class:`Wake`,
    and the claim gives the grant the queue position of an event
    triggered when the grant is made:

    * free on a settled instant (the live bucket is empty): taken, and
      ``claim`` returns True -- the process continues inline, with no
      queue entry, since nothing else at this instant could observe the
      grant;
    * free but unsettled: taken, and the wake is appended to the live
      bucket, as ``Event.succeed`` appends an event;
    * busy: the wake joins the owner's FIFO of waiters, and the release
      that hands the grant over appends it to the live bucket.

    In the last two cases ``claim`` returns False and the process waits.
    The owner is released with its own method (``Resource.release``,
    ``RWLock.release_read`` / ``release_write``).
    """

    __slots__ = ("owner", "claim")

    def __init__(self, owner: Any, claim: Callable[[Any, "Wake"], bool]) -> None:
        self.owner = owner
        self.claim = claim


class ConditionValue:
    """Ordered mapping of the events an :class:`AllOf` joined, with values.

    Behaves like a read-only dict keyed by the original :class:`Event`
    objects, preserving the order events were given to the condition.
    """

    __slots__ = ("events",)

    def __init__(self, events: List[Event]) -> None:
        self.events = events

    def __getitem__(self, event: Event) -> Any:
        if event not in self.events:
            raise KeyError(repr(event))
        return event.value

    def __contains__(self, event: Event) -> bool:
        return event in self.events

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def keys(self) -> List[Event]:
        return list(self.events)

    def values(self) -> List[Any]:
        return [e.value for e in self.events]

    def items(self) -> List[tuple]:
        return [(e, e.value) for e in self.events]

    def todict(self) -> dict:
        return dict(self.items())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConditionValue):
            return self.todict() == other.todict()
        if isinstance(other, dict):
            return self.todict() == other
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ConditionValue {self.todict()!r}>"


class AllOf(Event):
    """Event triggered when *all* constituent events have succeeded.

    A failing constituent event fails the whole condition with its
    exception; constituents failing after that are defused, since the
    condition has already reported a failure.
    """

    __slots__ = ("_events", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.sim is not sim:
                raise ValueError("all events of a condition must share a simulator")

        if not self._events:
            self.succeed(ConditionValue([]))
            return
        # Inlined add_callback: conditions over 100k events are built in
        # one go at storm scale, so the per-event method call matters.
        check = self._check
        for event in self._events:
            callbacks = event.callbacks
            if callbacks is None:
                check(event)
            else:
                callbacks.append(check)

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            if not event._ok:
                event.defuse()
            return
        self._count += 1
        if not event._ok:
            event.defuse()
            self.fail(event.value)
        elif self._count >= len(self._events):
            # Every constituent has been processed, so each has its value.
            self.succeed(ConditionValue(self._events))
