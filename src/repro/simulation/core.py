"""The simulator event loop.

:class:`Simulator` owns simulated time and the queue of pending events.
Events are processed in ``(time, sequence)`` order, making runs fully
deterministic: two events due at the same instant are processed in the
order they were scheduled.

The queue is a **time-bucket queue**: a dict ``timestamp -> events in
arrival order`` plus a binary heap of the *distinct* pending timestamps
(plain floats), with the bucket of the current instant kept *live* in a
deque the dispatch loop pops from.  It is exact by construction, with no
sequence number ever materialised:

* within a bucket, append order *is* sequence order;
* no second bucket can appear for the current timestamp while it is
  current — anything scheduled for ``now`` (every triggered event, every
  zero-delay timeout) is appended to the live bucket itself;
* the heap only ever compares distinct floats, so buckets are visited in
  strictly ascending time.

The live bucket running empty *is* the end of the instant: that is where
the flush hook fires and what makes :meth:`Simulator.settled` and
:meth:`Simulator.peek` O(1).  Synchronised waves (thousands of events on a
handful of timestamps) pay two heap operations per *instant* instead of two
per event; DESIGN.md section 6 has the counts.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from math import inf as _INF
from typing import Any, Deque, Dict, Generator, Iterable, List, Optional, Union

from repro.simulation.events import PENDING, AllOf, Event, Timeout
from repro.simulation.process import Process
from repro.simulation.rng import RngRegistry
from repro.simulation.trace import Tracer, global_tracer

__all__ = ["Simulator", "StopSimulation"]


class StopSimulation(Exception):
    """Raised internally to halt :meth:`Simulator.run` early."""


def _raise_stop(event: Event) -> None:
    """Sentinel callback for ``run(until=event)``.

    A module-level function instead of a per-run closure: ``run`` is called
    once per benchmark phase, but the callback travels with the event and a
    fresh closure per call is allocation the hot path does not need.
    """
    raise StopSimulation(event)


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for the simulator's :class:`RngRegistry`.  Every source
        of randomness in a model should draw from ``sim.rng`` streams so a
        run is reproducible from this single value.
    trace:
        When True, a :class:`Tracer` collects structured records that models
        emit via :meth:`record`.
    """

    #: Retired: the heap<->calendar-wheel migrations of the old adaptive
    #: scheduler.  There is one queue now, so this is the constant 0; the
    #: name stays readable because the end-to-end ledger reports it.
    scheduler_switches = 0

    def __init__(self, seed: int = 0, trace: bool = False) -> None:
        self._now: float = 0.0
        #: The live bucket: events due at ``_now``, oldest first.  Never
        #: rebound, so the dispatch loop and ``_enqueue_triggered`` can hold
        #: its bound methods.
        self._live: Deque[Event] = deque()
        #: Future instants: timestamp -> events in arrival order.  A lone
        #: event is stored bare and only its second arrival builds the list:
        #: sparse workloads (one or two events an instant) then pay no list
        #: per event.  No key ever equals ``_now`` (see :meth:`_schedule`).
        self._buckets: Dict[float, Union[Event, List[Event]]] = {}
        #: Binary heap of the keys of ``_buckets``.
        self._times: List[float] = []
        #: ``_enqueue_triggered(event)``: enqueue a just-triggered event for
        #: processing at the current instant (internal API used by events).
        #: It *is* the live bucket's ``append`` — no Python frame at all.
        self._enqueue_triggered = self._live.append
        self._flush: List[Any] = []
        self._running = False
        #: Freelist of recycled fast-lane events (see :meth:`lane_acquire`).
        self._lane_free: List[Event] = []
        #: Time advances so far, i.e. distinct timestamps taken off the
        #: queue (the instant a simulator is created at has no timestamp to
        #: take and is not counted).  Updated when ``run``/``step`` returns.
        self.instants = 0
        #: Events dispatched so far.  ``events_processed / instants`` is how
        #: synchronised a workload is — the factor by which the bucket queue
        #: cuts heap traffic.  Updated when ``run``/``step`` returns.
        self.events_processed = 0
        self.rng = RngRegistry(seed)
        # trace=True gets a private tracer; otherwise fall back to the
        # process-wide tracer when one is installed (see ``--trace-out``).
        self.tracer: Optional[Tracer] = Tracer() if trace else global_tracer()

    # -- time --------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- queue introspection -------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of events waiting in the queue."""
        return len(self._live) + sum(
            len(bucket) if type(bucket) is list else 1
            for bucket in self._buckets.values()
        )

    def peek(self) -> float:
        """Time of the next queued event, or ``inf`` if the queue is empty."""
        if self._live:
            return self._now
        return self._times[0] if self._times else _INF

    def settled(self) -> bool:
        """True when no pending event is scheduled for the current instant.

        This is the guard the metadata op bodies use before eliding a
        resource/lock grant event: when the instant is settled, nothing else
        can observe (or be reordered against) the intermediate grant, so
        continuing inline is indistinguishable from dispatching the grant
        through the queue.  With a foreign event pending at ``now`` they
        fall back to the event-based grant, preserving exact
        ``(time, seq)`` interleaving.

        O(1): the instant is settled exactly when the live bucket is empty.
        """
        return not self._live

    # -- event factories ----------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh pending event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Timeout:
        """Create an event that triggers after ``delay`` seconds."""
        return Timeout(self, delay, value=value, name=name)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Wrap a generator into a running simulated :class:`Process`."""
        return Process(self, generator, name=name)

    def spawn_batch(
        self, generators: Iterable[Generator], name: str = ""
    ) -> List[Process]:
        """Spawn a wave of processes on one shared bootstrap event.

        Event-order identical to calling :meth:`process` in a loop at one
        instant: per-process bootstraps would occupy consecutive queue
        slots and dispatch back-to-back, each resuming its process —
        exactly what one shared bootstrap's callback list replays, in the
        same order, before any event the resumed processes themselves
        scheduled (those arrive later in the queue either way).  What the
        batch saves is the per-process bootstrap :class:`Event` and its
        ``f"{name}:start"`` string build (the queue insertion itself is a
        bare append), which at 100k-process waves is a measurable slice of
        spawn cost.

        All processes share ``name`` (or fall back to their generator's
        ``__name__``), so per-process name formatting is the caller's
        choice, not an obligation.
        """
        bootstrap = Event(self, name=(name + ":start") if name else "batch:start")
        processes = [
            Process(self, generator, name=name, bootstrap=bootstrap)
            for generator in generators
        ]
        if not processes:
            return processes
        bootstrap._ok = True
        bootstrap._value = None
        self._enqueue_triggered(bootstrap)
        return processes

    def lane_acquire(self) -> Event:
        """Take a recycled *fast-lane* event from the freelist.

        A lane event is a plain :class:`Event` whose owner re-arms it for
        successive delays by resetting ``_value`` to ``PENDING``, installing
        its own callback list, and calling :meth:`_schedule` directly — the
        fused-delay mechanism of the storage-client op driver
        (:class:`~repro.daos.client._FastDriver`).  Recycling through the
        simulator-wide freelist means a storm of ops allocates
        O(concurrent ops) events instead of a fresh Timeout per delay.

        The caller owns the event until :meth:`lane_release`; lane events
        must never be exposed to other waiters.
        """
        free = self._lane_free
        if free:
            return free.pop()
        return Event(self, name="fastlane")

    def lane_release(self, event: Event) -> None:
        """Return a lane event taken with :meth:`lane_acquire` to the freelist."""
        self._lane_free.append(event)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that triggers when all of ``events`` have succeeded."""
        return AllOf(self, events)

    # -- scheduling (internal API used by events) ---------------------------
    def _schedule(self, delay: float, event: Event) -> None:
        """Enqueue ``event`` to be processed at ``now + delay``."""
        now = self._now
        when = now + delay
        if when == now:
            # Zero (or absorbed) delay: the current instant's bucket is the
            # live one.  Giving ``now`` a second bucket would dispatch this
            # event after later appends to the live bucket.
            self._live.append(event)
            return
        buckets = self._buckets
        bucket = buckets.setdefault(when, event)
        if bucket is event:
            heappush(self._times, when)  # first arrival: a new timestamp
        elif type(bucket) is list:
            bucket.append(event)
        else:
            buckets[when] = [bucket, event]

    def request_flush(self, callback: Any) -> None:
        """Run ``callback()`` once at the end of the current instant.

        The callback fires after every event scheduled for the current
        simulated time has been processed — i.e. just before time would
        advance (or the queue empties, or a ``run`` deadline is reached).
        Callbacks run in request order and are one-shot; a callback may
        request further flushes, which fold into the same instant if no
        intervening event moved time forward.

        This is how the flow network coalesces an entire instant's worth of
        arrivals and departures into a single rate solve: zero-duration
        intermediate states are unobservable, so batching is free.
        """
        self._flush.append(callback)

    # -- tracing -------------------------------------------------------------
    def record(self, kind: str, **fields: Any) -> None:
        """Emit a trace record if tracing is enabled (no-op otherwise)."""
        if self.tracer is not None:
            self.tracer.record(self._now, kind, fields)

    # -- execution -----------------------------------------------------------
    def step(self) -> None:
        """Process the single next event in the queue.

        Raises ``IndexError`` if the queue is empty.  Dispatch order is that
        of :meth:`run`: a loop of ``step()`` calls and one ``run()`` invoke
        the same callbacks in the same sequence.
        """
        if not self._live and not self._times:
            raise IndexError("step() on an empty event queue")
        self._dispatch(single=True)

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the event queue is exhausted;
        * a number — run until simulated time reaches that instant;
        * an :class:`Event` — run until the event is processed, returning its
          value (or raising its exception if it failed).  An event that is
          already processed is answered without dispatching anything.
        """
        if self._running:
            raise RuntimeError("simulator is already running (no re-entrant run())")
        self._running = True
        try:
            if until is None:
                self._dispatch()
                return None
            if isinstance(until, Event):
                event = until
                if event.callbacks is not None:
                    event.callbacks.append(_raise_stop)
                    try:
                        self._dispatch()
                    except StopSimulation as stop:
                        event = stop.args[0]
                    else:
                        raise RuntimeError(
                            f"simulation ran out of events before {until!r} triggered"
                        )
                if event._ok:
                    return event._value
                event.defuse()
                raise event._value
            # numeric deadline
            deadline = float(until)
            if deadline < self._now:
                raise ValueError(
                    f"until={deadline} is in the past (now={self._now})"
                )
            self._dispatch(deadline)
            self._now = deadline
            return None
        finally:
            self._running = False

    def _run_flush(self) -> None:
        """Run (and clear) the flush callbacks requested so far."""
        flush = self._flush
        callbacks = flush[:]
        del flush[:]
        for callback in callbacks:
            callback()

    def _dispatch(self, deadline: float = _INF, single: bool = False) -> None:
        """Drain the queue: up to ``deadline``, or one event if ``single``.

        The one dispatch loop.  Everything it touches per event is a local:
        one bound-method call per event adds up over the tens of millions of
        events a paper-scale run processes.  The live bucket is popped from
        the left, so a processed event is released at once rather than at
        the end of its instant, and an exception leaving a callback
        (``run(until=event)`` stops this way) leaves the rest of the bucket
        queued, in order, for the next call.
        """
        live = self._live
        popleft = live.popleft
        flush = self._flush
        times = self._times
        pop_bucket = self._buckets.pop
        events = instants = 0
        try:
            while True:
                if not live:
                    # End of the current instant.
                    if flush:
                        # One-shot callbacks, before time advances (or the
                        # run ends); whatever they trigger for ``now``
                        # reopens the instant.
                        self._run_flush()
                        continue
                    if not times or times[0] > deadline:
                        return
                    when = heappop(times)
                    self._now = when
                    instants += 1
                    event = pop_bucket(when)
                    if type(event) is list:
                        live.extend(event)
                        event = popleft()
                    # else a lone event: it never passes through ``live``,
                    # which stays empty — the instant reads as settled to
                    # its callbacks, as it should.
                else:
                    event = popleft()
                events += 1

                if event._value is PENDING:
                    # A time-scheduled event (Timeout) firing now: assume
                    # its value.
                    event._value = event._delayed_value

                callbacks = event.callbacks
                event.callbacks = None
                assert callbacks is not None, "event processed twice"
                for callback in callbacks:
                    callback(event)

                if not event._ok and not event._defused:
                    # Nobody handled the failure: surface it rather than
                    # dropping it.
                    raise event._value

                if single:
                    while flush and not live:
                        self._run_flush()
                    return
        finally:
            self.instants += instants
            self.events_processed += events
