"""Event queues: the ``daos_eq_create`` / ``daos_eq_poll`` analogue.

Real DAOS is natively asynchronous: every ``daos_*`` call takes an optional
``daos_event_t`` bound to an event queue, and callers overlap operations by
launching several and reaping completions with ``daos_eq_poll``.  The
paper's follow-up work (Manubens et al., arXiv:2404.03107) shows that this
overlap — index updates concurrent with array transfers — is the key lever
for NWP write throughput.

:class:`EventQueue` provides that API shape over the discrete-event
simulator: ``launch``/``submit`` start an operation as a simulation process,
``poll`` suspends the caller until completions are available, ``test`` reaps
without blocking.  A submitted :class:`~repro.daos.rpc.Request` runs on the
client's op driver like a blocking call; the process only waits on it, so
the op starts at the process's first step — one dispatch after the submit,
behind whatever the submitter's instant already queued.  Completions carry
the op's value *or* its error (like ``daos_event_t.ev_error``); failures
parked in the queue are defused so the simulator does not crash before the
caller reaps them — but callers must reap and check, exactly as with the
real API.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, List, Optional

from repro.daos.rpc import Completion, Request
from repro.simulation.events import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.daos.client import DaosClient
    from repro.simulation.core import Simulator
    from repro.simulation.process import Process

__all__ = ["EventQueue"]


class EventQueue:
    """A queue of in-flight asynchronous operations over the simulator.

    Completions are appended in simulation-completion order (deterministic:
    the kernel breaks time ties by scheduling sequence), so polling the same
    workload twice yields identical completion streams.
    """

    def __init__(self, sim: "Simulator", name: str = "eq") -> None:
        self.sim = sim
        self.name = name
        self._inflight: Dict["Process", str] = {}
        self._completed: List[Completion] = []
        #: Poll wakeup: triggered by the next completion.  Pollers wait on
        #: this instead of the in-flight processes themselves, so a *failed*
        #: op never throws into the poller — its error is parked as a
        #: Completion until reaped, like ``daos_event_t.ev_error``.
        self._wakeup: Optional[Event] = None

    # -- introspection -------------------------------------------------------
    @property
    def n_inflight(self) -> int:
        """Operations launched but not yet completed."""
        return len(self._inflight)

    @property
    def n_ready(self) -> int:
        """Completions waiting to be reaped."""
        return len(self._completed)

    def __len__(self) -> int:
        return self.n_inflight + self.n_ready

    # -- submission ----------------------------------------------------------
    def launch(self, generator: Generator, op: str = "async_op",
               request: Optional[Request] = None) -> "Process":
        """Start ``generator`` as an in-flight async operation.

        Returns the underlying :class:`Process` (itself an event, so callers
        may also wait on it directly).  The completion — value or error — is
        parked in the queue until reaped via :meth:`poll`/:meth:`test`.
        """
        submitted = self.sim.now
        process = self.sim.process(generator, name=f"{self.name}:{op}")
        self._inflight[process] = op

        def _on_done(event, op=op, request=request, submitted=submitted, process=process):
            if event._ok:
                value, error = event._value, None
            else:
                event.defuse()  # parked in the queue; reaped by poll()/test()
                value, error = None, event.value
            self._inflight.pop(process, None)
            self._completed.append(
                Completion(
                    op=op,
                    value=value,
                    error=error,
                    submitted=submitted,
                    completed=self.sim.now,
                    request=request,
                )
            )
            wakeup = self._wakeup
            if wakeup is not None and not wakeup.triggered:
                wakeup.succeed()

        process.add_callback(_on_done)
        return process

    def submit(self, client: "DaosClient", request: Request) -> "Process":
        """Submit a built :class:`Request` through ``client``'s middleware stages."""
        return self.launch(_run(client, request), op=request.op, request=request)

    # -- reaping -------------------------------------------------------------
    def test(self) -> List[Completion]:
        """Reap every ready completion without blocking (``daos_eq_test``)."""
        ready, self._completed = self._completed, []
        return ready

    def poll(self, min_completions: int = 1):
        """Suspend until ``min_completions`` are ready; reap and return them.

        A generator to be driven with ``yield from`` inside a simulation
        process (``daos_eq_poll`` with an infinite timeout).  Returns
        immediately — possibly with fewer completions — once nothing is left
        in flight, like a poll on a draining queue.
        """
        while len(self._completed) < min_completions and self._inflight:
            yield self._next_wakeup()
        return self.test()

    def wait_all(self):
        """Suspend until every in-flight op completes; reap everything."""
        while self._inflight:
            yield self._next_wakeup()
        return self.test()

    def _next_wakeup(self) -> Event:
        if self._wakeup is None or self._wakeup.triggered:
            self._wakeup = Event(self.sim, name=f"{self.name}:wakeup")
        return self._wakeup

    @staticmethod
    def raise_first_error(completions: List[Completion]) -> List[Completion]:
        """Re-raise the first failed completion's error, else pass through."""
        for completion in completions:
            if completion.error is not None:
                raise completion.error
        return completions

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<EventQueue {self.name!r} {len(self._inflight)} inflight, "
            f"{len(self._completed)} ready>"
        )


def _run(client: "DaosClient", request: Request):
    """Process body of one submission: launch ``request``, wait for its driver.

    Launching inside the process, not in :meth:`EventQueue.submit`, is what
    defers the op's first step to the process's bootstrap event: launched in
    ``submit``, it would run synchronously inside the submitter's step, ahead
    of every event already queued at this instant.
    """
    return (yield client._launch_request(request))
