"""Deterministic discrete-event simulation kernel.

This subpackage provides the substrate the rest of :mod:`repro` runs on: a
time-bucket-queue event loop (:class:`~repro.simulation.core.Simulator`),
generator-based simulated processes (:class:`~repro.simulation.process.Process`),
waitable events and their ``AllOf`` join, and shared-resource primitives
(capacity-limited resources, FIFO stores).

The kernel is intentionally SimPy-flavoured so the higher layers read like
ordinary process-interaction simulation code, but it is implemented from
scratch and guarantees *determinism*: same seed, same program, same trace —
ties in time are broken by scheduling order.
"""

from repro.simulation.core import Simulator, StopSimulation
from repro.simulation.events import AllOf, ConditionValue, Event, Timeout
from repro.simulation.process import Process
from repro.simulation.resources import Resource, Store
from repro.simulation.rng import RngRegistry
from repro.simulation.trace import TraceRecord, Tracer

__all__ = [
    "Simulator",
    "StopSimulation",
    "Event",
    "Timeout",
    "AllOf",
    "ConditionValue",
    "Process",
    "Resource",
    "Store",
    "RngRegistry",
    "Tracer",
    "TraceRecord",
]
