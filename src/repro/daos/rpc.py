"""The explicit RPC layer of the DAOS client: requests, completions, middleware.

A :class:`~repro.daos.client.DaosClient` operation is materialised as a
:class:`Request` — op kind, target, payload size, and a *re-invocable* body
generator — and run through a chain of :class:`Middleware` stages around
the body.  This mirrors the request pipeline of the real DAOS client
library (``daos_rpc``/CaRT), where every API call builds an RPC descriptor
that passes through registered callbacks on its way to the wire.

The middleware chain is where cross-cutting concerns live:

* :class:`TracingMiddleware` — structured spans into the simulator's
  :class:`~repro.simulation.trace.Tracer` (no-op unless tracing is enabled);
* :class:`FaultInjectionMiddleware` — deterministic, seeded fault schedule
  raising :class:`~repro.daos.errors.SimulatedFaultError` *before* the body
  executes, so injected failures never leave partial state behind;
* :class:`PoolMapRefreshMiddleware` — refetch the pool map and re-route
  after a :class:`~repro.daos.errors.TargetDownError` (health enabled);
* :class:`RetryMiddleware` — retry with exponential backoff, re-invoking the
  request body (possible precisely because a Request carries a factory, not
  a generator instance).

Op counts and latencies are not a stage: the client's op driver keeps them
(``DaosClient._launch``), outside every stage, so an op counts once and its
latency covers every retry.

A ``Request.body`` and every stage's ``handle`` speak the client's *leg
dialect*: ``yield <float>`` is a delay, ``yield <Event>`` a wait.  The
composed chain is one generator the client's pooled driver runs
(``DaosClient._launch_request``), the same interpreter that runs a bare
client's bodies without any Request.

The default stages (tracing, disabled) add no simulated events, so the
blocking call path stays bit-identical to the pre-RPC-layer client — the
golden digests in ``tests/bench/test_determinism.py`` are the contract.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Generator,
    Iterable,
    List,
    Optional,
)

from repro.daos.errors import SimulatedFaultError, TargetDownError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.daos.client import DaosClient

__all__ = [
    "DATA_OPS",
    "Request",
    "Completion",
    "OpStats",
    "Middleware",
    "TracingMiddleware",
    "FaultInjectionMiddleware",
    "PoolMapRefreshMiddleware",
    "RetryMiddleware",
    "compose_chain",
    "merge_op_stats",
]

#: Ops that move bulk field bytes; everything else is a metadata RPC.  The
#: split drives the metadata-vs-data rollup of the RPC breakdown report.
DATA_OPS = frozenset({"array_write", "array_read"})


@dataclass(slots=True)
class Request:
    """One client RPC: op kind, routing hints, and a re-invocable body.

    ``body`` is a zero-argument factory returning a *fresh* generator that
    performs the op when driven — retry middleware re-invokes it, so bodies
    must not close over partially-consumed state.
    """

    op: str
    body: Callable[[], Generator]
    #: Lead/servicing target index when known at build time (``None`` for
    #: pool-service ops, which have no target).
    target: Optional[int] = None
    #: Payload bytes moved by the op (0 for pure metadata RPCs).
    nbytes: int = 0
    #: For a vectorized multi-op submit (``DaosClient.request_multi``):
    #: the sub-requests this request carries, in execution order.  ``None``
    #: for ordinary single-op requests.  Middleware may introspect the
    #: tuple — QoS admission, for one, meters a token per covered sub-op
    #: so batching cannot launder rate limits.
    subrequests: Optional[tuple] = None

    @property
    def is_data(self) -> bool:
        return self.op in DATA_OPS

    @property
    def kind(self) -> str:
        """``"data"`` or ``"metadata"`` — the §6.3.1 op taxonomy."""
        return "data" if self.is_data else "metadata"


@dataclass(slots=True)
class Completion:
    """Outcome of one asynchronous submission reaped from an event queue."""

    op: str
    value: Any
    error: Optional[BaseException]
    submitted: float
    completed: float
    request: Optional[Request] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def latency(self) -> float:
        return self.completed - self.submitted

    def result(self) -> Any:
        """The op's return value; re-raises the op's error if it failed."""
        if self.error is not None:
            raise self.error
        return self.value


@dataclass(slots=True)
class OpStats:
    """Latency/count accumulator for one op kind."""

    count: int = 0
    errors: int = 0
    retries: int = 0
    faults_injected: int = 0
    total_time: float = 0.0
    min_time: float = float("inf")
    max_time: float = 0.0
    total_bytes: int = 0

    def observe(self, elapsed: float, nbytes: int, ok: bool) -> None:
        self.count += 1
        if not ok:
            self.errors += 1
        self.total_time += elapsed
        if elapsed < self.min_time:
            self.min_time = elapsed
        if elapsed > self.max_time:
            self.max_time = elapsed
        self.total_bytes += nbytes

    @property
    def mean_time(self) -> float:
        return self.total_time / self.count if self.count else 0.0

    def merge(self, other: "OpStats") -> None:
        self.count += other.count
        self.errors += other.errors
        self.retries += other.retries
        self.faults_injected += other.faults_injected
        self.total_time += other.total_time
        self.min_time = min(self.min_time, other.min_time)
        self.max_time = max(self.max_time, other.max_time)
        self.total_bytes += other.total_bytes

    def as_dict(self) -> Dict[str, float]:
        """JSON-safe snapshot (``min_time`` of ``inf`` round-trips fine —
        Python's json module emits and parses ``Infinity``)."""
        return {
            "count": self.count,
            "errors": self.errors,
            "retries": self.retries,
            "faults_injected": self.faults_injected,
            "total_time": self.total_time,
            "min_time": self.min_time,
            "max_time": self.max_time,
            "total_bytes": self.total_bytes,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "OpStats":
        return cls(
            count=int(data["count"]),
            errors=int(data["errors"]),
            retries=int(data["retries"]),
            faults_injected=int(data["faults_injected"]),
            total_time=data["total_time"],
            min_time=data["min_time"],
            max_time=data["max_time"],
            total_bytes=int(data["total_bytes"]),
        )


def merge_op_stats(stats_dicts: Iterable[Dict[str, OpStats]]) -> Dict[str, OpStats]:
    """Merge per-client ``op_metrics`` dicts into one aggregate view."""
    merged: Dict[str, OpStats] = {}
    for stats in stats_dicts:
        for op, entry in stats.items():
            slot = merged.get(op)
            if slot is None:
                merged[op] = slot = OpStats()
            slot.merge(entry)
    return merged


class Middleware:
    """Base middleware: pass the request down the chain unchanged.

    ``handle`` is a leg-dialect generator the client's op driver runs;
    ``call`` invokes the rest of the chain (terminating at
    ``request.body()``) and may be invoked more than once (retries).

    ``bind`` is the composition hook: it folds this middleware over the
    next handler and returns the callable the chain invokes per request.
    Middlewares that can decide *per call* that they have nothing to do
    (e.g. tracing while no tracer is installed) override it to return the
    inner generator directly, adding zero frames to the hot path.
    """

    def handle(self, client: "DaosClient", request: Request, call):
        result = yield from call(client, request)
        return result

    def bind(self, nxt) -> Callable[["DaosClient", Request], Generator]:
        def handler(client: "DaosClient", request: Request) -> Generator:
            return self.handle(client, request, nxt)

        return handler


class TracingMiddleware(Middleware):
    """Emits one ``rpc`` span per attempt into the simulator's tracer.

    Free when tracing is disabled: ``bind`` checks ``tracer is None`` per
    call and delegates straight to the rest of the chain without inserting
    a generator frame of its own.
    """

    def bind(self, nxt) -> Callable[["DaosClient", Request], Generator]:
        handle = self.handle

        def handler(client: "DaosClient", request: Request) -> Generator:
            if client.sim.tracer is None:
                return nxt(client, request)
            return handle(client, request, nxt)

        return handler

    def handle(self, client: "DaosClient", request: Request, call):
        sim = client.sim
        start = sim.now
        try:
            result = yield from call(client, request)
        except BaseException as exc:
            sim.record(
                "rpc",
                op=request.op,
                op_kind=request.kind,
                target=request.target,
                nbytes=request.nbytes,
                start=start,
                end=sim.now,
                status=type(exc).__name__,
            )
            raise
        sim.record(
            "rpc",
            op=request.op,
            op_kind=request.kind,
            target=request.target,
            nbytes=request.nbytes,
            start=start,
            end=sim.now,
            status="ok",
        )
        return result


class FaultInjectionMiddleware(Middleware):
    """Deterministic seeded fault schedule (§7's instabilities, on demand).

    Whether attempt ``n`` of a client faults is a pure function of the
    schedule seed, the client's address, the op kind, and the client's RPC
    sequence number — independent of wall clock and of every other random
    stream, so a faulty run is exactly reproducible.  Faults fire *before*
    the body runs (modelling an RPC lost on the wire): one message latency
    is charged, then :class:`SimulatedFaultError` is raised, leaving all
    functional state untouched — which is what makes retry safe.
    """

    def __init__(self, config) -> None:
        self.config = config
        self._sequence = 0

    def _faults(self, client: "DaosClient", request: Request, sequence: int) -> bool:
        config = self.config
        if config.ops and request.op not in config.ops:
            return False
        token = (
            f"{config.seed}/{client.address.node}.{client.address.socket}"
            f"/{request.op}/{sequence}"
        )
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        fraction = int.from_bytes(digest[:8], "little") / float(1 << 64)
        return fraction < config.rate

    def handle(self, client: "DaosClient", request: Request, call):
        sequence = self._sequence
        self._sequence += 1
        config = self.config
        under_cap = config.max_faults is None or client.faults_injected < config.max_faults
        if under_cap and self._faults(client, request, sequence):
            client.faults_injected += 1
            client.op_metrics[request.op].faults_injected += 1
            client.sim.record(
                "rpc_fault", op=request.op, target=request.target, sequence=sequence
            )
            yield client._message_latency  # the round trip that never completed
            raise SimulatedFaultError(
                f"injected fault on {request.op} (sequence {sequence})"
            )
        result = yield from call(client, request)
        return result


class PoolMapRefreshMiddleware(Middleware):
    """Health-aware retry: refetch the pool map on DER_TGT_DOWN, then re-route.

    A :class:`TargetDownError` means the op addressed a target the server
    knows is gone — either the client's cached view is stale (the common
    case right after an engine failure) or the data is genuinely
    unreachable.  The middleware refetches the pool map and retries the op
    (re-invoking the body re-runs target selection against the fresh view)
    *only if* the fetched map is newer than the view the client held;
    otherwise the error is surfaced, because retrying against the same map
    would loop forever on a permanently lost object.  The map version is
    strictly increasing, so the retry loop is bounded by the number of
    health transitions in the run.
    """

    def handle(self, client: "DaosClient", request: Request, call):
        while True:
            try:
                result = yield from call(client, request)
                return result
            except TargetDownError:
                refreshed = yield from client._refresh_pool_map()
                if not refreshed:
                    raise
                client.op_metrics[request.op].retries += 1
                client.sim.record(
                    "rpc_map_refresh",
                    op=request.op,
                    map_version=client._map_view.version,
                )


class RetryMiddleware(Middleware):
    """Retry-with-backoff on :class:`SimulatedFaultError`.

    Sits outside fault injection (and the body), so it recovers both
    injected faults and genuinely raised simulated instabilities.  Backoff
    is exponential from ``policy.backoff_base``; the final failure is
    re-raised once ``policy.max_attempts`` is exhausted.
    """

    def __init__(self, policy) -> None:
        self.policy = policy

    def handle(self, client: "DaosClient", request: Request, call):
        policy = self.policy
        attempt = 1
        while True:
            try:
                result = yield from call(client, request)
                return result
            except SimulatedFaultError:
                if attempt >= policy.max_attempts:
                    raise
                client.op_metrics[request.op].retries += 1
                client.sim.record("rpc_retry", op=request.op, attempt=attempt)
                backoff = policy.backoff_base * policy.backoff_factor ** (attempt - 1)
                yield backoff
                attempt += 1


def compose_chain(
    middlewares: List[Middleware],
) -> Callable[["DaosClient", Request], Generator]:
    """Fold a middleware list (outermost first) into one callable.

    The returned callable produces the generator that
    ``DaosClient._launch_request`` runs on a driver; the innermost stage
    invokes ``request.body()``.
    """

    def terminal(client: "DaosClient", request: Request) -> Generator:
        return request.body()

    handler = terminal
    for middleware in reversed(middlewares):
        handler = middleware.bind(handler)
    return handler
