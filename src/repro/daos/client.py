"""The per-process DAOS client API.

Every benchmark or application process owns a :class:`DaosClient` bound to
its client socket address.  All operations are *generators* meant to be
driven with ``yield from`` inside a simulation process; they charge provider
RPC latency, per-target service time, object serialisation, and bulk data
flows, then apply the functional state change and return the result.

Every operation can be materialised as a :class:`~repro.daos.rpc.Request`
(op kind, target, payload size, re-invocable body) and run through the
client's middleware stages — tracing always, pool-map refresh when health
is on, fault injection and retry when
:class:`~repro.config.FaultInjectionConfig` enables them, QoS admission
when a serving tenant installs it.  ``request_*`` builders expose the
Request objects directly so callers can submit them asynchronously through
an :class:`~repro.daos.eq.EventQueue` (``client.eq_create()``), the
``daos_eq_*`` idiom the pipelined Field I/O path uses.  The default stages
add no simulated events.

**One body per op, one interpreter.**  Each op's timeline is written once,
as a ``_do_*`` generator in the *leg dialect*: ``yield <float>`` is a
delay, ``yield <Event>`` is a wait.  Every public op ends in ``yield
<driver>``: a pooled :class:`_FastDriver` runs the body — or the stage
chain wrapped around it, whose stages speak the same dialect — counts the
op at launch and observes it at finish.  A *bare* client (no stage but
tracing, no tracer installed) launches its hot metadata bodies without
building a Request at all.  Only the per-shard helpers ``_shard_io`` and
``_target_service`` stay Event-yielding generators: they run as spawned
simulation processes.

Connection/handle caching follows the paper (§5.2: "Pool and container
connections in a process are cached"): repeated ``container_open`` calls for
the same container are free after the first.
"""

from __future__ import annotations

import hashlib
import uuid as uuid_module
from typing import Dict, List, Optional, Tuple, Union

from repro.daos.array_object import ArrayObject
from repro.daos.container import Container
from repro.daos.eq import EventQueue
from repro.daos.errors import (
    InvalidArgumentError,
    KeyNotFoundError,
    TargetDownError,
)
from repro.daos.kv import KeyValueObject
from repro.daos.objclass import OC_S1, ObjectClass
from repro.daos.oid import ObjectId
from repro.daos.payload import BytesPayload, Payload
from repro.daos.placement import shard_layout
from repro.daos.pool import Pool
from repro.daos.rpc import (
    FaultInjectionMiddleware,
    Middleware,
    OpStats,
    PoolMapRefreshMiddleware,
    Request,
    RetryMiddleware,
    TracingMiddleware,
    compose_chain,
)
from repro.daos.system import DaosSystem
from repro.network.fabric import NodeSocket
from repro.simulation.events import PENDING, Event

__all__ = ["DaosClient", "default_middleware"]

ContainerRef = Union[uuid_module.UUID, str]

#: dkey -> hash-prefix cache shared by all clients.  Benchmarks hammer a
#: small keyset with puts then gets (often thousands of ops per key), and
#: the sha256 is by far the dominant cost of placement; the raw 32-bit
#: prefix is cached (not the target index) so it stays valid across objects
#: with different layouts.  Cleared when it grows past the bound rather than
#: LRU-tracked (re-hashing after a clear is correct, just slower once).
_DKEY_HASH_CACHE: Dict[bytes, int] = {}
_DKEY_HASH_CACHE_BOUND = 1 << 16


def default_middleware(config) -> List[Middleware]:
    """The standard stages for a :class:`DaosServiceConfig`, outermost first.

    Metrics is not a stage: the driver counts an op when it launches and
    observes it when it finishes, outside every stage, so an op counts once
    and its latency covers retries.  Retry wraps tracing (each attempt gets
    its own span); fault injection sits innermost, directly in front of the
    op body.
    """
    chain: List[Middleware] = []
    fault = config.fault_injection
    if config.health.enabled:
        # Health-aware retry: a TargetDownError means the client's cached
        # pool map is (possibly) stale — refetch it and re-route the op.
        # Sits outermost (the refresh round trips count toward the op's
        # observed latency) and outside plain retry/fault injection.
        chain.append(PoolMapRefreshMiddleware())
    if fault.enabled and config.retry.max_attempts > 1:
        chain.append(RetryMiddleware(config.retry))
    chain.append(TracingMiddleware())
    if fault.enabled:
        chain.append(FaultInjectionMiddleware(fault))
    return chain


#: The composed chain of every default client whose config enables neither
#: fault injection nor health, i.e. whose stages are tracing alone.  Tracing
#: keeps no per-client state, so those clients share this one chain: an IOR
#: wave builds one client per rank and composes nothing per client.
_BARE_CHAIN = compose_chain([TracingMiddleware()])


class _FastDriver(Event):
    """The interpreter of every op: runs one leg-dialect generator flat.

    The driver *is* the event the calling process waits on: the public op
    method returns ``(yield driver)``, so the whole op costs the caller one
    suspension instead of one per simulated wait.  The generator — an op
    body, or the client's stage chain around one — may yield

    * a ``float``/``int`` — a fused delay: the driver re-arms its recycled
      lane event (``Simulator.lane_acquire``) for that delay, replacing a
      fresh ``Timeout`` allocation per wait;
    * an :class:`~repro.simulation.events.Event` — e.g. a contended lock or
      resource grant, or a bulk transfer: the driver waits on it exactly
      like ``Process._step`` would.

    When the generator returns, the driver observes the op's latency and
    bytes on the accumulator ``_launch`` counted it in, and finishes
    *synchronously* inside the final event's callback slot — no completion
    event travels through the queue, so the caller resumes at the same
    ``(time, seq)`` boundary a ``yield from`` of the body would resume at.
    Failures are observed with ``ok=False`` and thrown into the caller at
    its yield (or re-raised synchronously from ``DaosClient._launch`` when
    the generator fails before its first wait).

    Drivers and their lane events are pooled (per system / per simulator),
    so a storm of ops allocates O(concurrent ops) objects rather than
    several events per op -- also when each op comes from a short-lived
    client of its own, as in an IOR wave.
    """

    __slots__ = ("_pool", "_body", "_lane", "_cbs", "_entry", "_nbytes", "_start")

    def __init__(self, sim, pool: List["_FastDriver"]) -> None:
        self.sim = sim
        self.name = "fastop"
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        #: The system-wide free-list this driver returns to when it finishes.
        self._pool = pool
        #: Persistent one-element callback list installed on the lane event
        #: each time it is re-armed (the dispatcher nulls ``event.callbacks``
        #: but never mutates the list itself).
        self._cbs = [self._advance]
        self._body = None
        self._lane = None
        self._entry = None
        self._nbytes = 0
        self._start = 0.0

    def _advance(self, event: Event) -> None:
        """Resume the body with ``event``'s outcome (Process._resume's job)."""
        if event._ok:
            self._drive(event._value, False)
        else:
            event.defuse()
            self._drive(event._value, True)

    def _drive(self, payload, as_exception: bool) -> None:
        """Advance the body until it suspends on a wait or finishes."""
        body = self._body
        sim = self.sim
        while True:
            try:
                if as_exception:
                    target = body.throw(payload)
                else:
                    target = body.send(payload)
            except StopIteration as stop:
                self._finish(stop.value, None)
                return
            except BaseException as exc:
                self._finish(None, exc)
                return

            cls = type(target)
            if cls is float or cls is int:
                # Fused delay: re-arm the recycled lane event.
                lane = self._lane
                lane._value = PENDING
                lane.callbacks = self._cbs
                sim._schedule(target, lane)
                return
            # An Event (contended grant, bulk transfer, ...): wait like a
            # process would — or continue inline if it is already processed.
            callbacks = target.callbacks
            if callbacks is None:
                if target._ok:
                    payload = target._value
                    as_exception = False
                else:
                    target.defuse()
                    payload = target._value
                    as_exception = True
                continue
            callbacks.append(self._advance)
            return

    def _finish(self, value, error: Optional[BaseException]) -> None:
        """Observe the op, then complete synchronously (no queue round trip)."""
        sim = self.sim
        self._entry.observe(sim._now - self._start, self._nbytes, ok=error is None)
        if error is None:
            self._ok = True
            self._value = value
        else:
            self._ok = False
            self._value = error
        callbacks = self.callbacks
        self.callbacks = None
        for callback in callbacks:
            callback(self)
        # Recycle only after the caller resumed: a nested op launched
        # inside the callback must not grab this driver mid-finish.
        sim.lane_release(self._lane)
        self._lane = None
        self._body = None
        self._entry = None
        self._pool.append(self)
        if error is not None and not callbacks and not self._defused:
            # Nobody was waiting: surface the failure like the dispatcher
            # does for an unhandled failed event.  ``_launch`` relies
            # on this for exceptions raised before the body's first wait.
            raise error


class DaosClient:
    """A DAOS client bound to one simulated process.

    Parameters
    ----------
    system:
        The deployment to talk to.
    address:
        The client node/socket this process is pinned to; determines which
        fabric links its traffic traverses.
    middleware:
        Override the RPC middleware stages (outermost first).  Defaults to
        :func:`default_middleware` over the system's service config.
    """

    def __init__(
        self,
        system: DaosSystem,
        address: NodeSocket,
        middleware: Optional[List[Middleware]] = None,
    ) -> None:
        self.system = system
        self.address = address
        self.sim = system.cluster.sim
        self.net = system.cluster.net
        self.fabric = system.cluster.fabric
        self.provider = system.cluster.provider
        #: One-way small-message latency, hoisted: two legs of nearly every op.
        self._message_latency = self.provider.message_latency
        self.config = system.config
        self._container_cache: Dict[Tuple[str, str], Container] = {}
        #: Op counters, useful to assert on op mixes in tests.
        self.stats: Dict[str, int] = {}
        #: Per-op latency/bytes accumulators (maintained by the op driver).
        self.op_metrics: Dict[str, OpStats] = {}
        #: Total faults injected into this client (fault middleware).
        self.faults_injected = 0
        #: Pool-map refetches performed after TargetDownError rejections.
        self.map_refreshes = 0
        #: Cheap flag guarding every health check — False keeps the default
        #: path bit-identical to a health-free build.
        self._health = self.config.health.enabled
        #: The client's cached pool-map view (possibly stale; refreshed via
        #: the PoolMapRefreshMiddleware when a target rejects an op).
        self._map_view = system.pool_map.snapshot()
        shared = middleware is None
        if shared:
            middleware = default_middleware(self.config)
        self.middleware = middleware
        #: No stage but tracing.  While no tracer is installed (checked per
        #: call: installing one mid-run takes effect at the next op) the
        #: chain would add nothing, so the hot metadata ops launch their
        #: body directly instead of building a Request for it.
        self._bare = len(middleware) == 1 and type(middleware[0]) is TracingMiddleware
        self._chain = _BARE_CHAIN if shared and self._bare else compose_chain(middleware)

    # -- the interpreter ---------------------------------------------------------------
    def _launch(self, op: str, legs, nbytes: int) -> _FastDriver:
        """Launch the leg-dialect generator ``legs`` on a pooled :class:`_FastDriver`.

        Counts ``op``, then drives the generator's first step synchronously
        — an exception raised before the first wait propagates out of this
        call, as it would out of a ``yield from`` of the body.  The returned
        driver is the event the public op method yields once.
        """
        entry = self._account(op)
        pool = self.system.fast_drivers
        driver = pool.pop() if pool else _FastDriver(self.sim, pool)
        driver.callbacks = []
        driver._value = PENDING
        driver._ok = True
        driver._defused = False
        driver._body = legs
        driver._lane = self.sim.lane_acquire()
        driver._entry = entry
        driver._nbytes = nbytes
        driver._start = self.sim._now
        driver._drive(None, False)
        return driver

    def _launch_request(self, request: Request) -> _FastDriver:
        """Launch ``request`` through the client's stages on a pooled driver."""
        return self._launch(request.op, self._chain(self, request), request.nbytes)

    def _account(self, op: str) -> OpStats:
        """Count one ``op``; returns its latency accumulator (made on first use)."""
        stats = self.stats
        stats[op] = stats.get(op, 0) + 1
        entry = self.op_metrics.get(op)
        if entry is None:
            self.op_metrics[op] = entry = OpStats()
        return entry

    def eq_create(self, name: str = "eq") -> EventQueue:
        """A fresh event queue for asynchronous submissions (``daos_eq_create``)."""
        return EventQueue(self.sim, name=name)

    # -- vectorized multi-op submission -------------------------------------------
    def request_multi(self, requests: List[Request], op: str = "multi") -> Request:
        """One Request carrying ``requests`` through the middleware stages.

        The sub-request bodies run sequentially inside the wrapper body, on
        the wrapper's one driver, so on the default stages the simulated
        timeline is identical to submitting them one by one — what the batch
        saves is the per-op launch and stage traversal, which dominates
        small-op cost in index-update storms.  Per-sub-op stats are
        preserved: each sub-op's counter and :class:`OpStats` entry are
        updated exactly as its own launch would (the wrapper op is
        additionally counted once under ``op``).  Non-default stages apply
        to the wrapper as a unit: one fault-injection/retry/QoS decision
        covers the whole batch (QoS meters one token per covered sub-op, see
        :class:`~repro.serving.qos.QosAdmissionMiddleware`).
        """
        subs = tuple(requests)
        return Request(
            op=op,
            body=lambda: self._do_multi(subs),
            target=subs[0].target if subs else None,
            nbytes=sum(request.nbytes for request in subs),
            subrequests=subs,
        )

    def submit_multi(self, requests: List[Request], op: str = "multi"):
        """Submit ``requests`` as one multi-op; returns their results in order."""
        return (yield self._launch_request(self.request_multi(requests, op=op)))

    def kv_put_many(self, kv: KeyValueObject, items):
        """Insert/overwrite many keys of one KV in a single multi-op submit.

        ``items`` is an iterable of ``(key, value)`` pairs.
        """
        requests = [self.request_kv_put(kv, key, value) for key, value in items]
        return (yield self._launch_request(self.request_multi(requests, op="kv_put_multi")))

    def kv_get_many(self, kv: KeyValueObject, keys):
        """Look up many keys of one KV in a single multi-op submit.

        Returns the values in key order, ``None`` for absent keys (the
        ``kv_get_or_none`` contract, per key).
        """
        requests = [self.request_kv_get(kv, key) for key in keys]
        return (yield self._launch_request(self.request_multi(requests, op="kv_get_multi")))

    def _do_multi(self, requests: Tuple[Request, ...]):
        """Run each sub-request body in turn, replaying per-op accounting.

        Each sub-op is counted and observed exactly as the driver does for
        an op of its own — counts, latency and byte totals land in the same
        per-op slots whether ops were submitted singly or batched.
        """
        results = []
        append = results.append
        sim = self.sim
        for request in requests:
            entry = self._account(request.op)
            start = sim.now
            try:
                result = yield from request.body()
            except BaseException:
                entry.observe(sim.now - start, request.nbytes, ok=False)
                raise
            entry.observe(sim.now - start, request.nbytes, ok=True)
            append(result)
        return results

    # -- small helpers -----------------------------------------------------------
    def _count(self, op: str) -> None:
        self.stats[op] = self.stats.get(op, 0) + 1

    def _reject_if_down(self, target_index: int) -> None:
        """The server-side check every target service starts with (callers
        skip it while health is off: the authoritative map cannot change).

        The *authoritative* pool map is consulted: ops addressed to a
        non-UP target are rejected before any functional state is touched
        (the server-side DER_TGT_DOWN a stale client observes), which is
        what makes the pool-map-refresh retry safe.
        """
        if not self.system.pool_map.is_up(target_index):
            raise TargetDownError(
                f"target {target_index} is "
                f"{self.system.pool_map.state(target_index).value}"
            )

    def _service_leg(self, service, service_time: float):
        """Leg: hold one slot of ``service`` (a target, the pool service, the
        MDS) for ``service_time``.

        An uncontended grant is elided: when the slot is free *and* the
        instant is settled (no other event pending at ``now``), nothing can
        observe or be reordered against the intermediate grant event, so
        claiming the slot inline is indistinguishable from dispatching the
        grant through the queue.  Otherwise the grant travels as a real
        event, keeping FIFO order against every queued waiter and exact
        ``(time, seq)`` interleaving with same-instant events.
        """
        if self.sim.settled() and service.try_acquire():
            try:
                yield service_time
            finally:
                service.release_direct()
        else:
            request = service.request()
            yield request
            try:
                yield service_time
            finally:
                service.release(request)

    def _target_leg(self, target_index: int, service_time: float):
        """Leg: the authoritative check, then a service slot at the target."""
        if self._health:
            self._reject_if_down(target_index)
        return self._service_leg(self.system.target(target_index).service, service_time)

    def _target_service(self, target_index: int, service_time: float):
        """Event-yielding :meth:`_target_leg` of the shard path (``_shard_io``
        runs as a spawned simulation process)."""
        if self._health:
            self._reject_if_down(target_index)
        target = self.system.target(target_index)
        request = target.service.request()
        yield request
        try:
            yield self.sim.timeout(service_time)
        finally:
            target.service.release(request)

    def _refresh_pool_map(self):
        """Refetch the pool map from the pool service (``pool_query``).

        Legs of the refresh middleware.  Returns ``True`` when the fetched
        map is newer than the cached view — the signal the middleware uses
        to decide whether retrying can possibly help.
        """
        stale_version = self._map_view.version
        yield self._message_latency
        yield from self._service_leg(
            self.system.pool_service, self.config.health.pool_query_service_time
        )
        yield self._message_latency
        self._map_view = self.system.pool_map.snapshot()
        self.map_refreshes += 1
        return self._map_view.version > stale_version

    def _lead_target(self, obj) -> int:
        """The object's metadata-servicing target, degraded-aware.

        When the nominal lead is unavailable in the cached view, metadata
        ops fall over to the first surviving layout target (the replica that
        takes over leadership in real DAOS).  Non-replicated objects keep
        their single target and let the authoritative check reject the op.
        """
        layout = obj.layout
        if self._health and layout[0] in self._map_view.unavailable:
            for target in layout:
                if target not in self._map_view.unavailable:
                    return target
        return layout[0]

    @staticmethod
    def _dkey_prefix(key: bytes) -> int:
        prefix = _DKEY_HASH_CACHE.get(key)
        if prefix is None:
            digest = hashlib.sha256(key).digest()
            prefix = int.from_bytes(digest[:4], "little")
            if len(_DKEY_HASH_CACHE) >= _DKEY_HASH_CACHE_BOUND:
                _DKEY_HASH_CACHE.clear()
            _DKEY_HASH_CACHE[key] = prefix
        return prefix

    def _key_candidates(self, kv: KeyValueObject, key: bytes) -> List[int]:
        """All replica targets servicing a dkey, hashed over the layout.

        Layout is replica-major (``replica * stripes + slot``); with
        ``replicas == 1`` this is the single hashed target the original
        placement used, bit for bit.
        """
        layout = kv.layout
        replicas = kv.oclass.replicas
        stripes = len(layout) // replicas
        slot = self._dkey_prefix(key) % stripes
        return [layout[replica * stripes + slot] for replica in range(replicas)]

    def _key_target(self, kv: KeyValueObject, key: bytes) -> int:
        """The dkey target a *read* is routed to (degraded-aware)."""
        layout = kv.layout
        if kv.oclass.replicas == 1:
            # Common case (every non-replicated class): one candidate, no
            # list to build — same target the general path would select.
            return layout[self._dkey_prefix(key) % len(layout)]
        candidates = self._key_candidates(kv, key)
        if self._health and len(candidates) > 1:
            up = [t for t in candidates if t not in self._map_view.unavailable]
            if up:
                return up[(self.address.node + self.address.socket) % len(up)]
        return candidates[0]

    # -- pool / container operations -----------------------------------------------
    def request_pool_connect(self, pool: Pool) -> Request:
        return Request(
            op="pool_connect",
            body=lambda: self._do_pool_connect(pool),
        )

    def pool_connect(self, pool: Pool):
        """Connect to a pool (handshake with the pool service)."""
        return (yield self._launch_request(self.request_pool_connect(pool)))

    def _do_pool_connect(self, pool: Pool):
        yield self._message_latency
        yield from self._service_leg(
            self.system.pool_service, self.config.container_open_service_time
        )
        yield self._message_latency
        return pool

    def request_container_create(
        self,
        pool: Pool,
        uuid: Optional[uuid_module.UUID] = None,
        label: str = "",
        is_default: bool = False,
    ) -> Request:
        return Request(
            op="container_create",
            body=lambda: self._do_container_create(pool, uuid, label, is_default),
        )

    def container_create(
        self,
        pool: Pool,
        uuid: Optional[uuid_module.UUID] = None,
        label: str = "",
        is_default: bool = False,
    ):
        """Create a container; raises :class:`ContainerExistsError` on a race loss.

        The existence check happens inside the pool-service critical
        section, so md5-derived concurrent creates (§4) behave exactly like
        the real collective: one creator wins, the rest see EXIST.
        """
        return (
            yield self._launch_request(
                self.request_container_create(pool, uuid, label, is_default)
            )
        )

    def _do_container_create(
        self,
        pool: Pool,
        uuid: Optional[uuid_module.UUID],
        label: str,
        is_default: bool,
    ):
        yield self._message_latency
        request = self.system.pool_service.request()
        yield request
        try:
            yield self.config.container_create_service_time
            container = pool.create_container(uuid=uuid, label=label, is_default=is_default)
        finally:
            self.system.pool_service.release(request)
        yield self._message_latency
        self._container_cache[(pool.label, str(container.uuid))] = container
        if label:
            self._container_cache[(pool.label, label)] = container
        return container

    @staticmethod
    def _cache_key(ref_or_container) -> str:
        if isinstance(ref_or_container, Container):
            return str(ref_or_container.uuid)
        return str(ref_or_container)

    def container_open(self, pool: Pool, ref: ContainerRef):
        """Open a container by UUID or label, cached per client (§5.2).

        The cache hit is a pure local lookup — no RPC is built and nothing
        is launched, exactly like a cached handle in libdaos.
        """
        cache_key = (pool.label, self._cache_key(ref))
        cached = self._container_cache.get(cache_key)
        if cached is not None:
            self._count("container_open_cached")
            return cached
        return (
            yield self._launch_request(
                Request(
                    op="container_open",
                    body=lambda: self._do_container_open(pool, ref, cache_key),
                )
            )
        )

    def _do_container_open(self, pool: Pool, ref: ContainerRef, cache_key):
        yield self._message_latency
        yield from self._service_leg(
            self.system.pool_service, self.config.container_open_service_time
        )
        container = pool.open_container(ref)
        yield self._message_latency
        self._container_cache[cache_key] = container
        # A container may be addressable by both label and uuid.
        self._container_cache[(pool.label, str(container.uuid))] = container
        return container

    def container_exists(self, pool: Pool, ref: ContainerRef):
        """Probe existence (a pool-service lookup)."""
        if self._bare and self.sim.tracer is None:
            return (
                yield self._launch(
                    "container_exists", self._do_container_exists(pool, ref), 0
                )
            )
        return (
            yield self._launch_request(
                Request(
                    op="container_exists",
                    body=lambda: self._do_container_exists(pool, ref),
                )
            )
        )

    def _do_container_exists(self, pool: Pool, ref: ContainerRef):
        yield self._message_latency
        yield from self._service_leg(self.system.pool_service, self.config.rpc_service_time)
        yield self._message_latency
        return pool.has_container(ref)

    def container_destroy(self, pool: Pool, ref: ContainerRef):
        """Destroy a container, releasing every object's storage to the pool.

        Refunds follow each array's shard layout (clamped like
        ``array_punch``); KV bytes are not pool-charged and need no refund.
        Cached handles for the container are evicted on every client-visible
        alias (label and UUID).
        """
        return (
            yield self._launch_request(
                Request(
                    op="container_destroy",
                    body=lambda: self._do_container_destroy(pool, ref),
                )
            )
        )

    def _do_container_destroy(self, pool: Pool, ref: ContainerRef):
        yield self._message_latency
        request = self.system.pool_service.request()
        yield request
        try:
            yield self.config.container_create_service_time
            container = pool.destroy_container(ref)
            for obj in list(container.objects()):
                if isinstance(obj, ArrayObject):
                    self._refund_stored(pool, obj)
        finally:
            self.system.pool_service.release(request)
        yield self._message_latency
        self._container_cache.pop((pool.label, str(container.uuid)), None)
        if container.label:
            self._container_cache.pop((pool.label, container.label), None)

    def _container_touch(self, container: Container):
        """Pool-service touch charged for array ops in non-default containers.

        This is the modelled cost of per-container metadata traffic; it is
        what separates the paper's *full* mode from *no containers* (Fig 5;
        DESIGN.md §5).
        """
        if container.is_default:
            return
        yield from self._service_leg(
            self.system.pool_service, self.config.container_touch_service_time
        )

    # -- KV operations ----------------------------------------------------------------
    def kv_open(self, container: Container, oid: ObjectId, oclass: ObjectClass = OC_S1):
        """Open (creating on first use) a KV object."""
        kv = container.get_or_create_kv(oid, oclass)
        if kv.lock is None:
            self.system.register_object(kv, oclass, container_salt=container.uuid.int)
        if self._bare and self.sim.tracer is None:
            return (yield self._launch("kv_open", self._do_kv_open(kv), 0))
        return (
            yield self._launch_request(
                Request(
                    op="kv_open",
                    body=lambda: self._do_kv_open(kv),
                    target=self._lead_target(kv),
                )
            )
        )

    def _do_kv_open(self, kv: KeyValueObject):
        yield self._message_latency
        yield from self._target_leg(self._lead_target(kv), self.config.rpc_service_time)
        yield self._message_latency
        return kv

    def request_kv_put(self, kv: KeyValueObject, key: bytes, value: bytes) -> Request:
        return Request(
            op="kv_put",
            body=lambda: self._do_kv_put(kv, key, value),
            target=self._key_target(kv, key),
            nbytes=len(value),
        )

    def kv_put(self, kv: KeyValueObject, key: bytes, value: bytes):
        """Insert/overwrite a key.

        Updates serialise at the object (exclusive hold for the put service
        time), which is the mechanism behind the paper's shared-index-KV
        contention (§5.2, Fig 4).
        """
        if self._bare and self.sim.tracer is None:
            return (
                yield self._launch("kv_put", self._do_kv_put(kv, key, value), len(value))
            )
        return (yield self._launch_request(self.request_kv_put(kv, key, value)))

    def _kv_write_targets(self, kv: KeyValueObject, key: bytes) -> List[int]:
        """Targets a dkey update must service: every live replica.

        Raises :class:`TargetDownError` when the cached view shows no
        replica alive — the refresh middleware refetches the map and
        retries, or surfaces the loss when the map agrees.
        """
        candidates = self._key_candidates(kv, key)
        if self._health and len(candidates) > 1:
            up = [t for t in candidates if t not in self._map_view.unavailable]
            if not up:
                raise TargetDownError(f"all replicas of dkey {key!r} unavailable")
            return up
        return candidates

    def _kv_bulk(self, target_index: int, nbytes: int, write: bool):
        """Bulk flow for an over-threshold KV value (no extra target service)."""
        engine = self.system.engine_of_target(target_index)
        if write:
            path = self.fabric.write_path(self.address, engine)
        else:
            path = self.fabric.read_path(self.address, engine)
        yield self.net.transfer(
            path,
            nbytes,
            rate_cap=self.provider.per_flow_cap,
            name=f"{'kw' if write else 'kr'}:{target_index}",
        )

    def _kv_bulk_size(self, value: Optional[bytes]) -> int:
        """Value size when it crosses the bulk threshold, else 0 (inline)."""
        threshold = self.config.kv_bulk_threshold
        if threshold is None or value is None or len(value) < threshold:
            return 0
        return len(value)

    def _do_kv_put(self, kv: KeyValueObject, key: bytes, value: bytes):
        bulk = self._kv_bulk_size(value)
        yield self._message_latency
        lock = kv.lock
        # Uncontended write lock: elided like a service grant (_service_leg).
        if not (self.sim.settled() and lock.try_acquire_write()):
            yield lock.acquire_write()
        try:
            service_time = self.config.kv_put_service_time
            for target in self._kv_write_targets(kv, key):
                yield from self._target_leg(target, service_time)
                if bulk:
                    # The bulk RDMA happens inside the update's serialisation
                    # window (the server pulls the value before it commits).
                    yield from self._kv_bulk(target, bulk, write=True)
            kv.put(key, value)
        finally:
            lock.release_write()
        yield self._message_latency

    def kv_get(self, kv: KeyValueObject, key: bytes):
        """Look up a key; raises :class:`KeyNotFoundError` if absent."""
        value = yield from self.kv_get_or_none(kv, key)
        if value is None:
            raise KeyNotFoundError(f"key {key!r} not found")
        return value

    def request_kv_get(self, kv: KeyValueObject, key: bytes) -> Request:
        return Request(
            op="kv_get",
            body=lambda: self._do_kv_get_or_none(kv, key),
            target=self._key_target(kv, key),
        )

    def kv_get_or_none(self, kv: KeyValueObject, key: bytes):
        """Look up a key, returning ``None`` when absent (Algorithm 1 probe).

        Lookups hold the object's serialisation point for the (shorter) get
        service time — VOS dkey-tree descent on a hot shared object is what
        bends the Fig 4 read curves.
        """
        if self._bare and self.sim.tracer is None:
            return (yield self._launch("kv_get", self._do_kv_get_or_none(kv, key), 0))
        return (yield self._launch_request(self.request_kv_get(kv, key)))

    def _do_kv_get_or_none(self, kv: KeyValueObject, key: bytes):
        yield self._message_latency
        lock = kv.lock
        if not (self.sim.settled() and lock.try_acquire_write()):
            yield lock.acquire_write()
        try:
            yield from self._target_leg(
                self._key_target(kv, key), self.config.kv_get_service_time
            )
            value = kv.get_or_none(key)
        finally:
            lock.release_write()
        bulk = self._kv_bulk_size(value)
        if bulk:
            # Fetch bulk streams back after the dkey-tree descent released
            # the serialisation point — concurrent readers overlap here.
            yield from self._kv_bulk(self._key_target(kv, key), bulk, write=False)
        yield self._message_latency
        return value

    def kv_list(self, kv: KeyValueObject):
        """Enumerate all keys (paged enumeration, one service charge per page)."""
        return (
            yield self._launch_request(
                Request(
                    op="kv_list",
                    body=lambda: self._do_kv_list(kv),
                    target=self._lead_target(kv),
                )
            )
        )

    def _do_kv_list(self, kv: KeyValueObject):
        page_size = self.config.kv_list_page_size
        keys = list(kv.keys())
        yield self._message_latency
        yield kv.lock.acquire_write()
        try:
            pages = max(1, -(-len(keys) // page_size))
            yield from self._target_leg(
                self._lead_target(kv), self.config.kv_get_service_time * pages
            )
        finally:
            kv.lock.release_write()
        yield self._message_latency
        return keys

    def kv_remove(self, kv: KeyValueObject, key: bytes):
        """Remove a key (same serialisation as a put)."""
        if self._bare and self.sim.tracer is None:
            return (yield self._launch("kv_remove", self._do_kv_remove(kv, key), 0))
        return (
            yield self._launch_request(
                Request(
                    op="kv_remove",
                    body=lambda: self._do_kv_remove(kv, key),
                    target=self._key_target(kv, key),
                )
            )
        )

    def _do_kv_remove(self, kv: KeyValueObject, key: bytes):
        yield self._message_latency
        lock = kv.lock
        if not (self.sim.settled() and lock.try_acquire_write()):
            yield lock.acquire_write()
        try:
            service_time = self.config.kv_put_service_time
            for target in self._kv_write_targets(kv, key):
                yield from self._target_leg(target, service_time)
            kv.remove(key)
        finally:
            lock.release_write()
        yield self._message_latency

    # -- Array operations ---------------------------------------------------------------
    def array_create(
        self, container: Container, oclass: ObjectClass = OC_S1, oid: Optional[ObjectId] = None
    ):
        """Create a new array (fresh OID unless one is supplied)."""
        if oid is None:
            oid = container.oid_allocator.allocate(oclass.class_id)
        array = container.get_or_create_array(oid, oclass)
        if array.lock is None:
            self.system.register_object(array, oclass, container_salt=container.uuid.int)
        if self._bare and self.sim.tracer is None:
            return (
                yield self._launch(
                    "array_create", self._do_array_create(container, array), 0
                )
            )
        return (
            yield self._launch_request(
                Request(
                    op="array_create",
                    body=lambda: self._do_array_create(container, array),
                    target=self._lead_target(array),
                )
            )
        )

    def _do_array_create(self, container: Container, array: ArrayObject):
        yield self._message_latency
        yield from self._container_touch(container)
        yield from self._target_leg(
            self._lead_target(array), self.config.array_create_service_time
        )
        yield self._message_latency
        return array

    def array_open(self, container: Container, oid: ObjectId):
        """Open an existing array; raises :class:`ObjectNotFoundError`."""
        array = container.get_object(oid)
        if not isinstance(array, ArrayObject):
            raise InvalidArgumentError(f"object {oid} is not an Array")
        if self._bare and self.sim.tracer is None:
            return (
                yield self._launch("array_open", self._do_array_open(container, array), 0)
            )
        return (
            yield self._launch_request(
                Request(
                    op="array_open",
                    body=lambda: self._do_array_open(container, array),
                    target=self._lead_target(array),
                )
            )
        )

    def _do_array_open(self, container: Container, array: ArrayObject):
        yield self._message_latency
        yield from self._container_touch(container)
        yield from self._target_leg(
            self._lead_target(array), self.config.array_open_service_time
        )
        yield self._message_latency
        return array

    def request_array_close(self, array: ArrayObject) -> Request:
        return Request(
            op="array_close",
            body=lambda: self._do_array_close(array),
            target=self._lead_target(array),
        )

    def array_close(self, array: ArrayObject):
        """Close an array handle (flush + release)."""
        if self._bare and self.sim.tracer is None:
            return (yield self._launch("array_close", self._do_array_close(array), 0))
        return (yield self._launch_request(self.request_array_close(array)))

    def _do_array_close(self, array: ArrayObject):
        yield from self._target_leg(
            self._lead_target(array), self.config.array_close_service_time
        )
        yield self._message_latency

    def array_get_size(self, array: ArrayObject):
        """Query the array size (a lead-target RPC)."""
        if self._bare and self.sim.tracer is None:
            return (
                yield self._launch("array_get_size", self._do_array_get_size(array), 0)
            )
        return (
            yield self._launch_request(
                Request(
                    op="array_get_size",
                    body=lambda: self._do_array_get_size(array),
                    target=self._lead_target(array),
                )
            )
        )

    def _do_array_get_size(self, array: ArrayObject):
        yield self._message_latency
        yield from self._target_leg(self._lead_target(array), self.config.rpc_service_time)
        yield self._message_latency
        return array.size

    def array_punch(
        self, container: Container, array: ArrayObject, pool: Optional[Pool] = None
    ):
        """Punch (delete) an array, refunding its storage to the pool.

        Refunds follow the shard layout of the stored bytes; per-target
        amounts are clamped to what is actually charged there, so pool
        accounting can never go negative even for arrays written through
        several versions.
        """
        return (
            yield self._launch_request(
                Request(
                    op="array_punch",
                    body=lambda: self._do_array_punch(container, array, pool),
                    target=self._lead_target(array),
                )
            )
        )

    def _do_array_punch(
        self, container: Container, array: ArrayObject, pool: Optional[Pool]
    ):
        yield self._message_latency
        yield array.lock.acquire_write()
        try:
            yield from self._target_leg(
                self._lead_target(array), self.config.rpc_service_time
            )
            container.remove_object(array.oid)
            if pool is not None:
                self._refund_stored(pool, array)
        finally:
            array.lock.release_write()
        yield self._message_latency

    def array_set_size(self, array: ArrayObject, size: int, pool: Optional[Pool] = None):
        """Truncate/extend the array to ``size`` bytes (lead-target RPC).

        Truncation refunds the discarded bytes to the pool when one is given.
        """
        return (
            yield self._launch_request(
                Request(
                    op="array_set_size",
                    body=lambda: self._do_array_set_size(array, size, pool),
                    target=self._lead_target(array),
                )
            )
        )

    def _do_array_set_size(self, array: ArrayObject, size: int, pool: Optional[Pool]):
        yield self._message_latency
        yield array.lock.acquire_write()
        try:
            yield from self._target_leg(
                self._lead_target(array), self.config.rpc_service_time
            )
            before = array.nbytes_stored
            array.truncate(size)
            if pool is not None:
                freed = before - array.nbytes_stored
                if freed > 0:
                    # Refund against the lead target: byte-accurate per-target
                    # refunds would need extent placement history; the lead
                    # target approximation keeps pool totals correct.
                    lead = self._lead_target(array)
                    pool.refund(lead, min(freed, pool.target_used(lead)))
        finally:
            array.lock.release_write()
        yield self._message_latency

    def _shard_io(self, target_index: int, nbytes: int, write: bool):
        """One shard: target service overhead, then the bulk flow."""
        service = (
            self.config.shard_write_overhead if write else self.config.shard_read_overhead
        )
        yield from self._target_service(target_index, service)
        engine = self.system.engine_of_target(target_index)
        if write:
            path = self.fabric.write_path(self.address, engine)
        else:
            path = self.fabric.read_path(self.address, engine)
        yield self.net.transfer(
            path,
            nbytes,
            rate_cap=self.provider.per_flow_cap,
            name=f"{'w' if write else 'r'}:{target_index}",
        )

    def _replica_targets(self, array: ArrayObject, shard_index: int, write: bool):
        """Target(s) a shard touches: all replicas on write, one on read.

        Reads pick the replica deterministically from the client address so
        a population of clients spreads over the replica groups.

        Under an unhealthy cached pool map the selection degrades: writes go
        to every *surviving* replica (rebuild re-protects the rest), reads
        are served by a surviving one.  A shard with no live replica raises
        :class:`TargetDownError` — for non-replicated classes the layout
        target is returned untouched and the authoritative check in
        :meth:`_target_service` rejects the op instead (honest data loss).
        """
        stripes = array.oclass.resolve_stripes(self.system.n_targets)
        replicas = array.oclass.replicas
        candidates = [
            array.layout[replica * stripes + shard_index] for replica in range(replicas)
        ]
        if self._health and replicas > 1:
            up = [t for t in candidates if t not in self._map_view.unavailable]
            if not up:
                raise TargetDownError(
                    f"all {replicas} replicas of {array.oid} shard {shard_index} "
                    "unavailable"
                )
            candidates = up
        if write:
            return candidates
        chosen = (self.address.node + self.address.socket) % len(candidates)
        return [candidates[chosen]]

    def _refund_stored(self, pool: Pool, array: ArrayObject) -> None:
        """Refund every byte ``array`` stores to ``pool``, shard by shard.

        Each shard's bytes go back to every replica target a write would
        charge, clamped to what the target holds, so pool accounting can
        never go negative even for arrays written through several versions.
        """
        stripes = array.oclass.resolve_stripes(self.system.n_targets)
        shards = shard_layout(array.nbytes_stored, stripes, self.config.stripe_cell_size)
        for shard_index, _offset, length in shards:
            for target in self._replica_targets(array, shard_index, write=True):
                pool.refund(target, min(length, pool.target_used(target)))

    def _array_transfer(self, array: ArrayObject, offset: int, size: int, pool: Optional[Pool], write: bool):
        """Move ``size`` bytes of an array: split into shards, run them in parallel.

        The per-shard issue cost is serial at the client (libdaos builds and
        posts one RPC per shard); the shard I/Os themselves proceed
        concurrently, as spawned :meth:`_shard_io` processes (a lone
        unreplicated shard runs inline).  Writes go to every replica of each
        shard; reads are served by one replica.
        """
        stripes = array.oclass.resolve_stripes(self.system.n_targets)
        shards = shard_layout(size, stripes, self.config.stripe_cell_size)
        charged: List[Tuple[int, int]] = []
        try:
            if pool is not None and write:
                for shard_index, _shard_offset, length in shards:
                    for target in self._replica_targets(array, shard_index, write=True):
                        pool.charge(target, length)
                        charged.append((target, length))
            simple = len(shards) == 1 and array.oclass.replicas == 1
            if simple:
                yield (
                    self.config.shard_issue_write_time
                    if write
                    else self.config.shard_issue_read_time
                )
                shard_index, _, length = shards[0]
                yield from self._shard_io(array.layout[shard_index], length, write)
                return
            if not write:
                # Reads prepare one fetch descriptor per shard before any data
                # moves (then reassemble); this up-front per-shard cost is what
                # penalises wide striping for reads (Fig 6: S2 beats SX).
                yield len(shards) * self.config.shard_issue_read_time
            events = []
            for shard_index, _shard_offset, length in shards:
                if write:
                    # Writes scatter eagerly: issue cost pipelines with the
                    # transfers already in flight.
                    yield self.config.shard_issue_write_time
                for target in self._replica_targets(array, shard_index, write):
                    proc = self.sim.process(
                        self._shard_io(target, length, write),
                        name=f"shard{shard_index}@{target}",
                    )
                    # A shard may fail (stale map, lost engine) while later
                    # shards are still being issued, before anything waits
                    # on it.  The ``all_of`` below still fails on it (a
                    # condition fails on an already-failed event), and a
                    # transfer abandoned before then is already failing.
                    proc.defuse()
                    events.append(proc)
            if events:
                yield self.sim.all_of(events)
        except TargetDownError:
            # A target failed between the cached-view selection and the
            # authoritative check (or mid-flight): roll the space accounting
            # back so the map-refresh retry charges the new selection once.
            for target, length in charged:
                pool.refund(target, min(length, pool.target_used(target)))
            raise

    def request_array_write(
        self,
        array: ArrayObject,
        offset: int,
        payload: Payload,
        pool: Optional[Pool] = None,
    ) -> Request:
        if not isinstance(payload, Payload):
            payload = BytesPayload(bytes(payload))
        return Request(
            op="array_write",
            body=lambda: self._do_array_write(array, offset, payload, pool),
            target=self._lead_target(array),
            nbytes=payload.size,
        )

    def array_write(
        self,
        array: ArrayObject,
        offset: int,
        payload: Payload,
        pool: Optional[Pool] = None,
    ):
        """Write ``payload`` at ``offset``.

        Holds the object's write lock for the duration of the transfer:
        concurrent readers of the *same* array must wait, which is the
        array-level contention the paper describes for the *no index* mode
        under access pattern B (§5.3).
        """
        return (
            yield self._launch_request(self.request_array_write(array, offset, payload, pool))
        )

    def _do_array_write(
        self, array: ArrayObject, offset: int, payload: Payload, pool: Optional[Pool]
    ):
        yield self._message_latency
        yield array.lock.acquire_write()
        try:
            yield from self._array_transfer(array, offset, payload.size, pool, write=True)
            array.write(offset, payload)
        finally:
            array.lock.release_write()
        yield self._message_latency

    def request_array_read(self, array: ArrayObject, offset: int, length: int) -> Request:
        return Request(
            op="array_read",
            body=lambda: self._do_array_read(array, offset, length),
            target=self._lead_target(array),
            nbytes=length,
        )

    def array_read(self, array: ArrayObject, offset: int, length: int):
        """Read ``[offset, offset+length)``; concurrent reads share the lock."""
        return (yield self._launch_request(self.request_array_read(array, offset, length)))

    def _do_array_read(self, array: ArrayObject, offset: int, length: int):
        yield self._message_latency
        yield array.lock.acquire_read()
        try:
            payload = array.read(offset, length)  # validate range before moving data
            yield from self._array_transfer(array, offset, length, None, write=False)
        finally:
            array.lock.release_read()
        yield self._message_latency
        return payload
