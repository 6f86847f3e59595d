"""The per-process DAOS client API.

Every benchmark or application process owns a :class:`DaosClient` bound to
its client socket address.  All operations are *generators* meant to be
driven with ``yield from`` inside a simulation process; they charge provider
RPC latency, per-target service time, object serialisation, and bulk data
flows, then apply the functional state change and return the result.

Every operation runs under the client's policy, applied by one attempt
loop (``DaosClient._attempt``) in a fixed order: pool-map refresh when
health is on, retry and fault injection when
:class:`~repro.config.FaultInjectionConfig` enables them, QoS admission
when the client works for a serving tenant.  A default client has no
policy at all.

**One body per op, one interpreter, one launcher.**  Each op's timeline
is written once, as a ``_do_*`` generator in the *leg dialect* every
simulated process speaks: ``yield <float>`` is a delay, ``yield <Event>``
is a wait, and ``yield <Gate>`` is a claim of a service slot or an
object-lock side (granted inline when free on a settled instant, else
queued).  Every public op ends in ``yield <driver>``: a pooled
:class:`_FastDriver` (a :class:`~repro.simulation.process.Process` that
finishes synchronously) runs the body -- or the attempt loop around it,
which speaks the same dialect -- opens the client's row of the op's
column in the system's :class:`~repro.daos.rpc.OpTable` at launch and
observes the op on it at finish (``op_metrics`` is a view of those rows);
when a tracer is installed, the finish also emits the op's one ``rpc``
span.  One method, ``_call``, launches every op and decides its policy
and its QoS token count: an op no policy applies to launches its body
bare, traced or not; any other runs the attempt loop around it.  A
multi-op (``kv_put_many`` / ``kv_get_many``) is one such op, metered one
token per covered sub-op, whose body runs each sub-op bare on a driver of
its own.  An asynchronous op is the same public generator started on an
:class:`~repro.daos.eq.EventQueue` (``client.eq_create()``), the
``daos_eq_*`` idiom the pipelined Field I/O path uses:
``eq.launch(client.kv_put(kv, key, value), op="kv_put")``.  The per-shard
legs (``_shard_io``) run inline or as spawned processes; either way they
take their target slot through ``_target_leg``, like every other op.

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
    SimulatedFaultError,
    TargetDownError,
)
from repro.daos.kv import KeyValueObject
from repro.daos.objclass import OC_S1, ObjectClass
from repro.daos.oid import ObjectId
from repro.daos.payload import BytesPayload, Payload
from repro.daos.placement import shard_layout
from repro.daos.pool import Pool
from repro.daos.rpc import DATA_OPS, OpStats, fault_fires
from repro.daos.system import DaosSystem
from repro.network.fabric import NodeSocket
from repro.simulation.events import PENDING, Wake
from repro.simulation.process import Process

__all__ = ["DaosClient"]

ContainerRef = Union[uuid_module.UUID, str]

#: dkey -> hash-prefix cache shared by all clients.  Benchmarks hammer a
#: small keyset with puts then gets (often thousands of ops per key), and
#: the sha256 is by far the dominant cost of placement; the raw 32-bit
#: prefix is cached (not the target index) so it stays valid across objects
#: with different layouts.  Cleared when it grows past the bound rather than
#: LRU-tracked (re-hashing after a clear is correct, just slower once).
_DKEY_HASH_CACHE: Dict[bytes, int] = {}
_DKEY_HASH_CACHE_BOUND = 1 << 16


class _FastDriver(Process):
    """The process every op runs on: a pooled :class:`Process` that
    finishes synchronously.

    The driver *is* the event the calling process waits on: the public op
    method returns ``(yield driver)``, so the whole op costs the caller one
    suspension instead of one per simulated wait.  The generator -- an op
    body, or the client's attempt loop around one -- speaks the leg dialect
    every process speaks (a ``float`` delay resumes it on its own
    :class:`~repro.simulation.events.Wake`, an event is waited on, a gate
    is claimed with the same wake), and
    ``Process._resume`` interprets it; ``_launch`` takes the first step by
    passing the driver its own wake.

    Only :meth:`_finish` differs: the driver observes the op's latency and
    bytes on the op-table row ``_launch`` opened for it (its column and the
    client's slot), emits the op's ``rpc`` span when a tracer is installed
    (one per launched op, from launch to finish, every retry inside), and
    finishes
    *synchronously* inside the final event's callback slot — no completion
    event travels through the queue, so the caller resumes at the same
    ``(time, seq)`` boundary a ``yield from`` of the body would resume at.
    Failures are observed with ``ok=False`` and thrown into the caller at
    its yield (or re-raised synchronously from ``DaosClient._launch`` when
    the generator fails before its first wait).

    Drivers, each with its wake, are pooled per system, so a storm of ops
    allocates O(concurrent ops) objects rather than several events per op
    -- also when each op comes from a short-lived client of its own, as in
    an IOR wave.
    """

    __slots__ = ("_pool", "_column", "_slot", "_nbytes", "_start")

    def __init__(self, sim, pool: List["_FastDriver"]) -> None:
        self.sim = sim
        self.name = "fastop"
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        #: The system-wide free-list this driver returns to when it finishes.
        self._pool = pool
        #: The queue entry every delay of this driver schedules, kept
        #: across reuses.
        self._wake = Wake(self._resume)
        self._generator = None
        self._column = None
        self._slot = 0
        self._nbytes = 0
        self._start = 0.0

    def _finish(self, value, error: Optional[BaseException]) -> None:
        """Observe (and trace) the op, then complete synchronously (no queue
        round trip)."""
        sim = self.sim
        column = self._column
        column.observe(self._slot, sim._now - self._start, self._nbytes, error is None)
        if sim.tracer is not None:
            op = column.op
            sim.record(
                "rpc",
                op=op,
                op_kind="data" if op in DATA_OPS else "metadata",
                nbytes=self._nbytes,
                start=self._start,
                end=sim._now,
                status="ok" if error is None else type(error).__name__,
            )
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
        self._generator = None
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
    qos:
        A serving tenant's :class:`~repro.serving.qos.QosAdmission`, shared
        by all of the tenant's worker clients, or ``None``.  It adds to the
        policy the system's config turns on (see :meth:`_attempt`).
    """

    # An IOR wave keeps thousands of finished clients alive until its
    # deployment is collected: no per-instance ``__dict__``.
    __slots__ = (
        "system", "address", "sim", "_message_latency", "config", "_container_cache",
        "_slot", "container_open_cached", "map_refreshes", "_health", "_map_view", "_qos",
        "_fault_seq",
    )

    def __init__(
        self,
        system: DaosSystem,
        address: NodeSocket,
        qos=None,
    ) -> None:
        self.system = system
        self.address = address
        self.sim = system.cluster.sim
        #: One-way small-message latency, hoisted: two legs of nearly every op.
        self._message_latency = system.cluster.provider.message_latency
        self.config = system.config
        #: Open container handles by ``(pool label, uuid or label)``; made on
        #: the first open or create (most IOR ranks never cache one).
        self._container_cache: Optional[Dict[Tuple[str, str], Container]] = None
        #: This client's row in every column of the system's op table,
        #: where the op driver keeps its per-op counts, latencies and bytes;
        #: unique per system, so posixfs also uses it as the LDLM owner.
        table = system.op_table
        self._slot = table.n_slots
        table.n_slots += 1
        #: ``container_open`` calls answered from the handle cache.
        self.container_open_cached = 0
        #: Pool-map refetches performed after TargetDownError rejections.
        self.map_refreshes = 0
        #: Cheap flag guarding every health check — False keeps the default
        #: path bit-identical to a health-free build.
        self._health = self.config.health.enabled
        #: The client's cached pool-map view (possibly stale; refreshed by
        #: :meth:`_attempt` when a target rejects an op).
        self._map_view = system.pool_map.snapshot()
        #: The tenant's admission (shared), or ``None``.
        self._qos = qos
        #: The next attempt's number in this client's fault schedule: it
        #: counts every attempt, retries included (see :func:`fault_fires`).
        self._fault_seq = 0

    @property
    def op_metrics(self) -> Dict[str, OpStats]:
        """Per-op accumulators, read-only: a fresh ``{op: OpStats}`` dict built
        from this client's rows of the system's
        :class:`~repro.daos.rpc.OpTable`, one entry per op it has launched
        (``count`` 0 while the first is in flight), in the order the system
        first used each op.  Writing to it changes nothing; :meth:`_attempt`
        counts retries and faults through :meth:`tally_op`."""
        return self.system.op_table.view(self._slot)

    @property
    def faults_injected(self) -> int:
        """Faults injected into this client (see :meth:`_attempt`): the sum
        of its op-table fault tallies over every op."""
        return self.system.op_table.faults(self._slot)

    def tally_op(self, op: str, field: str) -> None:
        """Add one to ``field`` (``"retries"`` or ``"faults_injected"``) of
        this client's accumulator for ``op``, an op it has launched."""
        self.system.op_table.tally(op, self._slot, field)

    @property
    def stats(self) -> Dict[str, int]:
        """Op counts (a fresh dict): the :attr:`op_metrics` counts, which the
        driver takes as each op finishes, plus ``container_open_cached``."""
        stats = {op: entry.count for op, entry in self.op_metrics.items()}
        if self.container_open_cached:
            stats["container_open_cached"] = self.container_open_cached
        return stats

    # -- the interpreter ---------------------------------------------------------------
    def _launch(self, op: str, legs, nbytes: int) -> _FastDriver:
        """Launch the leg-dialect generator ``legs`` on a pooled :class:`_FastDriver`.

        Opens this client's row of ``op``'s op-table column (one subscript
        and an inline check once it exists; the driver counts the op when
        it observes it), then drives the generator's
        first step synchronously — an exception raised before the first
        wait propagates out of this call, as it would out of a ``yield
        from`` of the body.  The returned driver is the event the public op
        method yields once.
        """
        column = self.system.op_table[op]
        slot = self._slot
        base = column.base
        # The row check is inline (``OpColumn``'s layout: two counts a row,
        # count -1 absent) so a repeated op costs no call; a first use opens.
        if not (base <= slot < column.stop and column.counts[(slot - base) * 2] >= 0):
            column.open(slot)
        pool = self.system.fast_drivers
        driver = pool.pop() if pool else _FastDriver(self.sim, pool)
        driver.callbacks = []
        driver._value = PENDING
        driver._ok = True
        driver._defused = False
        driver._generator = legs
        driver._column = column
        driver._slot = slot
        driver._nbytes = nbytes
        driver._start = self.sim._now
        driver._resume(driver._wake)
        return driver

    def _call(
        self, op: str, body, args: tuple, nbytes: int = 0, sub_op: Optional[str] = None,
        n: int = 1,
    ) -> _FastDriver:
        """Launch the op body ``body(*args)`` on a pooled driver: the one
        launcher, which decides the op's policy and its QoS token count.

        The tenant's admission meters ``n`` tokens when it covers ``op``
        -- or, for a multi-op, the ``sub_op`` each of its ``n`` sub-ops
        runs -- and an op with a token to pay runs through
        :meth:`_attempt`; so does every op when the system's config turns
        on a default policy.  Otherwise the body launches bare, which is
        what :meth:`_attempt` reduces to with no policy.
        """
        qos = self._qos
        tokens = n if qos is not None and (qos.ops is None or (sub_op or op) in qos.ops) else 0
        if tokens or self.system.default_staged:
            return self._launch(op, self._attempt(op, body, args, tokens), nbytes)
        return self._launch(op, body(*args), nbytes)

    def _attempt(self, op: str, body, args: tuple, tokens: int):
        """Run ``body(*args)`` under this client's policy: the one op path.

        The policy is applied in one fixed order, outermost first:

        1. **Map refresh** (health on).  A :class:`TargetDownError` means
           the op addressed a target the server knows is gone.  The client
           refetches the pool map; if the fetched map is newer than its
           view the op runs again (re-running target selection) with a
           fresh retry count, else the error surfaces -- retrying against
           the same map would loop forever on a permanently lost object.
           The map version only grows, so refreshes are bounded by the
           run's health transitions, and their round trips count toward
           the op's latency.
        2. **Retry with backoff** (fault injection on, ``max_attempts >
           1``).  A :class:`SimulatedFaultError` -- an injected fault, a
           posixfs overload or lock timeout, a QoS shed -- backs off
           exponentially from ``backoff_base`` and runs the attempt again,
           until ``max_attempts`` is spent.
        3. **QoS admission** (``tokens > 0``: the count :meth:`_call`
           decided).  Reserve the tokens, then wait for them; a shed raises
           :class:`~repro.daos.errors.ServiceBusyError`.
           It sits inside retry, so a shed is re-offered after the backoff
           and pays a fresh token.
        4. **Fault injection** (on).  The seeded schedule
           (:func:`~repro.daos.rpc.fault_fires`) drops the RPC before the
           body runs: one message latency, then a
           :class:`SimulatedFaultError` with no state touched, which is
           what makes a retry safe.  It sits inside admission, so a lost
           RPC had been admitted.  Every attempt takes the next number of
           the client's fault sequence.
        5. **The op body.**
        """
        config = self.config
        fault = config.fault_injection
        retry = config.retry
        retries = fault.enabled and retry.max_attempts > 1
        qos = self._qos
        attempt = 1
        while True:
            try:
                if tokens:
                    wait = qos.reserve(self, op, tokens)
                    if wait > 0.0:
                        yield wait
                        qos.waiting -= 1
                    qos.admitted += tokens
                if fault.enabled:
                    sequence = self._fault_seq
                    self._fault_seq = sequence + 1
                    if (
                        fault.max_faults is None or self.faults_injected < fault.max_faults
                    ) and fault_fires(fault, self.address, op, sequence):
                        self.tally_op(op, "faults_injected")
                        self.sim.record("rpc_fault", op=op, sequence=sequence)
                        yield self._message_latency  # the round trip that never completed
                        raise SimulatedFaultError(
                            f"injected fault on {op} (sequence {sequence})"
                        )
                return (yield from body(*args))
            except SimulatedFaultError:
                if not retries or attempt >= retry.max_attempts:
                    raise
                self.tally_op(op, "retries")
                self.sim.record("rpc_retry", op=op, attempt=attempt)
                yield retry.backoff_base * retry.backoff_factor ** (attempt - 1)
                attempt += 1
            except TargetDownError:
                if not self._health or not (yield from self._refresh_pool_map()):
                    raise
                self.tally_op(op, "retries")
                self.sim.record(
                    "rpc_map_refresh", op=op, map_version=self._map_view.version
                )
                attempt = 1

    def eq_create(self, name: str = "eq") -> EventQueue:
        """A fresh event queue for asynchronous submissions (``daos_eq_create``)."""
        return EventQueue(self.sim, name=name)

    # -- vectorized multi-op submission -------------------------------------------
    def kv_put_many(self, entries):
        """Insert/overwrite many keys in one multi-op (``kv_put_multi``).

        ``entries`` is an iterable of ``(kv, key, value)`` triples; the KVs
        may differ (a FieldIO batch spans several forecast indexes).  See
        :meth:`_do_multi` for what the batch shares and what it does not.
        """
        entries = tuple(entries)
        sizes = [len(value) for _kv, _key, value in entries]
        return (
            yield self._call(
                "kv_put_multi", self._do_multi, ("kv_put", self._do_kv_put, entries, sizes),
                sum(sizes), "kv_put", len(entries),
            )
        )

    def kv_get_many(self, entries):
        """Look up many keys in one multi-op (``kv_get_multi``).

        ``entries`` is an iterable of ``(kv, key)`` pairs.  Returns the
        values in entry order, ``None`` for absent keys (the
        ``kv_get_or_none`` contract, per key).
        """
        entries = tuple(entries)
        return (
            yield self._call(
                "kv_get_multi", self._do_multi,
                ("kv_get", self._do_kv_get_or_none, entries, [0] * len(entries)),
                0, "kv_get", len(entries),
            )
        )

    def _do_multi(self, op: str, body, entries: tuple, sizes: list):
        """Run ``body(*entry)`` for each entry in turn, each a bare ``op``
        (moving its ``sizes`` bytes) on a driver of its own.

        With no policy the simulated timeline is identical to launching the
        ops one by one; what the batch saves is the per-op policy pass.
        The sub-op's driver counts and observes it, so counts, latency and
        byte totals land in the same per-op slots whether ops were launched
        singly or batched (the wrapper is additionally counted once under
        its own op).  The client's policy applies to the wrapper as a unit:
        one fault-injection/retry decision covers the whole batch, and QoS
        admission meters one token per covered sub-op (:meth:`_call`).
        """
        results = []
        for entry, nbytes in zip(entries, sizes):
            results.append((yield self._launch(op, body(*entry), nbytes)))
        return results

    # -- small helpers -----------------------------------------------------------
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

        The slot is claimed through its gate: taken inline when free on a
        settled instant, else granted FIFO behind every waiter and every
        same-instant entry (:class:`~repro.simulation.events.Gate`).
        """
        yield service.slot
        try:
            yield service_time
        finally:
            service.release()

    def _target_leg(self, target_index: int, service_time: float):
        """Leg: the authoritative check, then a service slot at the target."""
        if self._health:
            self._reject_if_down(target_index)
        return self._service_leg(self.system.targets[target_index].service, service_time)

    def _refresh_pool_map(self):
        """Refetch the pool map from the pool service (``pool_query``).

        Legs of the map refresh in :meth:`_attempt`.  Returns ``True`` when
        the fetched map is newer than the cached view -- the signal that
        running the op again can possibly help.
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
    def pool_connect(self, pool: Pool):
        """Connect to a pool (handshake with the pool service)."""
        return (yield self._call("pool_connect", self._do_pool_connect, (pool,)))

    def _do_pool_connect(self, pool: Pool):
        yield self._message_latency
        yield from self._service_leg(
            self.system.pool_service, self.config.container_open_service_time
        )
        yield self._message_latency
        return pool

    def container_create(
        self,
        pool: Pool,
        uuid: Optional[uuid_module.UUID] = None,
        label: str = "",
        is_default: bool = False,
    ):
        """Create a container; raises :class:`ContainerExistsError` on a race loss.

        The existence check ends the pool-service window, in the step that
        releases the slot (no other waiter runs in between), so md5-derived
        concurrent creates (§4) behave exactly like the real collective: one
        creator wins, the rest see EXIST.
        """
        return (
            yield self._call(
                "container_create", self._do_container_create, (pool, uuid, label, is_default)
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
        yield from self._service_leg(
            self.system.pool_service, self.config.container_create_service_time
        )
        container = pool.create_container(uuid=uuid, label=label, is_default=is_default)
        yield self._message_latency
        self._remember_container(pool, container, label)
        return container

    @staticmethod
    def _cache_key(ref_or_container) -> str:
        if isinstance(ref_or_container, Container):
            return str(ref_or_container.uuid)
        return str(ref_or_container)

    def _remember_container(self, pool: Pool, container: Container, alias: str) -> None:
        """Cache ``container``'s handle under its UUID and ``alias`` (a label
        or the ref it was opened by; empty for none)."""
        cache = self._container_cache
        if cache is None:
            cache = self._container_cache = {}
        if alias:
            cache[(pool.label, alias)] = container
        cache[(pool.label, str(container.uuid))] = container

    def _forget_container(self, pool: Pool, container: Container) -> None:
        """Evict ``container``'s cached handle on every alias (label and UUID)."""
        cache = self._container_cache
        if cache:
            cache.pop((pool.label, str(container.uuid)), None)
            if container.label:
                cache.pop((pool.label, container.label), None)

    def container_open(self, pool: Pool, ref: ContainerRef):
        """Open a container by UUID or label, cached per client (§5.2).

        The cache hit is a pure local lookup — no RPC is built and nothing
        is launched, exactly like a cached handle in libdaos.
        """
        alias = self._cache_key(ref)
        cache = self._container_cache
        cached = cache.get((pool.label, alias)) if cache else None
        if cached is not None:
            self.container_open_cached += 1
            return cached
        return (yield self._call("container_open", self._do_container_open, (pool, ref, alias)))

    def _do_container_open(self, pool: Pool, ref: ContainerRef, alias: str):
        yield self._message_latency
        yield from self._service_leg(
            self.system.pool_service, self.config.container_open_service_time
        )
        container = pool.open_container(ref)
        yield self._message_latency
        # A container may be addressable by both label and uuid.
        self._remember_container(pool, container, alias)
        return container

    def container_exists(self, pool: Pool, ref: ContainerRef):
        """Probe existence (a pool-service lookup)."""
        return (yield self._call("container_exists", self._do_container_exists, (pool, ref)))

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
        return (yield self._call("container_destroy", self._do_container_destroy, (pool, ref)))

    def _do_container_destroy(self, pool: Pool, ref: ContainerRef):
        yield self._message_latency
        yield from self._service_leg(
            self.system.pool_service, self.config.container_create_service_time
        )
        container = pool.destroy_container(ref)
        for obj in list(container.objects()):
            if isinstance(obj, ArrayObject):
                self._refund_stored(pool, obj)
        yield self._message_latency
        self._forget_container(pool, container)

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
        return (yield self._call("kv_open", self._do_kv_open, (kv,)))

    def _do_kv_open(self, kv: KeyValueObject):
        yield self._message_latency
        yield from self._target_leg(self._lead_target(kv), self.config.rpc_service_time)
        yield self._message_latency
        return kv

    def kv_put(self, kv: KeyValueObject, key: bytes, value: bytes):
        """Insert/overwrite a key.

        Updates serialise at the object (exclusive hold for the put service
        time), which is the mechanism behind the paper's shared-index-KV
        contention (§5.2, Fig 4).
        """
        return (yield self._call("kv_put", self._do_kv_put, (kv, key, value), len(value)))

    def _kv_write_targets(self, kv: KeyValueObject, key: bytes) -> List[int]:
        """Targets a dkey update must service: every live replica.

        Raises :class:`TargetDownError` when the cached view shows no
        replica alive -- the map refresh of :meth:`_attempt` refetches the
        map and runs the op again, or surfaces the loss when the map agrees.
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
        cluster = self.system.cluster
        if write:
            path = cluster.fabric.write_path(self.address, engine)
        else:
            path = cluster.fabric.read_path(self.address, engine)
        yield cluster.net.transfer(
            path,
            nbytes,
            rate_cap=cluster.provider.per_flow_cap,
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
        yield lock.exclusive
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
        value = yield self._call("kv_get", self._do_kv_get_or_none, (kv, key))
        if value is None:
            raise KeyNotFoundError(f"key {key!r} not found")
        return value

    def kv_get_or_none(self, kv: KeyValueObject, key: bytes):
        """Look up a key, returning ``None`` when absent (Algorithm 1 probe).

        Lookups hold the object's serialisation point for the (shorter) get
        service time — VOS dkey-tree descent on a hot shared object is what
        bends the Fig 4 read curves.
        """
        return (yield self._call("kv_get", self._do_kv_get_or_none, (kv, key)))

    def _do_kv_get_or_none(self, kv: KeyValueObject, key: bytes):
        yield self._message_latency
        lock = kv.lock
        yield lock.exclusive
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
        return (yield self._call("kv_list", self._do_kv_list, (kv,)))

    def _do_kv_list(self, kv: KeyValueObject):
        page_size = self.config.kv_list_page_size
        keys = list(kv.keys())
        yield self._message_latency
        lock = kv.lock
        yield lock.exclusive
        try:
            pages = max(1, -(-len(keys) // page_size))
            yield from self._target_leg(
                self._lead_target(kv), self.config.kv_get_service_time * pages
            )
        finally:
            lock.release_write()
        yield self._message_latency
        return keys

    def kv_remove(self, kv: KeyValueObject, key: bytes):
        """Remove a key (same serialisation as a put)."""
        return (yield self._call("kv_remove", self._do_kv_remove, (kv, key)))

    def _do_kv_remove(self, kv: KeyValueObject, key: bytes):
        yield self._message_latency
        lock = kv.lock
        yield lock.exclusive
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
        return (yield self._call("array_create", self._do_array_create, (container, array)))

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
        return (yield self._call("array_open", self._do_array_open, (container, array)))

    def _do_array_open(self, container: Container, array: ArrayObject):
        yield self._message_latency
        yield from self._container_touch(container)
        yield from self._target_leg(
            self._lead_target(array), self.config.array_open_service_time
        )
        yield self._message_latency
        return array

    def array_close(self, array: ArrayObject):
        """Close an array handle (flush + release)."""
        return (yield self._call("array_close", self._do_array_close, (array,)))

    def _do_array_close(self, array: ArrayObject):
        yield from self._target_leg(
            self._lead_target(array), self.config.array_close_service_time
        )
        yield self._message_latency

    def array_get_size(self, array: ArrayObject):
        """Query the array size (a lead-target RPC)."""
        return (yield self._call("array_get_size", self._do_array_get_size, (array,)))

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
        return (yield self._call("array_punch", self._do_array_punch, (container, array, pool)))

    def _do_array_punch(
        self, container: Container, array: ArrayObject, pool: Optional[Pool]
    ):
        yield self._message_latency
        lock = array.lock
        yield lock.exclusive
        try:
            yield from self._target_leg(
                self._lead_target(array), self.config.rpc_service_time
            )
            container.remove_object(array.oid)
            if pool is not None:
                self._refund_stored(pool, array)
        finally:
            lock.release_write()
        yield self._message_latency

    def array_set_size(self, array: ArrayObject, size: int, pool: Optional[Pool] = None):
        """Truncate/extend the array to ``size`` bytes (lead-target RPC).

        Truncation refunds the discarded bytes to the pool when one is given.
        """
        return (
            yield self._call("array_set_size", self._do_array_set_size, (array, size, pool))
        )

    def _do_array_set_size(self, array: ArrayObject, size: int, pool: Optional[Pool]):
        yield self._message_latency
        lock = array.lock
        yield lock.exclusive
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
            lock.release_write()
        yield self._message_latency

    def _shard_io(self, target_index: int, nbytes: int, write: bool):
        """One shard: target service overhead, then the bulk flow."""
        service = (
            self.config.shard_write_overhead if write else self.config.shard_read_overhead
        )
        yield from self._target_leg(target_index, service)
        engine = self.system.engine_of_target(target_index)
        cluster = self.system.cluster
        if write:
            path = cluster.fabric.write_path(self.address, engine)
        else:
            path = cluster.fabric.read_path(self.address, engine)
        yield cluster.net.transfer(
            path,
            nbytes,
            rate_cap=cluster.provider.per_flow_cap,
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
        :meth:`_target_leg` rejects the op instead (honest data loss).
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
        if not isinstance(payload, Payload):
            payload = BytesPayload(bytes(payload))
        return (
            yield self._call(
                "array_write", self._do_array_write, (array, offset, payload, pool), payload.size
            )
        )

    def _do_array_write(
        self, array: ArrayObject, offset: int, payload: Payload, pool: Optional[Pool]
    ):
        yield self._message_latency
        lock = array.lock
        yield lock.exclusive
        try:
            yield from self._array_transfer(array, offset, payload.size, pool, write=True)
            array.write(offset, payload)
        finally:
            lock.release_write()
        yield self._message_latency

    def array_read(self, array: ArrayObject, offset: int, length: int):
        """Read ``[offset, offset+length)``; concurrent reads share the lock."""
        return (
            yield self._call("array_read", self._do_array_read, (array, offset, length), length)
        )

    def _do_array_read(self, array: ArrayObject, offset: int, length: int):
        yield self._message_latency
        lock = array.lock
        yield lock.shared
        try:
            payload = array.read(offset, length)  # validate range before moving data
            yield from self._array_transfer(array, offset, length, None, write=False)
        finally:
            lock.release_read()
        yield self._message_latency
        return payload
