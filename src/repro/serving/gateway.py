"""The request-serving gateway: MARS requests -> cached field reads.

A :class:`Gateway` fronts one deployment's field store for a population of
dissemination users.  Each tenant gets a pool of worker storage clients
(spread over distinct client addresses, so replica reads fan out across
engines) sharing one :class:`~repro.serving.qos.QosAdmission`;
all tenants share one :class:`~repro.serving.cache.FieldCache`.

Serving a :class:`~repro.fdb.request.Request` expands it once and walks the
field keys in expansion order: a cache hit costs only the gateway service
time (:data:`HIT_SERVICE_TIME`), a miss goes to storage through the
tenant's QoS'd client and populates the cache.  A request keeps its
expansion and each key its schema split, so a product requested again (the
same ``Request`` object, as the workload generators hand out) costs the
gateway no key work.  Concurrent misses of the same field are *coalesced*
by default: the first misser becomes the leader and issues the single
storage read, every other misser parks on an in-flight event and is handed
the payload when the leader's read lands — the thundering herd of a cycle
rollover costs one ``kv_get`` instead of one per herd member.  If the
leader is shed (or fails), followers retry from the cache check, so a
failure never wedges the herd.  ``coalesce=False`` restores the
herd-per-field behaviour for experiments that want to expose it.

Hot-object replication: the gateway counts accesses per field; at the
promotion threshold a field is queued for a background promoter process
that re-archives it under a replicated object class (``OC_RP_2G1`` /
``OC_RP_3G1``).  The overwrite allocates a fresh replicated array and
re-points the index (§4 semantics), after which storage reads of that
field spread over the replica targets by worker address.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.daos.errors import InvalidArgumentError, ServiceBusyError
from repro.daos.objclass import OC_RP_2G1, OC_RP_3G1, ObjectClass
from repro.daos.payload import Payload
from repro.fdb.fieldio import FieldIO
from repro.fdb.key import FieldKey
from repro.fdb.request import Request
from repro.fdb.schema import DEFAULT_SCHEMA, KeySchema
from repro.serving.cache import FieldCache
from repro.serving.qos import QosAdmission, QosPolicy
from repro.simulation.resources import Store
from repro.units import MiB

__all__ = ["GatewayConfig", "Gateway", "REPLICATED_CLASSES"]

#: Replication factor -> the object class hot fields are promoted to.
REPLICATED_CLASSES: Dict[int, ObjectClass] = {2: OC_RP_2G1, 3: OC_RP_3G1}

#: Gateway-side service time charged for a cache hit, seconds.
HIT_SERVICE_TIME = 20e-6

#: Ops the per-tenant QoS admission covers: the index lookup, so one token
#: per storage field read and none for a cache hit.
QOS_OPS: Tuple[str, ...] = ("kv_get",)


@dataclass(frozen=True)
class GatewayConfig:
    """Gateway sizing and policy knobs."""

    #: Field-cache byte budget.
    cache_capacity: int = 64 * MiB
    #: Field-cache entry TTL (cycle rollover), ``None`` = no expiry.
    cache_ttl: Optional[float] = None
    #: Replication factor hot fields are promoted to (1 disables promotion).
    replication: int = 1
    #: Accesses after which a field is promoted.
    promote_threshold: int = 8
    #: Worker storage clients per tenant.
    workers_per_tenant: int = 4
    #: Coalesce concurrent misses of one field into a single storage read.
    coalesce: bool = True

    def __post_init__(self) -> None:
        if self.replication not in (1, *REPLICATED_CLASSES):
            raise InvalidArgumentError(
                f"replication must be one of {sorted((1, *REPLICATED_CLASSES))}, "
                f"got {self.replication}"
            )
        if self.promote_threshold < 1:
            raise InvalidArgumentError(
                f"promote_threshold must be >= 1, got {self.promote_threshold}"
            )
        if self.workers_per_tenant < 1:
            raise InvalidArgumentError(
                f"workers_per_tenant must be >= 1, got {self.workers_per_tenant}"
            )


@dataclass
class _Tenant:
    """One tenant's worker pool, QoS handle, and counters."""

    workers: List[FieldIO]
    qos: Optional[QosAdmission]
    stats: Dict[str, int] = field(
        default_factory=lambda: {
            "requests": 0, "fields": 0, "hits": 0, "misses": 0, "shed": 0,
        }
    )


class Gateway:
    """A product-serving front end over one simulated deployment.

    Construct, :meth:`add_tenant` for each tenant, then drive
    :meth:`serve` generators inside simulation processes (one per incoming
    request).  ``replication > 1`` requires a backend with replicated
    object classes (DAOS); the posixfs backend rejects the promotion write.
    """

    def __init__(
        self,
        cluster,
        system,
        pool,
        config: Optional[GatewayConfig] = None,
        schema: KeySchema = DEFAULT_SCHEMA,
    ) -> None:
        self.cluster = cluster
        self.system = system
        self.pool = pool
        self.config = config or GatewayConfig()
        self.schema = schema
        self.sim = cluster.sim
        self.cache = FieldCache(
            self.config.cache_capacity, ttl=self.config.cache_ttl
        )
        self._tenants: Dict[str, _Tenant] = {}
        self._access_counts: Dict[FieldKey, int] = {}
        #: Insertion-ordered set of fields queued for promotion.
        self._promoted: Dict[FieldKey, None] = {}
        #: Per-field read currently in flight -> event followers park on.
        self._inflight: Dict[FieldKey, object] = {}
        self.promotions = 0
        #: Misses absorbed by an already-in-flight read.
        self.coalesced = 0
        self._promote_queue: Optional[Store] = None
        self._promote_fieldio: Optional[FieldIO] = None
        if self.config.replication > 1:
            oclass = REPLICATED_CLASSES[self.config.replication]
            address = cluster.client_addresses(1)[0]
            self._promote_fieldio = FieldIO(
                system.make_client(address), pool, array_oclass=oclass
            )
            self._promote_queue = Store(self.sim, name="gateway:promote")
            self.sim.process(self._promoter(), name="gateway:promoter")

    # -- tenants ----------------------------------------------------------------
    def _worker_addresses(self) -> Sequence:
        """Addresses to spread one tenant's workers over: distinct
        (node, socket) pairs first, so replica reads fan out across
        engines via the client-address replica selection."""
        nodes = self.cluster.config.n_client_nodes
        per_node = -(-self.config.workers_per_tenant // nodes)
        return self.cluster.client_addresses(per_node)[: self.config.workers_per_tenant]

    def add_tenant(
        self,
        name: str,
        policy: Optional[QosPolicy] = None,
        addresses: Optional[Sequence] = None,
    ) -> None:
        """Register a tenant: worker clients plus (optionally) QoS admission."""
        if name in self._tenants:
            raise InvalidArgumentError(f"tenant {name!r} already registered")
        qos = (
            QosAdmission(name, policy, ops=QOS_OPS)
            if policy is not None
            else None
        )
        if addresses is None:
            addresses = self._worker_addresses()
        workers = []
        for address in addresses:
            client = self.system.make_client(address, middleware=qos)
            workers.append(FieldIO(client, self.pool, schema=self.schema))
        self._tenants[name] = _Tenant(workers=workers, qos=qos)

    @property
    def tenants(self) -> Tuple[str, ...]:
        return tuple(self._tenants)

    def tenant_stats(self, name: str) -> Dict[str, int]:
        return dict(self._tenants[name].stats)

    def tenant_qos(self, name: str) -> Optional[QosAdmission]:
        return self._tenants[name].qos

    # -- serving ----------------------------------------------------------------
    def serve(self, tenant: str, request, worker: int = 0):
        """Serve one MARS request for ``tenant`` (a simulation generator).

        Returns ``{"fields", "hits", "misses", "shed"}``; a shed request
        stops at the first :class:`ServiceBusyError` with ``shed=True``
        (partial work is still counted).  A field answered by another
        request's in-flight read still counts as a miss here (it was not
        in cache when asked for) — the saving shows up in storage op
        counts, not in the hit ratio.
        """
        state = self._tenants[tenant]
        if isinstance(request, str):
            request = Request.parse(request)
        elif not isinstance(request, Request):
            request = Request(request)
        fieldio = state.workers[worker % len(state.workers)]
        keys = request.expand(self.schema)
        stats = state.stats
        stats["requests"] += 1
        hits = misses = 0
        shed = False
        coalesce = self.config.coalesce
        for key in keys:
            while True:
                payload = self.cache.get(key, now=self.sim.now)
                if payload is not None:
                    hits += 1
                    yield HIT_SERVICE_TIME
                    break
                if coalesce:
                    pending = self._inflight.get(key)
                    if pending is not None:
                        # Follower: park on the leader's in-flight read.
                        self.coalesced += 1
                        payload = yield pending
                        if payload is None:
                            # Leader shed/failed; retry from the cache check
                            # (we may become the next leader).
                            continue
                        misses += 1
                        break
                    event = self.sim.event(name="gateway:inflight")
                    self._inflight[key] = event
                try:
                    payload = yield from fieldio.read(key)
                except ServiceBusyError:
                    shed = True
                    stats["shed"] += 1
                    if coalesce:
                        del self._inflight[key]
                        event.succeed(None)
                    break
                except BaseException:
                    if coalesce:
                        del self._inflight[key]
                        event.succeed(None)
                    raise
                misses += 1
                self.cache.put(key, payload, now=self.sim.now)
                if coalesce:
                    del self._inflight[key]
                    event.succeed(payload)
                break
            if shed:
                break
            self._note_access(key, payload)
        stats["fields"] += hits + misses
        stats["hits"] += hits
        stats["misses"] += misses
        return {"fields": hits + misses, "hits": hits, "misses": misses, "shed": shed}

    # -- hot-object promotion ----------------------------------------------------
    def _note_access(self, key: FieldKey, payload: Payload) -> None:
        count = self._access_counts.get(key, 0) + 1
        self._access_counts[key] = count
        if (
            self._promote_queue is not None
            and count == self.config.promote_threshold
            and key not in self._promoted
        ):
            self._promoted[key] = None
            self._promote_queue.put((key, payload))

    def _promoter(self):
        """Background process: re-archive queued hot fields replicated."""
        while True:
            key, payload = yield self._promote_queue.get()
            yield from self._promote_fieldio.write(key, payload)
            self.promotions += 1
            self.sim.record(
                "hot_promotion",
                key=key,
                replicas=self.config.replication,
            )

    @property
    def promoted_fields(self) -> Tuple[FieldKey, ...]:
        """Fields queued for promotion so far (order of queueing)."""
        return tuple(self._promoted)

    # -- aggregate stats -----------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Gateway-wide rollup across tenants plus cache counters."""
        total = {"requests": 0, "fields": 0, "hits": 0, "misses": 0, "shed": 0}
        for tenant in self._tenants.values():
            for field_name, value in tenant.stats.items():
                total[field_name] += value
        total["cache_evictions"] = self.cache.evictions
        total["cache_expirations"] = self.cache.expirations
        total["promotions"] = self.promotions
        total["coalesced"] = self.coalesced
        return total
