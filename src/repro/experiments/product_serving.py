"""Product-serving experiment: cache-hit and tail-latency curves under zipf load.

The ROADMAP's "millions of users" scenario: an archived forecast cycle is
hammered by open-loop, zipf-distributed, multi-tenant MARS retrievals
through the :mod:`repro.serving` gateway.  Three sweeps over one deployment
shape per point:

* **cache** — gateway field-cache capacity from a sliver of the catalog to
  all of it: the cache-hit rate curve (hits climb, storage reads melt
  away);
* **rate** — offered load from comfortable to 6x with per-tenant QoS
  admission on the storage path: token-bucket throttling keeps tail
  latency bounded and sheds the overflow, where the unprotected twin at
  the same load backlogs into a tail several times longer;
* **replication** — the cycle-rollover worst case: the cache has just been
  invalidated (capacity 0) and heavily-skewed reads of MiB-scale products
  go straight to storage, so the rank-1 field saturates its engine's SCM
  read bandwidth.  The gateway promotes hot fields to 2x/3x replicated
  object classes and the replica reads spread over engines, pulling the
  whole latency distribution down.

Latency is per *request* (arrival to last field served), reported as
p50/p95/p99/p999 through the shared deterministic percentile helper.  Shed
requests are counted, not timed.  The replication sweep needs replicated
object classes and is restricted to factor 1 on the posixfs backend.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.bench.runner import build_deployment
from repro.config import ClusterConfig
from repro.experiments.common import (
    ExperimentResult,
    GridSpec,
    Scale,
    Series,
    latency_percentiles,
    run_grid,
)
from repro.experiments.units import backend_kwargs
from repro.fdb.fieldio import FieldIO
from repro.serving.gateway import Gateway, GatewayConfig
from repro.serving.qos import QosPolicy
from repro.units import KiB, MiB
from repro.workloads.fields import field_payload
from repro.workloads.generator import serving_catalog, serving_request
from repro.workloads.zipf import TenantSpec, zipf_schedule

__all__ = ["run", "serving_point"]

TITLE = "Product serving: cache-hit and tail latency under zipf load"


def serving_point(
    *,
    servers: int,
    clients: int,
    seed: int,
    n_fields: int,
    field_size: int,
    exponent: float,
    n_tenants: int,
    rate: float,
    n_requests: int,
    span: int,
    cache_bytes: int,
    ttl: Optional[float],
    replication: int,
    promote_threshold: int,
    workers: int,
    qos_rate: Optional[float],
    qos_burst: float,
    qos_depth: int,
    backend: str = "daos",
) -> Dict[str, Any]:
    """Grid unit: archive a catalog, serve one zipf schedule, JSON projection.

    ``qos_rate`` is the per-tenant admitted storage-read rate (``None``
    disables admission).  Latencies are request arrival -> completion in
    simulated seconds; shed requests are excluded from the percentiles.
    """
    config = ClusterConfig(n_server_nodes=servers, n_client_nodes=clients, seed=seed)
    cluster, system, pool = build_deployment(config, backend=backend)
    sim = cluster.sim

    boot = system.make_client(cluster.client_addresses(1)[0])
    sim.run(until=sim.process(FieldIO.bootstrap(boot, pool)))
    catalog = serving_catalog(n_fields)
    loader = FieldIO(system.make_client(cluster.client_addresses(1)[0]), pool)

    def _load():
        for key in catalog:
            yield from loader.write(key, field_payload(key, field_size))

    sim.run(until=sim.process(_load(), name="serving:load"))

    gateway = Gateway(
        cluster,
        system,
        pool,
        GatewayConfig(
            cache_capacity=cache_bytes,
            cache_ttl=ttl,
            replication=replication,
            promote_threshold=promote_threshold,
            workers_per_tenant=workers,
            # One simulated gateway stands in for a fleet of instances:
            # same-gateway miss coalescing would absorb the cross-gateway
            # thundering herd these sweeps measure (QoS meltdown, rollover
            # replication), so the sweeps pin it off.
            coalesce=False,
        ),
    )
    policy = (
        QosPolicy(rate=qos_rate, burst=qos_burst, max_queue_depth=qos_depth)
        if qos_rate is not None
        else None
    )
    for tenant_index in range(n_tenants):
        gateway.add_tenant(f"t{tenant_index}", policy=policy)

    schedule = zipf_schedule(
        n_requests=n_requests,
        rate=rate,
        n_fields=n_fields,
        exponent=exponent,
        tenants=[TenantSpec(f"t{i}") for i in range(n_tenants)],
        seed=seed,
    )

    latencies: List[float] = []

    def _user(arrival: float, tenant: str, request, index: int):
        outcome = yield from gateway.serve(tenant, request, worker=index)
        if not outcome["shed"]:
            latencies.append(sim.now - arrival)

    def _traffic(start: float):
        for index, (offset, tenant, field_id) in enumerate(schedule):
            arrival = start + offset
            if arrival > sim.now:
                yield arrival - sim.now
            request = serving_request(field_id, n_fields, span=span)
            sim.process(
                _user(sim.now, tenant, request, index), name=f"serving:user{index}"
            )

    serve_start = sim.now
    sim.process(_traffic(serve_start), name="serving:traffic")
    sim.run()

    cache = gateway.cache
    stats = gateway.stats()
    qos_stats = [q for q in (gateway.tenant_qos(t) for t in gateway.tenants) if q]
    point: Dict[str, Any] = {
        "served": len(latencies),
        "shed": stats["shed"],
        "fields": stats["fields"],
        "hits": cache.hits,
        "misses": cache.misses,
        "hit_rate": cache.hit_rate,
        "evictions": cache.evictions,
        "expirations": cache.expirations,
        "promotions": gateway.promotions,
        "qos_delayed": sum(q.delayed for q in qos_stats),
        "qos_shed_ops": sum(q.shed for q in qos_stats),
        "max_queue": max((q.max_waiting for q in qos_stats), default=0),
        "duration": sim.now - serve_start,
    }
    point.update(latency_percentiles(latencies))
    return point


def run(
    scale: Scale = Scale.of("ci"), seed: int = 0, backend: str = "daos"
) -> ExperimentResult:
    if scale.is_paper:
        base = dict(
            servers=2, clients=4, seed=seed,
            n_fields=512, field_size=1 * MiB, exponent=1.2, n_tenants=4,
            rate=4000.0, n_requests=12500, span=1,
            ttl=None, replication=1, promote_threshold=16, workers=4,
            qos_rate=None, qos_burst=8.0, qos_depth=16,
        )
        cache_fracs = (0.05, 0.15, 0.4, 1.0)
        rate_multipliers = (0.5, 1.0, 6.0)
    else:
        base = dict(
            servers=1, clients=2, seed=seed,
            n_fields=64, field_size=64 * KiB, exponent=1.2, n_tenants=2,
            rate=3000.0, n_requests=240, span=1,
            ttl=None, replication=1, promote_threshold=4, workers=4,
            qos_rate=None, qos_burst=4.0, qos_depth=8,
        )
        cache_fracs = (0.1, 0.4, 1.0)
        rate_multipliers = (0.5, 1.0, 6.0)

    catalog_bytes = base["n_fields"] * base["field_size"]
    replications = (1, 2, 3) if backend == "daos" else (1,)
    small_cache = int(cache_fracs[0] * catalog_bytes)
    base_rate = base["rate"]
    #: Per-tenant storage-read budget: 1.5x the base offered load in
    #: aggregate, so the comfortable points pass untouched and the overload
    #: point sheds instead of melting down.
    tenant_qos_rate = 1.5 * base_rate / base["n_tenants"]
    #: The replication sweep's regime: cache just invalidated by a cycle
    #: rollover, MiB-scale products, skew strong enough that the rank-1
    #: field's read flow alone saturates one engine's SCM media bandwidth.
    repl_overrides = dict(
        cache_bytes=0,
        ttl=None,
        field_size=1 * MiB,
        exponent=2.5,
        rate=9000.0,
    )

    extra = backend_kwargs(backend)
    grid = GridSpec("product_serving")
    for frac in cache_fracs:
        grid.add(
            serving_point,
            **{**base, "cache_bytes": int(frac * catalog_bytes)},
            **extra,
        )
    for multiplier in rate_multipliers:
        grid.add(
            serving_point,
            **{
                **base,
                "cache_bytes": small_cache,
                "rate": base_rate * multiplier,
                "qos_rate": tenant_qos_rate,
            },
            **extra,
        )
    # The unprotected twin of the top-rate point: same load, no admission.
    grid.add(
        serving_point,
        **{
            **base,
            "cache_bytes": small_cache,
            "rate": base_rate * rate_multipliers[-1],
        },
        **extra,
    )
    for replication in replications:
        grid.add(
            serving_point,
            **{**base, **repl_overrides, "replication": replication},
            **extra,
        )
    points = run_grid(grid)

    n_cache = len(cache_fracs)
    n_rate = len(rate_multipliers)
    cache_points = points[:n_cache]
    rate_points = points[n_cache : n_cache + n_rate]
    noqos_point = points[n_cache + n_rate]
    repl_points = points[n_cache + n_rate + 1 :]

    result = ExperimentResult(experiment="product_serving", title=TITLE)
    result.headers = [
        "sweep", "cache MiB", "req/s", "repl", "qos", "served", "shed",
        "hit %", "p50 ms", "p95 ms", "p99 ms", "p999 ms",
    ]

    def _row(sweep: str, cache_bytes: int, req_rate: float, replication: int,
             qos: bool, point: Dict[str, Any]) -> List[object]:
        return [
            sweep,
            f"{cache_bytes / MiB:.1f}",
            f"{req_rate:.0f}",
            replication,
            "on" if qos else "off",
            point["served"],
            point["shed"],
            f"{point['hit_rate'] * 100:.1f}",
            f"{point['p50'] * 1e3:.3f}",
            f"{point['p95'] * 1e3:.3f}",
            f"{point['p99'] * 1e3:.3f}",
            f"{point['p999'] * 1e3:.3f}",
        ]

    cache_mibs = [round(frac * catalog_bytes / MiB, 2) for frac in cache_fracs]
    for frac, point in zip(cache_fracs, cache_points):
        result.rows.append(
            _row("cache", int(frac * catalog_bytes), base_rate, 1, False, point)
        )
    offered = [base_rate * m for m in rate_multipliers]
    for req_rate, point in zip(offered, rate_points):
        result.rows.append(_row("rate", small_cache, req_rate, 1, True, point))
    result.rows.append(_row("rate", small_cache, offered[-1], 1, False, noqos_point))
    for replication, point in zip(replications, repl_points):
        result.rows.append(
            _row("repl", 0, repl_overrides["rate"], replication, False, point)
        )

    result.series.append(
        Series(
            "hit rate vs cache MiB",
            cache_mibs,
            [p["hit_rate"] for p in cache_points],
            unit="fraction",
            scale=1.0,
        )
    )
    result.series.append(
        Series(
            "p99 vs offered load (qos on)",
            [f"{m:g}x" for m in rate_multipliers],
            [p["p99"] * 1e3 for p in rate_points],
            unit="ms",
            scale=1.0,
        )
    )
    result.series.append(
        Series(
            "p99 vs replication",
            list(replications),
            [p["p99"] * 1e3 for p in repl_points],
            unit="ms",
            scale=1.0,
        )
    )

    top_rate_point = rate_points[-1]
    result.notes.append(
        f"qos at {rate_multipliers[-1]:g}x offered load: "
        f"{top_rate_point['shed']} requests shed, max queue "
        f"{top_rate_point['max_queue']}/{base['qos_depth']}, p99 "
        f"{top_rate_point['p99'] * 1e3:.3f} ms vs "
        f"{noqos_point['p99'] * 1e3:.3f} ms unprotected"
    )
    result.notes.append(
        "replication sweep (rollover-invalidated cache, "
        f"{repl_overrides['field_size'] // MiB} MiB products, zipf "
        f"{repl_overrides['exponent']:g}): promotions "
        + "/".join(str(p["promotions"]) for p in repl_points)
    )
    if backend != "daos":
        result.notes.append(
            f"backend {backend}: no replicated object classes — "
            "replication sweep restricted to factor 1"
        )
    total = sum(p["served"] + p["shed"] for p in points)
    result.notes.append(f"total simulated requests: {total}")
    return result
