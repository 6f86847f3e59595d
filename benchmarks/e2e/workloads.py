"""The five benchmark workloads, driven through the layers' public functions.

Every workload is a list of named *points*; a point builds fresh
deployments, runs one benchmark shape to completion and returns a
:class:`PointOutcome`: simulated totals, unit-op latencies, a digest of the
simulated outcome, and counters read from public accessors.  Nothing here
reaches into ``src/`` beyond ``build_deployment``, ``run_ior``,
``run_fieldio_pattern_a/b``, ``system.make_client`` + client ops,
``FieldIO``, ``Gateway`` and ``zipf_schedule``.

All simulated clients are closed-loop (the next op is issued when the
previous one completes) except ``product_serving``, which is open-loop in
simulated time: requests fire on the zipf schedule regardless of backlog
and latency is counted from the scheduled arrival.  The traffic process
sleeps until each arrival in simulated time, so the generator is never
late by construction.

Shapes are frozen here (``SHAPES``); the one size knob per workload is
marked.  ``smoke`` shapes exist only for the package's own test.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.bench.fieldio_bench import (
    Contention,
    FieldIOBenchParams,
    run_fieldio_pattern_a,
    run_fieldio_pattern_b,
)
from repro.bench.ior import IorParams, run_ior
from repro.bench.runner import build_deployment
from repro.config import ClusterConfig
from repro.daos.objclass import OC_S1, OC_SX
from repro.daos.oid import ObjectId
from repro.daos.rpc import DATA_OPS, merge_op_stats
from repro.fdb.fieldio import FieldIO
from repro.fdb.modes import FieldIOMode
from repro.serving.gateway import Gateway, GatewayConfig
from repro.serving.qos import QosPolicy
from repro.simulation.rng import RngRegistry
from repro.units import GiB, MiB
from repro.workloads.fields import field_payload
from repro.workloads.generator import serving_catalog, serving_request
from repro.workloads.zipf import TenantSpec, zipf_schedule

__all__ = ["PointOutcome", "WORKLOADS", "SHAPES", "TABLE1_PAPER", "COUNTERS"]

#: Counters every point reports (0 where the layer is not exercised).  Summed
#: over a workload's points, except ``peak_concurrent_ops`` (max); ``run.py``
#: derives ``solves_per_change`` and ``hit_rate`` from them.
COUNTERS = (
    "network.flow.solves",
    "network.flow.changes",
    "network.flow.evicted",
    "simulation.scheduler_switches",
    "daos.rpc.ops",
    "daos.rpc.meta_ops",
    "daos.rpc.data_ops",
    "daos.rpc.errors",
    "daos.rpc.retries",
    "daos.rpc.sim_busy_s",
    "fdb.fields_written",
    "fdb.fields_read",
    "serving.requests",
    "serving.hits",
    "serving.misses",
    "serving.evictions",
    "serving.shed",
    "serving.qos_delayed",
    "serving.coalesced",
    "serving.promotions",
    "bench.peak_concurrent_ops",
)

#: Table 1 of the paper (w, r GiB/s) in the order the ``table1`` point
#: sweeps it: (engines, client sockets) x client nodes 1, 2.
TABLE1_PAPER: Dict[Tuple[int, int, int], Tuple[float, float]] = {
    (1, 1, 1): (3.0, 4.2),
    (1, 1, 2): (2.6, 6.2),
    (1, 2, 1): (3.0, 7.4),
    (1, 2, 2): (2.9, 7.7),
    (2, 2, 1): (5.5, 7.5),
    (2, 2, 2): (5.5, 9.5),
}


@dataclass
class PointOutcome:
    """What one point of a workload produced (simulated) and cost (host)."""

    sim_time: float = 0.0
    #: Unit ops attempted / failed (failed includes errored and shed ops
    #: and every violated correctness check).
    ops: int = 0
    failed: int = 0
    payload_bytes: int = 0
    #: Simulated latency of every completed unit op, seconds.
    latencies: List[float] = field(default_factory=list)
    #: Bit-exact rendering of the simulated outcome, folded into the digest.
    digest_parts: List[str] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    #: Host seconds spent in ``build_deployment`` / named sub-phases.
    build_s: float = 0.0
    phases: Dict[str, float] = field(default_factory=dict)
    #: ``ior_scaling`` only: mean |sim - paper| / paper over Table 1, percent.
    model_err_pct: float = 0.0
    errors: List[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        """Record a violated correctness check as one failed op."""
        if not ok:
            self.failed += 1
            self.errors.append(message)


class _Deployment:
    """A fresh deployment whose clients are remembered for their op stats.

    ``run_ior`` and ``Gateway`` create their clients internally and do not
    hand them back; shadowing ``system.make_client`` on the instance is the
    one hook that lets the benchmark read every client's public
    ``op_metrics`` afterwards without touching ``src/``.
    """

    def __init__(self, outcome: PointOutcome, config: ClusterConfig, backend: str = "daos"):
        start = time.perf_counter()
        self.cluster, self.system, self.pool = build_deployment(config, backend=backend)
        outcome.build_s += time.perf_counter() - start
        self.sim = self.cluster.sim
        self.clients: List[object] = []
        make_client = self.system.make_client

        def recording_make_client(address, middleware=None):
            client = make_client(address, middleware=middleware)
            self.clients.append(client)
            return client

        self.system.make_client = recording_make_client

    def close(self, outcome: PointOutcome, allowed_errors: Dict[str, int] = None) -> None:
        """Fold this deployment's simulated time, kernel counters and RPC
        stats into ``outcome`` and check that no RPC failed unexpectedly.

        ``container_create`` losing the create-if-absent race of §5.2 (every
        process of a shared forecast tries to create its container) is the
        one error the benchmarked shapes produce by design; ``allowed_errors``
        names any others a point expects, per op.
        """
        counters = outcome.counters
        net = self.cluster.net

        def add(name: str, value: float) -> None:
            counters[name] = counters.get(name, 0) + value

        add("network.flow.solves", net.solver_runs)
        add("network.flow.changes", net.flow_changes)
        add("network.flow.evicted", net.evicted_flows)
        add("simulation.scheduler_switches", self.sim.scheduler_switches)
        merged = merge_op_stats(client.op_metrics for client in self.clients)
        for op in sorted(merged):
            entry = merged[op]
            add("daos.rpc.ops", entry.count)
            add("daos.rpc.data_ops" if op in DATA_OPS else "daos.rpc.meta_ops", entry.count)
            add("daos.rpc.errors", entry.errors)
            add("daos.rpc.retries", entry.retries)
            add("daos.rpc.sim_busy_s", entry.total_time)
            outcome.digest_parts.append(
                f"{op}|{entry.count}|{entry.errors}|{entry.total_time.hex()}|{entry.total_bytes}"
            )
            if op != "container_create":
                expected = (allowed_errors or {}).get(op, 0)
                outcome.check(
                    entry.errors == expected,
                    f"{entry.errors} {op} errors, expected {expected}",
                )
        outcome.sim_time += self.sim.now
        outcome.digest_parts.append(float(self.sim.now).hex())


def _peak_concurrency(intervals: List[Tuple[float, float]]) -> int:
    """Most unit ops in flight at one simulated instant."""
    edges = sorted(
        [(start, 1) for start, _ in intervals] + [(end, -1) for _, end in intervals]
    )
    peak = live = 0
    for _, step in edges:
        live += step
        if live > peak:
            peak = live
    return peak


def _fold_log(outcome: PointOutcome, log, expected_records: int) -> None:
    """Unit ops, latencies, bytes and digest of a ``TimestampLog``."""
    outcome.ops += expected_records
    outcome.check(
        len(log) == expected_records,
        f"expected {expected_records} I/O records, got {len(log)}",
    )
    outcome.payload_bytes += log.total_bytes
    outcome.latencies.extend(record.duration for record in log)
    outcome.digest_parts.append(log.digest())
    peak = _peak_concurrency([(r.io_start, r.io_end) for r in log])
    counters = outcome.counters
    counters["bench.peak_concurrent_ops"] = max(
        counters.get("bench.peak_concurrent_ops", 0), peak
    )


# -- seeded inputs beyond the issue's list ----------------------------------------
#
# The issue has ``--seed`` feed ``ClusterConfig.seed``, the Field I/O
# start-up skew and the zipf schedule.  That moves the sim numbers of the
# fieldio pair and of ``product_serving``, but IOR waves are bandwidth-bound
# whatever the placement and the metadata plane is symmetric and
# key-independent: ``metadata_storm`` gives the same simulated outcome for
# every ``ClusterConfig.seed`` and ``ior_scaling`` one of two, with the same
# ``sim_p99_ms`` to the last digit.  The driver makes inputs from the seed
# and refuses a time that reads the same on every run, so each of the two
# workloads takes one more seeded input, defined here and nowhere else.


def _ior_segments(seed: int, segments: int) -> int:
    """Segment count of every IOR deployment of one pass: ``segments`` +-2.

    One draw per pass, shared by both points.  Bandwidth, and so
    ``model_err_pct``, does not depend on it (13.0889 at 98 and at 102).
    """
    return segments + int(RngRegistry(seed).stream("e2e-ior-segments").integers(-2, 3))


#: Longest seeded start-up delay of a storm client, simulated seconds.
_STORM_SKEW_S = 0.005


def _storm_start_delays(sim, n: int):
    """Start-up delay of each storm client, up to ``_STORM_SKEW_S``: MPI
    launches stagger, as the Field I/O benchmark's ``startup_skew`` models;
    the storm has no library driver to carry one."""
    return sim.rng.stream("e2e-storm-skew").uniform(0.0, _STORM_SKEW_S, size=n)


# -- fieldio_contended / fieldio_wide ----------------------------------------------


def _fieldio_point(seed: int, *, pattern: str, ppn: int, mode: str, contention: str,
                   n_ops: int, skew: float = 0.1, servers: int = 4,
                   clients: int = 8) -> PointOutcome:
    outcome = PointOutcome()
    config = ClusterConfig(n_server_nodes=servers, n_client_nodes=clients, seed=seed)
    deployment = _Deployment(outcome, config)
    params = FieldIOBenchParams(
        mode=FieldIOMode.from_name(mode),
        contention=Contention(contention),
        n_ops=n_ops,
        field_size=1 * MiB,
        processes_per_node=ppn,
        startup_skew=skew,
    )
    procs = clients * ppn
    if pattern == "A":
        result = run_fieldio_pattern_a(deployment.cluster, deployment.system,
                                       deployment.pool, params)
        expected = 2 * procs * n_ops
        setup_writes = 0
    else:
        result = run_fieldio_pattern_b(deployment.cluster, deployment.system,
                                       deployment.pool, params)
        expected = procs * n_ops
        setup_writes = procs // 2
    _fold_log(outcome, result.log, expected)
    deployment.close(outcome)
    writes = len(result.log.by_op("write"))
    outcome.counters["fdb.fields_written"] = writes + setup_writes
    outcome.counters["fdb.fields_read"] = len(result.log) - writes
    return outcome


# -- ior_scaling ---------------------------------------------------------------------


def _ior_run(outcome: PointOutcome, seed: int, *, servers: int, clients: int, ppn: int,
             segments: int, engines: int = None, sockets: int = None):
    kwargs = dict(n_server_nodes=servers, n_client_nodes=clients, seed=seed)
    if engines is not None:
        kwargs["engines_per_server"] = engines
    if sockets is not None:
        kwargs["client_sockets"] = sockets
    deployment = _Deployment(outcome, ClusterConfig(**kwargs))
    params = IorParams(segment_size=1 * MiB, segments=segments, processes_per_node=ppn)
    result = run_ior(deployment.cluster, deployment.system, deployment.pool, params)
    _fold_log(outcome, result.log, 2 * clients * ppn)
    deployment.close(outcome)
    return result.summary


def _ior_table1(seed: int, *, ppns, seeds: int, segments: int) -> PointOutcome:
    """Table 1's six one-server configurations; carries ``model_err_pct``."""
    outcome = PointOutcome()
    errors = []
    segments = _ior_segments(seed, segments)
    for (engines, sockets, client_nodes), (paper_w, paper_r) in TABLE1_PAPER.items():
        best_w = best_r = 0.0
        for ppn in ppns:
            for rep in range(seeds):
                summary = _ior_run(
                    outcome, seed + rep, servers=1, clients=client_nodes, ppn=ppn,
                    segments=segments, engines=engines, sockets=sockets,
                )
                best_w = max(best_w, summary.write_sync or 0.0)
                best_r = max(best_r, summary.read_sync or 0.0)
        errors.append(abs(best_w / GiB - paper_w) / paper_w)
        errors.append(abs(best_r / GiB - paper_r) / paper_r)
    outcome.model_err_pct = 100.0 * sum(errors) / len(errors)
    return outcome


def _ior_fig3(seed: int, *, server_counts, ppns, segments: int) -> PointOutcome:
    """Fig 3's 2x-clients column."""
    outcome = PointOutcome()
    segments = _ior_segments(seed, segments)
    for servers in server_counts:
        for ppn in ppns:
            _ior_run(outcome, seed, servers=servers, clients=2 * servers, ppn=ppn,
                     segments=segments)
    return outcome


# -- metadata_storm ------------------------------------------------------------------


def _storm_point(seed: int, *, backend: str, shared: bool, ppn: int,
                 iterations: int) -> PointOutcome:
    """64 closed-loop clients on the metadata plane of one backend.

    ``private``: per-rank ``OC_S1`` KV, put+get each iteration,
    ``container_exists`` every 4th and ``kv_remove`` every 8th (the
    ``rpc_storm`` mix, uncontended locks).  ``shared``: one ``OC_SX`` KV
    for every rank, put+get (the ``kv_storm`` shape, contended locks).
    """
    outcome = PointOutcome()
    config = ClusterConfig(n_server_nodes=2, n_client_nodes=4, seed=seed)
    deployment = _Deployment(outcome, config, backend=backend)
    sim, system, pool = deployment.sim, deployment.system, deployment.pool
    addresses = deployment.cluster.client_addresses(ppn)
    label = "storm"

    boot_client = system.make_client(addresses[0])

    def bootstrap():
        container = yield from boot_client.container_create(pool, label=label, is_default=True)
        kv = None
        if shared:
            kv = yield from boot_client.kv_open(container, ObjectId(1, 1), OC_SX)
        return container, kv

    container, shared_kv = sim.run(until=sim.process(bootstrap(), name="storm:boot"))
    #: (start, end) of every metadata op, simulated seconds.
    intervals: List[Tuple[float, float]] = []
    value = b"m" * 32
    delays = _storm_start_delays(sim, len(addresses))

    def storm(rank: int, client):
        yield sim.timeout(float(delays[rank]))
        kv = shared_kv
        if kv is None:
            kv = yield from client.kv_open(container, ObjectId(1, 100 + rank), OC_S1)
        for op in range(iterations):
            key = f"idx/{rank}/{op}".encode()
            start = sim.now
            yield from client.kv_put(kv, key, value)
            mid = sim.now
            got = yield from client.kv_get(kv, key)
            end = sim.now
            intervals.append((start, mid))
            intervals.append((mid, end))
            if got is None or len(got) != len(value):
                outcome.check(False, f"rank {rank} op {op}: read back {got!r}")
            else:
                outcome.payload_bytes += 2 * len(value)
            if shared:
                continue
            if op % 4 == 3:
                present = yield from client.container_exists(pool, label)
                intervals.append((end, sim.now))
                outcome.check(bool(present), f"rank {rank}: container vanished")
            if op % 8 == 7:
                start = sim.now
                yield from client.kv_remove(kv, key)
                intervals.append((start, sim.now))

    workers = [
        sim.process(storm(rank, system.make_client(address)), name=f"storm:{rank}")
        for rank, address in enumerate(addresses)
    ]
    sim.run(until=sim.all_of(workers))

    per_rank = 2 * iterations
    if not shared:
        per_rank += iterations // 4 + iterations // 8
    outcome.ops = per_rank * len(addresses)
    outcome.check(
        len(intervals) == outcome.ops,
        f"expected {outcome.ops} metadata ops, timed {len(intervals)}",
    )
    deployment.close(outcome)
    outcome.latencies.extend(end - start for start, end in intervals)
    outcome.counters["bench.peak_concurrent_ops"] = _peak_concurrency(intervals)
    outcome.digest_parts.extend(t.hex() for t in outcome.latencies)
    return outcome


# -- product_serving -----------------------------------------------------------------


def _serving_point(seed: int, *, n_fields: int, n_requests: int, rate: float,
                   cache_frac: float, qos: Tuple[float, float, int] = None,
                   field_size: int = 1 * MiB) -> PointOutcome:
    """Archive a catalog through ``FieldIO.write``, then serve a zipf schedule.

    Mirrors ``repro.experiments.product_serving.serving_point`` (paper-scale
    base: 2 server / 4 client nodes, zipf 1.2, 4 tenants, 4 workers per
    tenant, coalescing off) but drives ``Gateway`` itself so the archive
    and serve phases and the raw request latencies are visible.
    """
    outcome = PointOutcome()
    config = ClusterConfig(n_server_nodes=2, n_client_nodes=4, seed=seed)
    deployment = _Deployment(outcome, config)
    cluster, system, pool, sim = (
        deployment.cluster, deployment.system, deployment.pool, deployment.sim
    )

    archive_start = time.perf_counter()
    address = cluster.client_addresses(1)[0]
    sim.run(until=sim.process(FieldIO.bootstrap(system.make_client(address), pool)))
    catalog = serving_catalog(n_fields)
    loader = FieldIO(system.make_client(address), pool)

    def load():
        for key in catalog:
            yield from loader.write(key, field_payload(key, field_size))

    sim.run(until=sim.process(load(), name="serving:load"))
    outcome.phases["archive"] = time.perf_counter() - archive_start

    serve_start_host = time.perf_counter()
    gateway = Gateway(
        cluster, system, pool,
        GatewayConfig(
            cache_capacity=int(cache_frac * n_fields * field_size),
            promote_threshold=16,
            workers_per_tenant=4,
            coalesce=False,
        ),
    )
    policy = None
    if qos is not None:
        qos_rate, qos_burst, qos_depth = qos
        policy = QosPolicy(rate=qos_rate, burst=qos_burst, max_queue_depth=qos_depth)
    tenants = [f"t{i}" for i in range(4)]
    for tenant in tenants:
        gateway.add_tenant(tenant, policy=policy)
    schedule = zipf_schedule(
        n_requests=n_requests, rate=rate, n_fields=n_fields, exponent=1.2,
        tenants=[TenantSpec(tenant) for tenant in tenants], seed=seed,
    )

    latencies = outcome.latencies
    intervals: List[Tuple[float, float]] = []

    def user(arrival: float, tenant: str, request, index: int):
        result = yield from gateway.serve(tenant, request, worker=index)
        if result["shed"]:
            outcome.failed += 1
        else:
            outcome.payload_bytes += result["fields"] * field_size
            latencies.append(sim.now - arrival)
            intervals.append((arrival, sim.now))

    def traffic(start: float):
        for index, (offset, tenant, field_id) in enumerate(schedule):
            arrival = start + offset
            if arrival > sim.now:
                yield sim.timeout(arrival - sim.now)
            request = serving_request(field_id, n_fields)
            sim.process(user(arrival, tenant, request, index), name=f"serving:user{index}")

    sim.process(traffic(sim.now), name="serving:traffic")
    sim.run()
    outcome.phases["serve"] = time.perf_counter() - serve_start_host

    stats = gateway.stats()
    outcome.ops = n_requests
    outcome.check(
        stats["requests"] == n_requests,
        f"gateway saw {stats['requests']} of {n_requests} requests",
    )
    outcome.check(
        len(latencies) + stats["shed"] == n_requests,
        f"{len(latencies)} served + {stats['shed']} shed != {n_requests}",
    )
    # QoS sheds surface as ServiceBusyError RPC errors; anything beyond
    # them is unexpected.
    qos_handles = [q for q in (gateway.tenant_qos(t) for t in tenants) if q]
    shed_ops = sum(q.shed for q in qos_handles)
    delayed_ops = sum(q.delayed for q in qos_handles)
    deployment.close(outcome, allowed_errors={"kv_get": shed_ops})
    if qos is not None:
        # The point exists to put the token bucket in the path.
        outcome.check(delayed_ops > 0, "QoS is configured but never delayed an op")
    outcome.counters.update({
        "fdb.fields_written": n_fields + gateway.promotions,
        "fdb.fields_read": stats["misses"],
        "serving.requests": stats["requests"],
        "serving.hits": stats["hits"],
        "serving.misses": stats["misses"],
        "serving.evictions": stats["cache_evictions"],
        "serving.shed": stats["shed"],
        "serving.qos_delayed": delayed_ops,
        "serving.coalesced": stats["coalesced"],
        "serving.promotions": stats["promotions"],
        "bench.peak_concurrent_ops": _peak_concurrency(intervals),
    })
    outcome.digest_parts.extend(t.hex() for t in latencies)
    outcome.digest_parts.append(repr(sorted(stats.items())))
    return outcome


# -- registry ------------------------------------------------------------------------

Point = Tuple[str, Callable[..., PointOutcome], dict]

#: Frozen shapes.  ``# knob`` marks the one size a time cap may shrink.
SHAPES: Dict[str, Dict[str, List[Point]]] = {
    "full": {
        "fieldio_contended": [
            ("A", _fieldio_point, dict(pattern="A", ppn=8, mode="full",
                                       contention="high", n_ops=24)),  # knob
            ("B", _fieldio_point, dict(pattern="B", ppn=8, mode="full",
                                       contention="high", n_ops=24)),  # knob
        ],
        # Start-up skew 0.02: at these shrunken n_ops the 0.1 s skew of
        # fieldio_contended would spread 192 processes so thin that fewer
        # than 100 flows overlap and the vector solver never engages.
        "fieldio_wide": [
            ("A_noindex", _fieldio_point, dict(pattern="A", ppn=24, mode="no_index",
                                               contention="low", n_ops=5,  # knob
                                               skew=0.02)),
            ("B_full", _fieldio_point, dict(pattern="B", ppn=24, mode="full",
                                            contention="low", n_ops=8,  # knob
                                            skew=0.02)),
        ],
        "ior_scaling": [
            ("table1", _ior_table1, dict(ppns=(24, 48, 72, 96), seeds=2,  # knob
                                         segments=100)),
            ("fig3", _ior_fig3, dict(server_counts=(1, 2, 4, 8), ppns=(48, 96),
                                     segments=100)),
        ],
        "metadata_storm": [
            (f"{backend}.{kind}", _storm_point,
             dict(backend=backend, shared=kind == "shared", ppn=16,
                  iterations=iterations))  # knob
            for backend in ("daos", "posixfs")
            for kind, iterations in (("private", 300), ("shared", 130))
        ],
        # qos_paced: bucket of 3 000/s, burst 1, against ~420 index lookups/s
        # a tenant -- a lookup within 1/3 ms of the tenant's previous one
        # waits (350-480 a pass), none is shed.  Sustained overload (the
        # issue's 24 000 req/s on 1 500/s) swings the pooled latencies by
        # 27-200% from seed to seed.
        "product_serving": [
            ("cache15", _serving_point,
             dict(n_fields=512, n_requests=6000, rate=4000.0,  # knob: n_requests
                  cache_frac=0.15)),
            ("qos_paced", _serving_point,
             dict(n_fields=512, n_requests=6000, rate=4000.0,  # knob: n_requests
                  cache_frac=0.05, qos=(3000.0, 1.0, 4096))),
        ],
    },
    "smoke": {
        "fieldio_contended": [
            ("A", _fieldio_point, dict(pattern="A", ppn=2, mode="full",
                                       contention="high", n_ops=2, servers=1, clients=2)),
            ("B", _fieldio_point, dict(pattern="B", ppn=2, mode="full",
                                       contention="high", n_ops=2, servers=1, clients=2)),
        ],
        "fieldio_wide": [
            ("A_noindex", _fieldio_point, dict(pattern="A", ppn=4, mode="no_index",
                                               contention="low", n_ops=2,
                                               servers=1, clients=2)),
            ("B_full", _fieldio_point, dict(pattern="B", ppn=4, mode="full",
                                            contention="low", n_ops=2,
                                            servers=1, clients=2)),
        ],
        "ior_scaling": [
            ("table1", _ior_table1, dict(ppns=(4,), seeds=1, segments=8)),
            ("fig3", _ior_fig3, dict(server_counts=(1,), ppns=(4,), segments=8)),
        ],
        "metadata_storm": [
            (f"{backend}.{kind}", _storm_point,
             dict(backend=backend, shared=kind == "shared", ppn=2, iterations=8))
            for backend in ("daos", "posixfs")
            for kind in ("private", "shared")
        ],
        "product_serving": [
            ("cache15", _serving_point,
             dict(n_fields=32, n_requests=120, rate=4000.0, cache_frac=0.15,
                  field_size=64 * 1024)),
            ("qos_paced", _serving_point,
             dict(n_fields=32, n_requests=120, rate=4000.0, cache_frac=0.05,
                  qos=(3000.0, 1.0, 4096), field_size=64 * 1024)),
        ],
    },
}

#: Workload names, in reporting order (fixed; later issues cite them).
WORKLOADS = tuple(SHAPES["full"])


def digest_of(outcomes: Dict[str, PointOutcome]) -> str:
    """SHA-256 over every point's simulated outcome, in point order."""
    hasher = hashlib.sha256()
    for name, outcome in outcomes.items():
        hasher.update(name.encode())
        hasher.update(
            f"|{outcome.ops}|{outcome.failed}|{outcome.payload_bytes}"
            f"|{float(outcome.sim_time).hex()}\n".encode()
        )
        for part in outcome.digest_parts:
            hasher.update(part.encode())
            hasher.update(b"\n")
    return hasher.hexdigest()


def run_pass(workload: str, seed: int, shape: str = "full") -> Dict[str, PointOutcome]:
    """One pass: every point of ``workload`` on fresh deployments."""
    outcomes: Dict[str, PointOutcome] = {}
    for name, runner, kwargs in SHAPES[shape][workload]:
        start = time.perf_counter()
        outcome = runner(seed, **kwargs)
        outcome.phases["wall"] = time.perf_counter() - start
        outcomes[name] = outcome
    return outcomes
