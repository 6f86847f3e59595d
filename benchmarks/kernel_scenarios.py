"""Kernel scenarios: deterministic micro-workloads, one per kernel hot path.

The simulator's own cost — not the simulated system's bandwidth — is what
bounds how far the reproduction can be swept (paper-scale runs put thousands
of concurrent flows through :class:`~repro.network.flow.FlowNetwork` and
2000 ops per process through the DAOS client).  Each scenario aims at one
hot path: max-min rate recomputation (``many_flow_contention``;
``wide_contention``, the only one whose solves run the array kernel;
``barrier_burst``, recompute coalescing), same-instant batching and flow
aggregation (``flow_storm_5k``, ``flow_storm_100k``), event dispatch,
resources, locks and dkey hashing through the full client stack
(``kv_storm``, ``rpc_storm``), the serving request -> key -> index-entry
path (``serving_storm``), Field I/O end to end (``fieldio_small``) and the
experiment grid runner (``grid_fanout``).

Every scenario returns a :class:`ScenarioResult` carrying a bit-exact
SHA-256 digest of its simulated outcome.  ``scripts/profile_hotpath.py``
counts each scenario's calls and queue entries beside that digest, and the
``counts`` rail of ``scripts/rails.py`` checks both against ``COUNTS.json``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List

from repro.bench.fieldio_bench import Contention, FieldIOBenchParams, run_fieldio_pattern_a
from repro.bench.runner import build_deployment
from repro.config import ClusterConfig
from repro.daos.client import DaosClient
from repro.daos.objclass import OC_S1, OC_SX
from repro.daos.oid import ObjectId
from repro.daos.rpc import merge_op_stats
from repro.experiments.product_serving import serving_point
from repro.experiments.runner import ExecOptions, GridSpec, run_grid
from repro.experiments.units import ior_point
from repro.network.flow import FlowNetwork
from repro.simulation import Simulator
from repro.units import GiB, KiB, MiB

__all__ = ["ScenarioResult", "SCENARIOS"]


@dataclass
class ScenarioResult:
    """Outcome of one kernel scenario."""

    sim_time: float
    digest: str
    extra: Dict[str, float] = field(default_factory=dict)


def _hexdigest(parts: List[str]) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(part.encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


def _many_flow_contention() -> ScenarioResult:
    """160 concurrent flows across shared rails/engines (paper-scale mix)."""
    n_flows = 160
    sim = Simulator(seed=7)
    net = FlowNetwork(sim)
    clients = [net.add_link(f"client{i}.tx", 9.5 * GiB) for i in range(32)]
    rails = [net.add_link(f"rail{i}", 37.5 * GiB) for i in range(2)]
    engines = [net.add_link(f"engine{i}.rx", 2.6 * GiB) for i in range(8)]
    media = [net.add_link(f"scm{i}", 5.5 * GiB) for i in range(8)]
    rng = sim.rng.stream("kernel-many-flow")
    delays = rng.uniform(0.0, 0.05, size=n_flows)
    sizes = rng.uniform(24 * MiB, 64 * MiB, size=n_flows)

    flows: List[object] = []
    peak = [0]

    def submit(i: int):
        yield float(delays[i])
        path = [
            clients[i % 32],
            rails[i % 2],
            engines[i % 8],
            # SCM media traversed twice: write amplification, as in Fabric.
            media[i % 8],
            media[i % 8],
        ]
        done = net.transfer(path, float(sizes[i]), rate_cap=3.1 * GiB, name=f"f{i}")
        if net.active_flows > peak[0]:
            peak[0] = net.active_flows
        flow = yield done
        flows.append(flow)

    processes = [sim.process(submit(i), name=f"submit{i}") for i in range(n_flows)]
    sim.run(until=sim.all_of(processes))

    flows.sort(key=lambda f: f.fid)
    digest = _hexdigest(
        [f"{f.fid}|{f.size.hex()}|{f.start_time.hex()}|{f.end_time.hex()}" for f in flows]
        + [float(net.completed_bytes).hex(), float(sim.now).hex()]
    )
    return ScenarioResult(
        sim_time=sim.now,
        digest=digest,
        extra={
            "n_flows": n_flows,
            "peak_concurrent_flows": peak[0],
            "solves": net.solver_runs,
            "vector_solves": net.vector_solves,
            "changes": net.flow_changes,
        },
    )


def _wide_contention() -> ScenarioResult:
    """160 writers held on 96 distinct client→engine paths, closed loop.

    The wide Field I/O regime (``fieldio_wide`` in the end-to-end ledger):
    every process streams its own sequence of distinctly sized transfers
    down its own path, so the population stays at 160 flows in 96 groups
    and every instant is one completion plus its replacement — one solve
    with far more than ``_VEC_SOLVE_MIN`` groups in scope, all joined
    through the rails and engines.  Every other flow scenario here
    coalesces to fewer than 40 groups and never leaves the scalar kernel;
    this one is what exercises (and digests) ``FlowNetwork._solve_vector``.
    """
    n_procs, n_ops = 160, 4
    sim = Simulator(seed=31)
    net = FlowNetwork(sim)
    clients = [net.add_link(f"client{i}.tx", 9.5 * GiB) for i in range(96)]
    rails = [net.add_link(f"rail{i}", 37.5 * GiB) for i in range(2)]
    engines = [net.add_link(f"engine{i}.rx", 2.6 * GiB) for i in range(16)]
    media = [net.add_link(f"scm{i}", 5.5 * GiB) for i in range(16)]
    rng = sim.rng.stream("kernel-wide-contention")
    sizes = rng.uniform(1 * MiB, 5 * MiB, size=(n_procs, n_ops))
    end_times: List[List[float]] = [[] for _ in range(n_procs)]
    peak = [0, 0]

    def writer(i: int):
        # Rail by parity, engine by i // 2: each rail reaches every engine,
        # so the population is one component and every solve spans it.
        target = (i // 2) % 16
        path = (clients[i % 96], rails[i % 2], engines[target], media[target], media[target])
        for op in range(n_ops):
            done = net.transfer(path, float(sizes[i, op]), rate_cap=3.1 * GiB, name="w")
            if net.active_flows > peak[0]:
                peak[0] = net.active_flows
                peak[1] = net.active_groups
            flow = yield done
            end_times[i].append(flow.end_time)

    processes = [sim.process(writer(i), name=f"writer{i}") for i in range(n_procs)]
    sim.run(until=sim.all_of(processes))

    digest = _hexdigest(
        [t.hex() for times in end_times for t in times]
        + [float(net.completed_bytes).hex(), float(sim.now).hex()]
    )
    return ScenarioResult(
        sim_time=sim.now,
        digest=digest,
        extra={
            "n_flows": n_procs * n_ops,
            "peak_concurrent_flows": peak[0],
            "groups": peak[1],
            "solves": net.solver_runs,
            "vector_solves": net.vector_solves,
            "changes": net.flow_changes,
        },
    )


def _barrier_burst() -> ScenarioResult:
    """Waves of same-instant arrivals (processes leaving a barrier at once)."""
    waves, per_wave = 4, 80
    sim = Simulator(seed=11)
    net = FlowNetwork(sim)
    shared = net.add_link("backbone", 20.0 * GiB)
    locals_ = [net.add_link(f"leaf{i}", 3.0 * GiB) for i in range(16)]
    end_times: List[float] = []

    def driver():
        for wave in range(waves):
            done = [
                net.transfer(
                    [locals_[i % 16], shared],
                    # Distinct sizes: completions land on distinct instants,
                    # so every wave drains through ~per_wave recomputes.
                    8 * MiB + i * (MiB // 64),
                    rate_cap=2.0 * GiB,
                    name=f"w{wave}.{i}",
                )
                for i in range(per_wave)
            ]
            result = yield sim.all_of(done)
            for event in result.events:
                end_times.append(event.value.end_time)

    process = sim.process(driver(), name="barrier-driver")
    sim.run(until=process)

    digest = _hexdigest(
        [t.hex() for t in end_times]
        + [float(net.completed_bytes).hex(), float(sim.now).hex()]
    )
    return ScenarioResult(
        sim_time=sim.now,
        digest=digest,
        extra={
            "waves": waves,
            "flows_per_wave": per_wave,
            "solves": net.solver_runs,
            "changes": net.flow_changes,
        },
    )


def _flow_storm(per_wave: int) -> ScenarioResult:
    """Two synchronised waves of ``per_wave`` concurrent flows.

    The IOR "segments" regime (synchronised access pattern A at far beyond
    paper scale): every wave parks its whole flow population on 20 distinct
    client→engine→media paths at one simulated instant, most of the wave
    completes in two synchronised batches (two size tiers over fully
    symmetric paths), and a staggered tail of distinct sizes drains through
    per-instant solves over the still ~full component.  Exercises
    same-instant batching (``solves`` << ``changes``), hierarchical
    aggregation (each solve is O(distinct paths) rows: ``groups``) and the
    completion batches, thousands of triggered events at one instant that
    are plain appends to the event queue's live bucket
    (``events_per_instant``).
    """
    waves, tail = 2, 120
    sim = Simulator(seed=23)
    net = FlowNetwork(sim)
    clients = [net.add_link(f"client{i}.tx", 9.5 * GiB) for i in range(20)]
    rails = [net.add_link(f"rail{i}", 37.5 * GiB) for i in range(4)]
    engines = [net.add_link(f"engine{i}.rx", 2.6 * GiB) for i in range(10)]
    media = [net.add_link(f"scm{i}", 5.5 * GiB) for i in range(10)]
    end_times: List[float] = []
    peak = [0, 0]

    # The path pattern repeats every 20 flows; reusing the 20 tuples keeps
    # the submission loop allocation-free (a tuple path passes through
    # ``transfer`` without copying).
    paths = [
        (clients[i % 20], rails[i % 4], engines[i % 10], media[i % 10], media[i % 10])
        for i in range(20)
    ]

    def driver():
        for wave in range(waves):
            done = []
            for i in range(per_wave):
                if i < per_wave - tail:
                    # Two symmetric size tiers: each tier completes in one
                    # synchronised batch (one solve serves the whole batch).
                    size = 32 * MiB if i % 2 == 0 else 48 * MiB
                else:
                    # Staggered tail: distinct sizes, one solve per instant
                    # over a still nearly-full component.
                    size = 64 * MiB + i * (MiB // 32)
                done.append(net.transfer(paths[i % 20], size, rate_cap=3.1 * GiB, name="s"))
            peak[0] = max(peak[0], net.active_flows)
            peak[1] = max(peak[1], net.active_groups)
            result = yield sim.all_of(done)
            for event in result.events:
                end_times.append(event.value.end_time)

    process = sim.process(driver(), name="storm-driver")
    sim.run(until=process)

    digest = _hexdigest(
        [t.hex() for t in end_times]
        + [float(net.completed_bytes).hex(), float(sim.now).hex()]
    )
    return ScenarioResult(
        sim_time=sim.now,
        digest=digest,
        extra={
            "waves": waves,
            "flows_per_wave": per_wave,
            "peak_concurrent_flows": peak[0],
            "groups": peak[1],
            "solves": net.solver_runs,
            "vector_solves": net.vector_solves,
            "changes": net.flow_changes,
            "events_per_instant": round(sim.events_processed / sim.instants, 2),
        },
    )


def _kv_storm() -> ScenarioResult:
    """Many processes hammering one shared index KV through the full client."""
    processes_per_node, ops = 8, 60
    config = ClusterConfig(n_server_nodes=1, n_client_nodes=2, seed=13)
    cluster, system, pool = build_deployment(config)
    sim = cluster.sim
    addresses = cluster.client_addresses(processes_per_node)

    bootstrap_client = DaosClient(system, addresses[0])

    def bootstrap():
        container = yield from bootstrap_client.container_create(
            pool, label="kv-storm", is_default=True
        )
        kv = yield from bootstrap_client.kv_open(container, ObjectId(1, 1), OC_SX)
        return kv

    boot = sim.process(bootstrap(), name="kv-storm-boot")
    sim.run(until=boot)
    kv = boot.value

    def storm(rank: int, client: DaosClient):
        for op in range(ops):
            key = f"field/{rank}/{op}".encode()
            yield from client.kv_put(kv, key, b"x" * 64)
            value = yield from client.kv_get(kv, key)
            assert value is not None

    workers = [
        sim.process(storm(rank, DaosClient(system, address)), name=f"storm{rank}")
        for rank, address in enumerate(addresses)
    ]
    sim.run(until=sim.all_of(workers))

    digest = _hexdigest(
        [float(sim.now).hex(), str(len(list(kv.keys()))), str(len(addresses) * ops)]
    )
    return ScenarioResult(
        sim_time=sim.now,
        digest=digest,
        extra={"processes": len(addresses), "ops_per_process": ops},
    )


def _rpc_storm() -> ScenarioResult:
    """64 clients hammering the metadata plane on both backends.

    The workload the metadata fast path exists for: a herd of clients doing
    small KV puts/gets on *private* per-rank index objects, salted with
    ``container_exists`` probes and ``kv_remove`` calls — the FDB-style
    index-maintenance mix of §5.2, with almost no lock contention, so the
    per-op RPC machinery (attempt loop, event churn, resource grants)
    dominates the cost.  The same storm runs against the DAOS and the
    posixfs backend through :func:`~repro.bench.runner.build_deployment` +
    ``system.make_client``; the digest folds in each backend's final
    simulated clock, the op totals and the merged per-op metrics, so any
    fast-path divergence — timing, counts or accounting — trips it.
    """
    processes_per_node, ops = 16, 30
    parts: List[str] = []
    total_ops = 0
    sim_time = 0.0

    for backend in ("daos", "posixfs"):
        config = ClusterConfig(n_server_nodes=2, n_client_nodes=4, seed=29)
        cluster, system, pool = build_deployment(config, backend=backend)
        sim = cluster.sim
        addresses = cluster.client_addresses(processes_per_node)

        boot_client = system.make_client(addresses[0])

        def bootstrap(client=boot_client):
            container = yield from client.container_create(
                pool, label="rpc-storm", is_default=True
            )
            return container

        boot = sim.process(bootstrap(), name="rpc-storm-boot")
        sim.run(until=boot)
        container = boot.value

        clients = [system.make_client(address) for address in addresses]

        def storm(rank, client, container=container, pool=pool):
            kv = yield from client.kv_open(
                container, ObjectId(1, 100 + rank), OC_S1
            )
            for op in range(ops):
                key = f"idx/{rank}/{op}".encode()
                yield from client.kv_put(kv, key, b"m" * 32)
                value = yield from client.kv_get(kv, key)
                assert value is not None
                if op % 4 == 3:
                    present = yield from client.container_exists(pool, "rpc-storm")
                    assert present
                if op % 8 == 7:
                    yield from client.kv_remove(kv, key)

        workers = [
            sim.process(storm(rank, client), name=f"rpc{rank}")
            for rank, client in enumerate(clients)
        ]
        sim.run(until=sim.all_of(workers))

        merged = merge_op_stats(client.op_metrics for client in clients)
        sim_time += float(sim.now)
        parts.append(f"{backend}|{float(sim.now).hex()}")
        for op_name in sorted(merged):
            entry = merged[op_name]
            parts.append(
                f"{backend}|{op_name}|{entry.count}|{entry.errors}"
                f"|{entry.total_time.hex()}|{entry.total_bytes}"
            )
            total_ops += entry.count

    return ScenarioResult(
        sim_time=sim_time,
        digest=_hexdigest(parts),
        extra={
            "processes": len(addresses),
            "ops_per_process": ops,
            "total_ops": total_ops,
        },
    )


def _serving_storm() -> ScenarioResult:
    """Zipf MARS requests through ``Gateway`` + FDB after a catalog archive.

    One CI-scale ``product_serving`` grid point, QoS on: ``serving_request``
    -> ``Request.expand`` -> cache probe -> ``FieldIO.read`` (key split, two
    index lookups, array read), on a schedule that re-requests a small
    catalog many times over -- the regime where the interned requests and
    the per-key memos (expansion, schema split, canonical bytes) carry the
    client-side cost.  The digest covers the whole projection: served/shed
    counts, cache and QoS counters, the serve duration and the latency
    percentiles of every served request.
    """
    n_fields, n_requests = 32, 600
    field_size = 64 * KiB
    point = serving_point(
        servers=1, clients=2, seed=17,
        n_fields=n_fields, field_size=field_size, exponent=1.2, n_tenants=2,
        rate=4000.0, n_requests=n_requests, span=2,
        cache_bytes=n_fields * field_size // 2, ttl=None,
        replication=1, promote_threshold=8, workers=2,
        qos_rate=3000.0, qos_burst=1.0, qos_depth=4096,
    )
    return ScenarioResult(
        sim_time=point["duration"],
        digest=_hexdigest([json.dumps(point, sort_keys=True)]),
        extra={
            key: point[key] for key in ("served", "shed", "fields", "hits", "misses")
        },
    )


def _fieldio_small() -> ScenarioResult:
    """Miniature end-to-end Field I/O pattern-A run (client + FDB + fabric)."""
    n_ops = 4
    config = ClusterConfig(n_server_nodes=1, n_client_nodes=2, seed=3)
    cluster, system, pool = build_deployment(config)
    params = FieldIOBenchParams(
        contention=Contention.HIGH,
        n_ops=n_ops,
        field_size=1 * MiB,
        processes_per_node=4,
    )
    result = run_fieldio_pattern_a(cluster, system, pool, params)
    digest = _hexdigest(
        [result.log.digest(), float(cluster.net.completed_bytes).hex()]
    )
    return ScenarioResult(
        sim_time=cluster.sim.now,
        digest=digest,
        extra={"n_ops": n_ops, "records": len(result.log)},
    )


def _grid_fanout() -> ScenarioResult:
    """The experiment grid runner: serial vs ``jobs=2`` over real IOR units.

    Runs the fan-out machinery (unit slotting, the pool threshold) over
    identical tiny work units, and asserts that the parallel job count
    reproduces the serial results exactly — the merge-determinism contract
    the experiment drivers rely on.
    """
    n_units = 4
    grid = GridSpec("grid_fanout")
    for i in range(n_units):
        grid.add(
            ior_point,
            servers=1,
            clients=1,
            ppn=2,
            segments=4,
            segment_size=1 * MiB,
            seed=100 + i,
        )

    reference = run_grid(grid, ExecOptions(jobs=1))
    if run_grid(grid, ExecOptions(jobs=2)) != reference:
        raise AssertionError("grid_fanout: jobs=2 results differ from serial")

    return ScenarioResult(
        sim_time=sum(point["sim_time"] for point in reference),
        digest=_hexdigest([json.dumps(reference, sort_keys=True)]),
        extra={"n_units": n_units},
    )


#: The kernel scenarios, in reporting order: name -> run.
SCENARIOS: Dict[str, Callable[[], ScenarioResult]] = {
    "many_flow_contention": _many_flow_contention,
    "wide_contention": _wide_contention,
    "barrier_burst": _barrier_burst,
    "flow_storm_5k": partial(_flow_storm, 1_200),
    "flow_storm_100k": partial(_flow_storm, 20_000),
    "kv_storm": _kv_storm,
    "rpc_storm": _rpc_storm,
    "serving_storm": _serving_storm,
    "fieldio_small": _fieldio_small,
    "grid_fanout": _grid_fanout,
}

