"""Kernel performance scenarios (the ``repro bench`` harness).

The simulator's own speed — not the simulated system's bandwidth — is what
bounds how far the reproduction can be swept (paper-scale runs put thousands
of concurrent flows through :class:`~repro.network.flow.FlowNetwork` and
2000 ops per process through the DAOS client).  Each scenario here is a
deterministic micro-workload aimed at one kernel hot path:

* ``many_flow_contention`` — hundreds of simultaneously active flows over a
  shared fabric-like topology: stresses max-min rate recomputation.
* ``wide_contention`` — a held population of flows on mostly *distinct*
  paths, one completion and one replacement at a time: the wide Field I/O
  regime, and the only scenario here whose solves run the array kernel.
* ``barrier_burst`` — repeated waves of same-instant arrivals and
  near-simultaneous completions: stresses recompute coalescing and
  completion scheduling.
* ``kv_storm`` — a storm of small KV puts/gets against a shared index
  object through the full DAOS client stack: stresses event dispatch,
  resources, locks and dkey hashing.
* ``serving_storm`` — zipf MARS requests through the serving gateway and
  FDB: stresses the request -> key -> index-entry path (expansion, schema
  split, key encoding) that product generation repeats per field.
* ``fieldio_small`` — a miniature Field I/O pattern-A run end to end.

Every scenario returns a :class:`ScenarioResult` carrying a bit-exact
SHA-256 digest of its simulated outcome.  Wall time may vary run to run;
the digest must not — ``repro bench`` and the tier-1 smoke test fail loudly
if it drifts, which guards every kernel optimisation.
"""

from __future__ import annotations

import gc
import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.config import ClusterConfig
from repro.network.flow import FlowNetwork
from repro.simulation import Simulator
from repro.units import GiB, MiB

__all__ = ["ScenarioResult", "SCENARIOS", "run_scenario"]


@dataclass
class ScenarioResult:
    """Outcome of one kernel perf scenario."""

    name: str
    wall_s: float
    sim_time: float
    digest: str
    extra: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict:
        payload = {
            "wall_s": round(self.wall_s, 6),
            "sim_time": self.sim_time,
            "digest": self.digest,
        }
        payload.update({k: v for k, v in sorted(self.extra.items())})
        return payload


def _hexdigest(parts: List[str]) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(part.encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


# -- scenario: many-flow contention ------------------------------------------------


def _many_flow_contention(quick: bool) -> ScenarioResult:
    """>= 500 concurrent flows across shared rails/engines (paper-scale mix)."""
    n_flows = 160 if quick else 600
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
    start = time.perf_counter()
    sim.run(until=sim.all_of(processes))
    wall = time.perf_counter() - start

    flows.sort(key=lambda f: f.fid)
    digest = _hexdigest(
        [f"{f.fid}|{f.size.hex()}|{f.start_time.hex()}|{f.end_time.hex()}" for f in flows]
        + [float(net.completed_bytes).hex(), float(sim.now).hex()]
    )
    return ScenarioResult(
        name="many_flow_contention",
        wall_s=wall,
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


# -- scenario: wide contention -------------------------------------------------------


def _wide_contention(quick: bool) -> ScenarioResult:
    """160 writers held on 96 distinct client→engine paths, closed loop.

    The wide Field I/O regime (``fieldio_wide`` in the end-to-end ledger):
    every process streams its own sequence of distinctly sized transfers
    down its own path, so the population stays at 160 flows in 96 groups
    and every instant is one completion plus its replacement — one solve
    with far more than ``_VEC_SOLVE_MIN`` groups in scope, all joined
    through the rails and engines.  Every other flow scenario here
    coalesces to fewer than 40 groups and never leaves the scalar kernel;
    this one is what times (and digests) ``FlowNetwork._solve_vector``.
    """
    n_procs, n_ops = (160, 4) if quick else (160, 25)
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
    start = time.perf_counter()
    sim.run(until=sim.all_of(processes))
    wall = time.perf_counter() - start

    digest = _hexdigest(
        [t.hex() for times in end_times for t in times]
        + [float(net.completed_bytes).hex(), float(sim.now).hex()]
    )
    return ScenarioResult(
        name="wide_contention",
        wall_s=wall,
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


# -- scenario: barrier bursts -------------------------------------------------------


def _barrier_burst(quick: bool) -> ScenarioResult:
    """Waves of same-instant arrivals (processes leaving a barrier at once)."""
    waves, per_wave = (4, 80) if quick else (6, 300)
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
    start = time.perf_counter()
    sim.run(until=process)
    wall = time.perf_counter() - start

    digest = _hexdigest(
        [t.hex() for t in end_times]
        + [float(net.completed_bytes).hex(), float(sim.now).hex()]
    )
    return ScenarioResult(
        name="barrier_burst",
        wall_s=wall,
        sim_time=sim.now,
        digest=digest,
        extra={
            "waves": waves,
            "flows_per_wave": per_wave,
            "solves": net.solver_runs,
            "changes": net.flow_changes,
        },
    )


# -- scenario: synchronised flow storm ----------------------------------------------


def _flow_storm_5k(quick: bool) -> ScenarioResult:
    """Thousands of concurrent flows arriving in synchronised waves.

    The IOR "segments" regime (synchronised access pattern A at far beyond
    paper scale): every wave starts its whole flow population at one
    simulated instant, most of the wave completes in two synchronised
    batches (two size tiers over fully symmetric paths), and a staggered
    tail of distinct sizes drains through per-instant solves over the still
    ~full component.  Exercises both layers of the solver: same-instant
    batching (``solves`` << ``changes``) and the vectorized per-component
    water-filling pass (the tail re-solves a multi-thousand-flow scope).
    """
    waves, per_wave, tail = (2, 1200, 120) if quick else (3, 5000, 300)
    sim = Simulator(seed=23)
    net = FlowNetwork(sim)
    clients = [net.add_link(f"client{i}.tx", 9.5 * GiB) for i in range(20)]
    rails = [net.add_link(f"rail{i}", 37.5 * GiB) for i in range(4)]
    engines = [net.add_link(f"engine{i}.rx", 2.6 * GiB) for i in range(10)]
    media = [net.add_link(f"scm{i}", 5.5 * GiB) for i in range(10)]
    end_times: List[float] = []
    peak = [0]

    def driver():
        for wave in range(waves):
            done = []
            for i in range(per_wave):
                path = [
                    clients[i % 20],
                    rails[i % 4],
                    engines[i % 10],
                    media[i % 10],
                    media[i % 10],
                ]
                if i < per_wave - tail:
                    # Two symmetric size tiers: each tier completes in one
                    # synchronised batch (one solve serves the whole batch).
                    size = 32 * MiB if i % 2 == 0 else 48 * MiB
                else:
                    # Staggered tail: distinct sizes, one solve per instant
                    # over a still nearly-full component.
                    size = 64 * MiB + i * (MiB // 32)
                done.append(
                    net.transfer(path, size, rate_cap=3.1 * GiB, name=f"s{wave}.{i}")
                )
            if net.active_flows > peak[0]:
                peak[0] = net.active_flows
            result = yield sim.all_of(done)
            for event in result.events:
                end_times.append(event.value.end_time)

    process = sim.process(driver(), name="storm-driver")
    start = time.perf_counter()
    sim.run(until=process)
    wall = time.perf_counter() - start

    digest = _hexdigest(
        [t.hex() for t in end_times]
        + [float(net.completed_bytes).hex(), float(sim.now).hex()]
    )
    return ScenarioResult(
        name="flow_storm_5k",
        wall_s=wall,
        sim_time=sim.now,
        digest=digest,
        extra={
            "waves": waves,
            "flows_per_wave": per_wave,
            "peak_concurrent_flows": peak[0],
            "solves": net.solver_runs,
            "vector_solves": net.vector_solves,
            "changes": net.flow_changes,
        },
    )


def _flow_storm_100k(quick: bool) -> ScenarioResult:
    """Order-100k concurrent flows: the NWP-at-scale regime.

    Same synchronised-wave shape as ``flow_storm_5k``, scaled past what a
    per-flow solver or a binary-heap event queue can sustain: each wave
    parks ~100k flows on 20 distinct client→engine→media paths at one
    simulated instant.  This is the scenario the two structural
    optimisations exist for — hierarchical aggregation collapses each solve
    to O(distinct paths) rows, and the completion batches (tens of
    thousands of triggered events at one instant) are plain appends to the
    event queue's live bucket.  ``groups`` in the extras records the
    aggregation ratio, ``events_per_instant`` how synchronised the run is.
    """
    waves, per_wave, tail = (2, 20_000, 120) if quick else (3, 100_000, 300)
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
        transfer = net.transfer
        cap = 3.1 * GiB
        for wave in range(waves):
            done = []
            wname = f"s{wave}"
            append = done.append
            for i in range(per_wave):
                if i < per_wave - tail:
                    size = 32 * MiB if i % 2 == 0 else 48 * MiB
                else:
                    size = 64 * MiB + i * (MiB // 32)
                append(transfer(paths[i % 20], size, rate_cap=cap, name=wname))
            if net.active_flows > peak[0]:
                peak[0] = net.active_flows
            if net.active_groups > peak[1]:
                peak[1] = net.active_groups
            result = yield sim.all_of(done)
            for event in result.events:
                end_times.append(event.value.end_time)

    process = sim.process(driver(), name="storm-driver")
    start = time.perf_counter()
    sim.run(until=process)
    wall = time.perf_counter() - start

    digest = _hexdigest(
        [t.hex() for t in end_times]
        + [float(net.completed_bytes).hex(), float(sim.now).hex()]
    )
    return ScenarioResult(
        name="flow_storm_100k",
        wall_s=wall,
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


def _kv_storm(quick: bool) -> ScenarioResult:
    """Many processes hammering one shared index KV through the full client."""
    from repro.bench.runner import build_deployment
    from repro.daos.client import DaosClient
    from repro.daos.objclass import OC_SX
    from repro.daos.oid import ObjectId

    processes_per_node, ops = (8, 60) if quick else (16, 250)
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
    start = time.perf_counter()
    sim.run(until=sim.all_of(workers))
    wall = time.perf_counter() - start

    digest = _hexdigest(
        [float(sim.now).hex(), str(len(list(kv.keys()))), str(len(addresses) * ops)]
    )
    return ScenarioResult(
        name="kv_storm",
        wall_s=wall,
        sim_time=sim.now,
        digest=digest,
        extra={"processes": len(addresses), "ops_per_process": ops},
    )


# -- scenario: metadata-plane RPC storm ---------------------------------------------


def _rpc_storm(quick: bool) -> ScenarioResult:
    """64 clients hammering the metadata plane on both backends.

    The workload the metadata fast path exists for: a herd of clients doing
    small KV puts/gets on *private* per-rank index objects, salted with
    ``container_exists`` probes and ``kv_remove`` calls — the FDB-style
    index-maintenance mix of §5.2, with almost no lock contention, so the
    per-op RPC machinery (attempt loop, event churn, resource grants)
    dominates the wall clock.  The same storm runs against the DAOS and the
    posixfs backend through :func:`~repro.bench.runner.build_deployment` +
    ``system.make_client``; the digest folds in each backend's final
    simulated clock, the op totals and the merged per-op metrics, so any
    fast-path divergence — timing, counts or accounting — trips it.
    """
    from repro.bench.runner import build_deployment
    from repro.daos.objclass import OC_S1
    from repro.daos.oid import ObjectId
    from repro.daos.rpc import merge_op_stats

    processes_per_node, ops = (16, 30) if quick else (16, 120)
    parts: List[str] = []
    op_totals: Dict[str, int] = {}
    sim_times: Dict[str, float] = {}

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
        start = time.perf_counter()
        sim.run(until=sim.all_of(workers))
        wall = time.perf_counter() - start

        merged = merge_op_stats(client.op_metrics for client in clients)
        sim_times[backend] = float(sim.now)
        parts.append(f"{backend}|{float(sim.now).hex()}")
        for op_name in sorted(merged):
            entry = merged[op_name]
            parts.append(
                f"{backend}|{op_name}|{entry.count}|{entry.errors}"
                f"|{entry.total_time.hex()}|{entry.total_bytes}"
            )
            op_totals[op_name] = op_totals.get(op_name, 0) + entry.count
        op_totals[f"wall_{backend}"] = round(wall, 6)

    total_ops = sum(
        count for name, count in op_totals.items() if not name.startswith("wall_")
    )
    return ScenarioResult(
        name="rpc_storm",
        wall_s=op_totals["wall_daos"] + op_totals["wall_posixfs"],
        sim_time=sim_times["daos"] + sim_times["posixfs"],
        digest=_hexdigest(parts),
        extra={
            "processes": len(addresses),
            "ops_per_process": ops,
            "total_ops": total_ops,
            **{k: v for k, v in op_totals.items() if k.startswith("wall_")},
        },
    )


# -- scenario: product-serving request storm -------------------------------------------


def _serving_storm(quick: bool) -> ScenarioResult:
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
    import json

    from repro.experiments.product_serving import serving_point
    from repro.units import KiB

    n_fields, n_requests = (32, 600) if quick else (128, 4000)
    field_size = 64 * KiB
    start = time.perf_counter()
    point = serving_point(
        servers=1, clients=2, seed=17,
        n_fields=n_fields, field_size=field_size, exponent=1.2, n_tenants=2,
        rate=4000.0, n_requests=n_requests, span=2,
        cache_bytes=n_fields * field_size // 2, ttl=None,
        replication=1, promote_threshold=8, workers=2,
        qos_rate=3000.0, qos_burst=1.0, qos_depth=4096,
    )
    wall = time.perf_counter() - start
    return ScenarioResult(
        name="serving_storm",
        wall_s=wall,
        sim_time=point["duration"],
        digest=_hexdigest([json.dumps(point, sort_keys=True)]),
        extra={
            key: point[key] for key in ("served", "shed", "fields", "hits", "misses")
        },
    )


# -- scenario: small Field I/O run --------------------------------------------------


def _fieldio_small(quick: bool) -> ScenarioResult:
    """Miniature end-to-end Field I/O pattern-A run (client + FDB + fabric)."""
    from repro.bench.fieldio_bench import (
        Contention,
        FieldIOBenchParams,
        run_fieldio_pattern_a,
    )
    from repro.bench.runner import build_deployment

    n_ops = 4 if quick else 12
    config = ClusterConfig(n_server_nodes=1, n_client_nodes=2, seed=3)
    cluster, system, pool = build_deployment(config)
    params = FieldIOBenchParams(
        contention=Contention.HIGH,
        n_ops=n_ops,
        field_size=1 * MiB,
        processes_per_node=4,
    )
    start = time.perf_counter()
    result = run_fieldio_pattern_a(cluster, system, pool, params)
    wall = time.perf_counter() - start
    digest = _hexdigest(
        [result.log.digest(), float(cluster.net.completed_bytes).hex()]
    )
    return ScenarioResult(
        name="fieldio_small",
        wall_s=wall,
        sim_time=cluster.sim.now,
        digest=digest,
        extra={"n_ops": n_ops, "records": len(result.log)},
    )


# -- scenario: grid runner fan-out --------------------------------------------------


def _grid_fanout(quick: bool) -> ScenarioResult:
    """Process-pool grid runner: serial vs ``--jobs`` over real IOR units.

    Measures the fan-out machinery itself (pool spin-up, pickling, result
    slotting) against identical tiny work units, and asserts every parallel
    job count reproduces the serial results exactly — the merge-determinism
    contract the experiment drivers rely on.
    """
    import json

    from repro.experiments.runner import ExecOptions, GridSpec, run_grid
    from repro.experiments.units import ior_point

    n_units, job_counts = (4, (1, 2)) if quick else (8, (1, 2, 4))
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

    walls: Dict[str, float] = {}
    reference: List[dict] = []
    for jobs in job_counts:
        start = time.perf_counter()
        results = run_grid(grid, ExecOptions(jobs=jobs))
        walls[f"wall_j{jobs}"] = time.perf_counter() - start
        if jobs == 1:
            reference = results
        elif results != reference:
            raise AssertionError(
                f"grid_fanout: jobs={jobs} results differ from serial"
            )

    digest = _hexdigest([json.dumps(reference, sort_keys=True)])
    return ScenarioResult(
        name="grid_fanout",
        # Runner overhead is host-scheduler work, not simulated time; the
        # digest covers the simulated outcomes of every unit.
        wall_s=walls["wall_j1"],
        sim_time=sum(point["sim_time"] for point in reference),
        digest=digest,
        extra={"n_units": n_units, **{k: round(v, 6) for k, v in walls.items()}},
    )


#: Registry of kernel perf scenarios, in reporting order.
SCENARIOS: Dict[str, Callable[[bool], ScenarioResult]] = {
    "many_flow_contention": _many_flow_contention,
    "wide_contention": _wide_contention,
    "barrier_burst": _barrier_burst,
    "flow_storm_5k": _flow_storm_5k,
    "flow_storm_100k": _flow_storm_100k,
    "kv_storm": _kv_storm,
    "rpc_storm": _rpc_storm,
    "serving_storm": _serving_storm,
    "fieldio_small": _fieldio_small,
    "grid_fanout": _grid_fanout,
}


def run_scenario(name: str, quick: bool = False) -> ScenarioResult:
    """Run one scenario by name.

    The cyclic collector is paused around the scenario (the same policy as
    ``timeit``): the kernel's hot paths are cycle-free by construction, so
    collector pauses — full-generation scans of a few hundred thousand
    live flow/event objects at storm scale — would only add noise to the
    wall-clock numbers.  Refcounting reclaims everything meanwhile, and a
    sweep after the run picks up any stragglers.
    """
    try:
        runner = SCENARIOS[name]
    except KeyError:
        raise ValueError(f"unknown kernel scenario {name!r}") from None
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return runner(quick)
    finally:
        if was_enabled:
            gc.enable()
        gc.collect()
