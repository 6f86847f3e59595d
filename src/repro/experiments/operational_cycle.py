"""Operational-cycle contention experiment: ensemble writers vs product readers.

The §1.2 operational rhythm at workflow scale: every six simulated hours a
new forecast cycle's ensemble writers flush their output into the store
while the *previous* cycle's products are being pulled out by a reader
population — archive and dissemination genuinely share the fabric, the
engines and the SCM media, as they do in production.  The experiment sweeps
the reader population and reports the **writer bandwidth vs reader load**
contention curve, the number the operations team actually watches: how much
does serving yesterday's products slow down landing today's forecast?

The workload also drives the simulator's wave-scale paths:

* each cycle's writer and reader waves enter the simulation through
  :meth:`~repro.simulation.core.Simulator.spawn_batch` (one shared
  bootstrap event per wave, not one bootstrap event per client);
* writers archive through :meth:`~repro.fdb.fieldio.FieldIO.write_many`
  and readers fetch through
  :meth:`~repro.fdb.fieldio.FieldIO.read_many`, so the per-field index
  traffic travels as vectorized ``kv_put_multi``/``kv_get_multi``
  multi-ops (the returned points count them);
* at ``--paper`` scale the biggest point puts thousands of simulated
  client processes on the deployment at once.

A final round (DAOS only) re-runs the most contended point with replicated
object classes and a seeded engine failure landing mid-run: the contention
figure under concurrent rebuild, following the staging idiom of
:mod:`repro.experiments.rebuild`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.bench.runner import build_deployment
from repro.config import ClusterConfig, DaosServiceConfig, HealthConfig
from repro.daos.errors import ServiceBusyError
from repro.daos.health import seeded_failure_schedule
from repro.daos.objclass import object_class_by_name
from repro.daos.rpc import TracingMiddleware
from repro.experiments.common import (
    ExperimentResult,
    GridSpec,
    Scale,
    Series,
    run_grid,
)
from repro.experiments.units import backend_kwargs
from repro.fdb.fieldio import FieldIO
from repro.serving.qos import QosAdmissionMiddleware, QosPolicy
from repro.units import GiB, KiB, MiB
from repro.workloads.fields import PRESSURE_LEVELS, UPPER_AIR_PARAMS, field_payload
from repro.workloads.forecast import ForecastSpec

__all__ = ["run", "cycle_point"]

TITLE = "Operational cycle: writer bandwidth under product-reader contention"


def _cycle_forecast(cycle: int, n_params: int, n_levels: int, n_steps: int) -> ForecastSpec:
    """The forecast emitted by one cycle (6-hourly, date rolling daily)."""
    return ForecastSpec(
        date=str(20260705 + cycle // 4),
        time=f"{(cycle % 4) * 6:02d}",
        params=UPPER_AIR_PARAMS[:n_params],
        levels=PRESSURE_LEVELS[:n_levels],
        steps=tuple(str(s) for s in range(0, 6 * n_steps, 6)),
    )


def _writer(fieldio: FieldIO, shard, field_size: int, batch: int):
    """One ensemble writer: archive its shard in ``write_many`` batches."""
    for start in range(0, len(shard), batch):
        chunk = shard[start : start + batch]
        yield from fieldio.write_many(
            (key, field_payload(key, field_size)) for key in chunk
        )


def _reader(fieldio: FieldIO, keys, field_size: int, span: int):
    """One product reader: fetch its keys in ``read_many`` spans."""
    for start in range(0, len(keys), span):
        chunk = keys[start : start + span]
        payloads = yield from fieldio.read_many(chunk)
        for key, payload in zip(chunk, payloads):
            if payload.size != field_size:
                raise AssertionError(
                    f"product read of {key.canonical()!r} returned "
                    f"{payload.size} B, expected {field_size}"
                )


def _throttled_reader(fieldio: FieldIO, keys, field_size: int, span: int, backoff: float):
    """A reader behind per-tenant QoS admission: sheds retry with backoff.

    When the tenant's token bucket queue is full, the index lookup is shed
    with a retryable :class:`~repro.daos.errors.ServiceBusyError` before any
    bulk array work happens; the reader backs off (linearly growing, capped)
    and retries the whole span, so the herd spreads out instead of piling
    onto the writers' fabric.
    """
    sim = fieldio.client.sim
    for start in range(0, len(keys), span):
        chunk = keys[start : start + span]
        attempt = 0
        while True:
            try:
                payloads = yield from fieldio.read_many(chunk)
                break
            except ServiceBusyError:
                attempt += 1
                yield sim.timeout(backoff * min(attempt, 8))
        for key, payload in zip(chunk, payloads):
            if payload.size != field_size:
                raise AssertionError(
                    f"product read of {key.canonical()!r} returned "
                    f"{payload.size} B, expected {field_size}"
                )


def cycle_point(
    *,
    servers: int,
    clients: int,
    seed: int,
    n_cycles: int,
    n_writers: int,
    n_readers: int,
    n_params: int,
    n_levels: int,
    n_steps: int,
    field_size: int,
    write_batch: int,
    span: int,
    reads_per_reader: int,
    oclass: str = "S1",
    fail_at: Optional[float] = None,
    backend: str = "daos",
    reader_qos_rate: Optional[float] = None,
    reader_qos_burst: float = 4.0,
    reader_qos_depth: int = 2,
    reader_retry_backoff: float = 0.001,
) -> Dict[str, Any]:
    """Grid unit: run ``n_cycles`` producer/consumer cycles, JSON projection.

    Cycle ``c``'s writers archive forecast ``c`` while the readers (from
    cycle 1 on) pull products of forecast ``c - 1`` — the two populations
    overlap on every shared resource.  ``fail_at`` (DAOS only) arms a
    seeded single-engine failure at that simulated time; pair it with a
    replicated ``oclass`` so degraded reads and rebuild traffic join the
    contention.  ``reader_qos_rate`` puts every reader behind one shared
    per-tenant :class:`~repro.serving.qos.QosAdmissionMiddleware` (metering
    index ``kv_get`` sub-ops); shed readers retry with
    ``reader_retry_backoff``-spaced backoff, modelling the gateway
    protecting the ensemble writers from a product-reader herd.
    """
    if fail_at is None:
        config = ClusterConfig(
            n_server_nodes=servers, n_client_nodes=clients, seed=seed
        )
    else:
        n_engines = ClusterConfig(
            n_server_nodes=servers, n_client_nodes=clients, seed=seed
        ).total_engines
        events = seeded_failure_schedule(
            seed, n_engines=n_engines, n_failures=1, window=(fail_at, fail_at)
        )
        config = ClusterConfig(
            n_server_nodes=servers,
            n_client_nodes=clients,
            seed=seed,
            daos=DaosServiceConfig(
                health=HealthConfig(enabled=True, events=events, arm_at_start=False)
            ),
        )
    cluster, system, pool = build_deployment(config, backend=backend)
    sim = cluster.sim
    storage_oclass = object_class_by_name(oclass)

    boot = system.make_client(cluster.client_addresses(1)[0])
    sim.run(until=sim.process(FieldIO.bootstrap(boot, pool)))

    total_procs = n_writers + max(n_readers, 1)
    per_node = -(-total_procs // clients)
    addresses = cluster.client_addresses(per_node)

    # One admission middleware shared by every reader client = one limit
    # for the whole "products" tenant, however many connections it opens.
    qos = None
    if reader_qos_rate is not None:
        qos = QosAdmissionMiddleware(
            "products",
            QosPolicy(
                rate=reader_qos_rate,
                burst=reader_qos_burst,
                max_queue_depth=reader_qos_depth,
            ),
            ops=("kv_get",),
        )

    # Replicated classes only matter for the rebuild round; the plain
    # rounds keep FieldIO's defaults so the baseline stays the baseline.
    def make_fieldio(index: int, middleware=None) -> FieldIO:
        client = system.make_client(
            addresses[index % len(addresses)], middleware=middleware
        )
        if fail_at is None:
            return FieldIO(client, pool)
        return FieldIO(
            client, pool, kv_oclass=storage_oclass, array_oclass=storage_oclass
        )

    reader_chain = (
        None if qos is None
        else lambda: [qos, TracingMiddleware()]
    )
    writer_ios = [make_fieldio(i) for i in range(n_writers)]
    reader_ios = [
        make_fieldio(
            n_writers + i,
            middleware=reader_chain() if reader_chain else None,
        )
        for i in range(n_readers)
    ]

    write_seconds = 0.0
    read_seconds = 0.0
    bytes_written = 0
    bytes_read = 0
    cycle_times: List[float] = []
    armed = False

    for cycle in range(n_cycles):
        forecast = _cycle_forecast(cycle, n_params, n_levels, n_steps)
        shards = forecast.partition(n_writers)
        cycle_start = sim.now
        writers = sim.spawn_batch(
            (
                _writer(writer_ios[index], shard, field_size, write_batch)
                for index, shard in enumerate(shards)
            ),
            name=f"cycle{cycle}:writers",
        )
        readers = []
        if cycle > 0 and n_readers > 0:
            previous = list(
                _cycle_forecast(cycle - 1, n_params, n_levels, n_steps).field_keys()
            )
            def reader_body(index):
                keys = [
                    previous[(index * reads_per_reader + j) % len(previous)]
                    for j in range(reads_per_reader)
                ]
                if qos is None:
                    return _reader(reader_ios[index], keys, field_size, span)
                return _throttled_reader(
                    reader_ios[index], keys, field_size, span, reader_retry_backoff
                )

            readers = sim.spawn_batch(
                (reader_body(index) for index in range(n_readers)),
                name=f"cycle{cycle}:readers",
            )
        if fail_at is not None and not armed and cycle > 0:
            # Arm after the first (uncontended) cycle has archived, so the
            # pinned failure lands in a contended cycle.
            system.arm_failure_schedule()
            armed = True
        sim.run(until=sim.all_of(writers))
        write_end = sim.now
        write_seconds += write_end - cycle_start
        bytes_written += forecast.n_fields * field_size
        if readers:
            sim.run(until=sim.all_of(readers))
            read_seconds += sim.now - cycle_start
            bytes_read += n_readers * reads_per_reader * field_size
        cycle_times.append(sim.now - cycle_start)
    # Drain any in-flight rebuild so its stats are reportable.
    sim.run()

    multi_puts = sum(io.client.stats.get("kv_put_multi", 0) for io in writer_ios)
    multi_gets = sum(io.client.stats.get("kv_get_multi", 0) for io in reader_ios)
    rebuild_runs = (
        list(system.rebuild.runs)
        if fail_at is not None and getattr(system, "rebuild", None)
        else []
    )
    return {
        "write_bandwidth": bytes_written / write_seconds if write_seconds else 0.0,
        "read_bandwidth": bytes_read / read_seconds if read_seconds else 0.0,
        "bytes_written": bytes_written,
        "bytes_read": bytes_read,
        "cycle_times": cycle_times,
        "duration": sum(cycle_times),
        "multi_puts": multi_puts,
        "multi_gets": multi_gets,
        "rebuild": [
            {"duration": r.duration, "bytes_moved": r.bytes_moved}
            for r in rebuild_runs
        ],
        "qos": None
        if qos is None
        else {
            "admitted": qos.admitted,
            "delayed": qos.delayed,
            "shed": qos.shed,
            "max_waiting": qos.max_waiting,
        },
    }


def run(
    scale: Scale = Scale.of("ci"), seed: int = 0, backend: str = "daos"
) -> ExperimentResult:
    if scale.is_paper:
        base = dict(
            servers=2, clients=4, seed=seed,
            n_cycles=4, n_writers=64,
            n_params=8, n_levels=8, n_steps=8,
            field_size=1 * MiB, write_batch=16,
            span=8, reads_per_reader=8,
        )
        reader_loads = (0, 256, 1024, 2048)
    else:
        base = dict(
            servers=1, clients=2, seed=seed,
            n_cycles=2, n_writers=4,
            n_params=4, n_levels=2, n_steps=2,
            field_size=64 * KiB, write_batch=8,
            span=4, reads_per_reader=4,
        )
        reader_loads = (0, 4, 16)

    extra = backend_kwargs(backend)
    grid = GridSpec("operational_cycle")
    for n_readers in reader_loads:
        grid.add(cycle_point, **base, n_readers=n_readers, **extra)
    points = run_grid(grid)

    result = ExperimentResult(experiment="operational_cycle", title=TITLE)
    result.headers = [
        "readers", "rebuild", "write GiB/s", "read GiB/s",
        "mean cycle ms", "multi puts", "multi gets",
    ]

    def _row(n_readers: int, mode: str, point: Dict[str, Any]) -> List[object]:
        mean_cycle = point["duration"] / len(point["cycle_times"])
        return [
            n_readers,
            mode,
            f"{point['write_bandwidth'] / GiB:.2f}",
            f"{point['read_bandwidth'] / GiB:.2f}",
            f"{mean_cycle * 1e3:.2f}",
            point["multi_puts"],
            point["multi_gets"],
        ]

    for n_readers, point in zip(reader_loads, points):
        result.rows.append(_row(n_readers, "off", point))

    rebuild_point = None
    if backend == "daos":
        # The most contended point again, replicated and with an engine
        # failure pinned halfway into its healthy duration — contention
        # with rebuild traffic on top of the reader herd.
        top_load = reader_loads[-1]
        rebuild_grid = GridSpec("operational_cycle:rebuild")
        rebuild_grid.add(
            cycle_point,
            **base,
            n_readers=top_load,
            oclass="RP_2G1",
            fail_at=0.5 * points[-1]["duration"],
        )
        rebuild_point = run_grid(rebuild_grid)[0]
        result.rows.append(_row(top_load, "on", rebuild_point))
    else:
        result.notes.append(
            f"backend {backend}: no replicated object classes or health "
            "schedule — rebuild round skipped"
        )

    # The most contended point once more, with the reader herd behind a
    # per-tenant QoS admission limit: shed-and-retry spreads the index
    # lookups out, buying the writers part of their uncontended bandwidth
    # back.  Tagged "qos" in the mode column (the CI smoke reads only the
    # plain "off" sweep).
    top_load = reader_loads[-1]
    qos_rate = 20000.0 if scale.is_paper else 1000.0
    qos_grid = GridSpec("operational_cycle:qos")
    qos_grid.add(
        cycle_point, **base, n_readers=top_load, reader_qos_rate=qos_rate, **extra
    )
    qos_point = run_grid(qos_grid)[0]
    result.rows.append(_row(top_load, "qos", qos_point))

    result.series.append(
        Series(
            "writer bandwidth vs reader load",
            list(reader_loads),
            [p["write_bandwidth"] for p in points],
        )
    )

    baseline = points[0]["write_bandwidth"]
    contended = points[-1]["write_bandwidth"]
    if baseline > 0:
        result.notes.append(
            f"writer bandwidth under {reader_loads[-1]} readers: "
            f"{contended / GiB:.2f} GiB/s "
            f"({(1.0 - contended / baseline) * 100.0:+.1f}% vs uncontended)"
        )
    if rebuild_point is not None:
        moved = sum(r["bytes_moved"] for r in rebuild_point["rebuild"]) / MiB
        result.notes.append(
            f"with concurrent rebuild: write "
            f"{rebuild_point['write_bandwidth'] / GiB:.2f} GiB/s, "
            f"{moved:.1f} MiB re-replicated"
        )
    total_multi = sum(p["multi_puts"] + p["multi_gets"] for p in points)
    result.notes.append(
        f"vectorized index multi-ops across the sweep: {total_multi}"
    )
    qos_stats = qos_point["qos"]
    result.notes.append(
        f"reader QoS at {top_load} readers (rate {qos_rate:.0f}/s): write "
        f"{qos_point['write_bandwidth'] / GiB:.2f} GiB/s vs "
        f"{contended / GiB:.2f} unthrottled; "
        f"{qos_stats['shed']} shed, {qos_stats['delayed']} delayed, "
        f"peak queue {qos_stats['max_waiting']}"
    )
    return result
