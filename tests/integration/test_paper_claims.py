"""The paper's claims as one table, checked against the simulator.

Each row of ``CLAIMS`` is one claim: an id, where the paper makes it (§,
figure or table; ablations beyond the paper name the section they extend),
what the paper says, a measurement and the bound it must meet.  Comparisons
are measured as ratios, so a failing row prints the margin it missed by.

Measurements go through the code that defines a point for the experiment
drivers: :mod:`repro.experiments.units` and, for whole figures,
:func:`repro.experiments.run_experiment` at CI scale.  Every point is
memoised for the session, so a point that several rows read runs once.
The ablations without a driver (metadata latency, KV service time) build
their configs here.  The ``slow`` rows (the CI-scale fig4 and fig5 drivers,
the KV-service and iteration sweeps, the ``n_ops=150`` fig5 pair) take 3-15 s
each; ``scripts/check.sh`` runs them in their own step.

``python -m repro run <experiment>`` prints the tables and figures these
rows check.
"""

from dataclasses import replace
from functools import cache
from typing import Any, Callable, NamedTuple

import pytest

from repro.analytic.model import fieldio_write_bound
from repro.bench.fieldio_bench import Contention, FieldIOBenchParams, run_fieldio_pattern_a
from repro.bench.mpi_p2p import MpiP2pParams, run_mpi_p2p
from repro.bench.runner import build_deployment
from repro.config import PSM2_PROVIDER, TCP_PROVIDER, ClusterConfig
from repro.experiments import run_experiment, units
from repro.fdb.modes import FieldIOMode
from repro.units import GiB, MiB, USEC

MODES = ("full", "no_containers", "no_index")


# -- points (each computed once per session) --------------------------------


@cache
def driver(name):
    return run_experiment(name, scale="ci")


def curve(experiment, series):
    return driver(experiment).series_by_name(series)


@cache
def ior(servers, clients, ppn=16, segments=20, **config):
    return units.ior_point(
        servers=servers, clients=clients, ppn=ppn, segments=segments,
        segment_size=1 * MiB, seed=0, **config,
    )


def fig7_ior(provider, clients=4, ppn=8):
    return ior(4, clients, ppn=ppn, engines_per_server=1, client_sockets=1,
               provider=provider)


@cache
def fieldio(pattern, servers, clients, mode, contention, ppn=8, n_ops=50,
            field_size=1 * MiB, startup_skew=0.05, **params):
    point = units.fieldio_point(
        pattern=pattern, servers=servers, clients=clients, mode=mode,
        contention=contention, ppn=ppn, n_ops=n_ops, field_size=field_size,
        startup_skew=startup_skew, seed=0, **params,
    )
    return dict(point, aggregated=point["write"] + point["read"])


def fig6_fieldio(size_mib, oclass, ppn=8, n_ops=12, skew=0.1, clients=4):
    return fieldio("A", 2, clients, "full", "HIGH", ppn=ppn, n_ops=n_ops,
                   field_size=size_mib * MiB, startup_skew=skew, array_oclass=oclass)


def fig6_subsaturated(oclass):
    return fig6_fieldio(10, oclass, ppn=1, n_ops=30, skew=0.0, clients=2)


def async_ablation(async_io):
    return fieldio("A", 2, 4, "full", "HIGH", ppn=4, n_ops=40, startup_skew=0.25,
                   async_io=async_io, want_rpc_stats=True)


def striping_ablation(oclass):
    return fieldio("A", 2, 2, "full", "HIGH", ppn=1, n_ops=25, field_size=10 * MiB,
                   startup_skew=0.0, array_oclass=oclass)


def iterations_ablation(n_ops):
    return fieldio("A", 2, 4, "no_containers", "LOW", n_ops=n_ops, startup_skew=0.1)


def fieldio_on(config, **params):
    cluster, system, pool = build_deployment(config)
    summary = run_fieldio_pattern_a(
        cluster, system, pool, FieldIOBenchParams(field_size=1 * MiB, **params)
    ).summary
    return {"write": summary.write_global, "read": summary.read_global}


@cache
def metadata_ablation(latency_scale):
    provider = replace(
        TCP_PROVIDER, message_latency=TCP_PROVIDER.message_latency * latency_scale
    )
    return fieldio_on(
        ClusterConfig(n_server_nodes=2, n_client_nodes=4, provider=provider),
        mode=FieldIOMode.FULL, contention=Contention.LOW, n_ops=40,
        processes_per_node=4, startup_skew=0.02,
    )


@cache
def kv_service_ablation(service_time):
    config = ClusterConfig(n_server_nodes=4, n_client_nodes=8)
    config = replace(config, daos=replace(config.daos, kv_put_service_time=service_time))
    return fieldio_on(
        config, mode=FieldIOMode.NO_CONTAINERS, contention=Contention.HIGH, n_ops=50,
        processes_per_node=8, startup_skew=0.05,
    )


@cache
def mpi(pairs, transfer_size, provider=TCP_PROVIDER):
    config = ClusterConfig(n_server_nodes=1, n_client_nodes=2, provider=provider)
    params = MpiP2pParams(process_pairs=pairs, transfer_size=transfer_size)
    return run_mpi_p2p(config, params).bandwidth


@cache
def mdtest(servers):
    return units.mdtest_point(servers=servers, clients=2 * servers, ppn=8, files=24,
                              file_size=0, seed=0)


# -- measurements ------------------------------------------------------------


def worst_step(ys):
    """The smallest ratio of a value to the one before it."""
    return min(after / before for before, after in zip(ys, ys[1:]))


def worst_mode_step(experiment, phase):
    return min(worst_step(curve(experiment, f"{phase} {mode}").ys) for mode in MODES)


def at_largest(experiment, series):
    points = curve(experiment, series)
    return points.y_at(points.xs[-1])


def b_aggregate(experiment, mode):
    return at_largest(experiment, f"B write {mode}") + at_largest(experiment, f"B read {mode}")


def table1_write(row):
    return float(driver("table1").rows[row][3].split("w")[0])


TABLE2_PAPER = {("PSM2", 1): 12.1, ("TCP", 1): 3.1, ("TCP", 2): 4.1,
                ("TCP", 4): 6.9, ("TCP", 8): 9.5, ("TCP", 16): 9.0}


def table2_worst_error():
    measured = {(row[0], row[1]): float(row[4]) for row in driver("table2").rows}
    return max(abs(measured[key] - paper) / paper for key, paper in TABLE2_PAPER.items())


def fig4_ceiling_ratio():
    measured = fieldio("A", 6, 12, "no_containers", "HIGH", n_ops=80, startup_skew=0.02)
    bound = fieldio_write_bound(ClusterConfig(n_server_nodes=6, n_client_nodes=12), True, MiB)
    return measured["write"] / bound


def op_mix_changes():
    counts = [{op: stats["count"] for op, stats in async_ablation(a)["rpc_stats"].items()}
              for a in (False, True)]
    return {op: (counts[0].get(op), counts[1].get(op))
            for op in counts[0].keys() | counts[1].keys()
            if counts[0].get(op) != counts[1].get(op)}


# -- bounds ------------------------------------------------------------------


class Bound(NamedTuple):
    text: str
    holds: Callable[[Any], bool]


def above(x):
    return Bound(f"> {x}", lambda v: v > x)


def at_least(x):
    return Bound(f">= {x}", lambda v: v >= x)


def below(x):
    return Bound(f"< {x}", lambda v: v < x)


def between(lo, hi):
    return Bound(f"in ({lo}, {hi})", lambda v: lo < v < hi)


def within(lo, hi):
    return Bound(f"in [{lo}, {hi}]", lambda v: lo <= v <= hi)


def near(x, rel):
    return Bound(f"{x} ± {rel:.0%}", lambda v: v == pytest.approx(x, rel=rel))


def equals(x):
    return Bound(f"== {x!r}", lambda v: v == x)


# -- the table ---------------------------------------------------------------


class Claim(NamedTuple):
    id: str
    source: str
    paper: str
    measure: Callable[[], Any]
    bound: Bound
    slow: bool = False


CLAIMS = [
    # Table 1: IOR segments on one server node.
    Claim("table1.write_engine_bound", "§6.2, Table 1",
          "a second client interface does not move the write ceiling (3.0w either way)",
          lambda: ior(1, 1, engines_per_server=1, client_sockets=1)["write"]
          / ior(1, 1, engines_per_server=1, client_sockets=2)["write"], near(1.0, 0.1)),
    Claim("table1.write_ceiling_gib", "§6.2, Table 1", "one engine writes 2.6-3.0 GiB/s",
          lambda: ior(1, 1, engines_per_server=1, client_sockets=1)["write"] / GiB,
          near(2.75, 0.15)),
    Claim("table1.read_gains_from_second_iface", "§6.2, Table 1",
          "reads improve with a second client interface (4.2r -> 7.4r)",
          lambda: ior(1, 1, engines_per_server=1, client_sockets=2)["read"]
          / ior(1, 1, engines_per_server=1, client_sockets=1)["read"], above(1.1)),
    Claim("table1.two_engines_double_write", "§6.2, Table 1",
          "two engines write twice as fast as one (2.9w -> 5.5w)",
          lambda: ior(1, 2, engines_per_server=2)["write"]
          / ior(1, 2, engines_per_server=1)["write"], near(2.0, 0.1)),
    Claim("table1.read_wants_second_client_node", "§6.2, Table 1",
          "reads need more client than server interfaces (7.5r -> 9.5r)",
          lambda: ior(1, 2, engines_per_server=2)["read"]
          / ior(1, 1, engines_per_server=2)["read"], above(1.0)),
    Claim("table1.two_engines_double_write.ci", "§6.2, Table 1",
          "the dual-engine row writes ~2x the single-engine rows",
          lambda: table1_write(2) / table1_write(0), above(1.7)),
    # Table 2: MPI point-to-point.
    Claim("table2.paper_values.ci", "§6.2, Table 2",
          "PSM2 x1 12.1; TCP x1/x2/x4/x8/x16 3.1/4.1/6.9/9.5/9.0 GiB/s",
          table2_worst_error, below(0.2)),
    Claim("table2.tcp_needs_multiprocessing", "§6.2, Table 2",
          "TCP needs many process pairs (3.1 -> 9.5 GiB/s over 1 -> 8 pairs)",
          lambda: mpi(8, 2 * MiB) / mpi(1, 2 * MiB), above(2.5)),
    Claim("table2.psm2_one_pair_beats_tcp_eight", "§6.2, Table 2",
          "one PSM2 pair (12.1) beats eight TCP pairs (9.5)",
          lambda: mpi(1, 8 * MiB, PSM2_PROVIDER) / mpi(8, 2 * MiB), above(1.0)),
    # Fig 3: IOR scaling with server nodes.
    Claim("fig3.write_linear.2_servers", "§6.2, Fig 3", "writes scale near-linearly",
          lambda: ior(2, 4)["write"] / ior(1, 2)["write"], near(2.0, 0.15)),
    Claim("fig3.write_linear.4_servers", "§6.2, Fig 3", "writes scale near-linearly",
          lambda: ior(4, 8)["write"] / ior(1, 2)["write"], near(4.0, 0.15)),
    Claim("fig3.write_per_engine_gib", "§6.2, Fig 3", "~2.5 GiB/s write per engine",
          lambda: ior(4, 8)["write"] / 8 / GiB, near(2.5, 0.2)),
    Claim("fig3.double_clients_read_more", "§6.2, Fig 3", "2x client nodes read best",
          lambda: ior(2, 4)["read"] / ior(2, 2)["read"], above(1.0)),
    Claim("fig3.read_droops_above_8_servers", "§6.2, Fig 3",
          "above 8 server nodes the scaling rate decreases",
          lambda: ior(10, 20, segments=40)["read"] / ior(8, 16, segments=40)["read"],
          below(1.1)),
    Claim("fig3.write_scales_above_8_servers", "§6.2, Fig 3",
          "writes keep scaling past 8 server nodes (10/8 = 1.25)",
          lambda: ior(10, 20, segments=40)["write"] / ior(8, 16, segments=40)["write"],
          above(1.15)),
    Claim("fig3.grid.ci", "§6.2, Fig 3", "1x and 2x client nodes at 1, 2, 4 servers",
          lambda: ({s.name for s in driver("fig3").series},
                   curve("fig3", "write 2x clients").xs),
          equals(({"write 1x clients", "read 1x clients", "write 2x clients",
                   "read 2x clients"}, [1, 2, 4]))),
    Claim("fig3.write_scales.ci", "§6.2, Fig 3", "writes rise with server nodes",
          lambda: worst_step(curve("fig3", "write 2x clients").ys), at_least(0.95)),
    Claim("fig3.read_scales.ci", "§6.2, Fig 3", "reads rise with server nodes",
          lambda: worst_step(curve("fig3", "read 2x clients").ys), at_least(0.95)),
    Claim("fig3.write_linear.ci", "§6.2, Fig 3", "writes scale near-linearly",
          lambda: curve("fig3", "write 2x clients").y_at(4)
          / curve("fig3", "write 2x clients").y_at(1), above(3.0)),
    Claim("fig3.write_per_engine_gib.ci", "§6.2, Fig 3", "~2.5 GiB/s write per engine",
          lambda: curve("fig3", "write 2x clients").y_at(4) / 8 / GiB, between(2.0, 3.0)),
    Claim("fig3.double_clients_read_more.ci", "§6.2, Fig 3", "2x client nodes read best",
          lambda: min(y2 / y1 for y1, y2 in zip(curve("fig3", "read 1x clients").ys,
                                                 curve("fig3", "read 2x clients").ys)),
          at_least(0.95)),
    # Fig 4: Field I/O under high contention (one shared index KV).
    Claim("fig4.no_index_beats_full", "§6.3.1, Fig 4",
          "no-index out-writes the indexed modes at scale",
          lambda: fieldio("A", 4, 8, "no_index", "HIGH")["write"]
          / fieldio("A", 4, 8, "full", "HIGH")["write"], above(1.0)),
    Claim("fig4.indexed_write_ceiling", "§6.3.1, Fig 4",
          "the shared index KV stops indexed writes scaling (3x servers)",
          lambda: fieldio("A", 6, 12, "full", "HIGH")["write"]
          / fieldio("A", 2, 4, "full", "HIGH")["write"], below(2.4)),
    Claim("fig4.pattern_b_comparable_to_a", "§6.3.1, Fig 4",
          "B's write+read aggregate shows no substantial degradation versus A",
          lambda: fieldio("B", 2, 4, "no_containers", "HIGH")["aggregated"]
          / fieldio("A", 2, 4, "no_containers", "HIGH")["aggregated"], above(0.4)),
    Claim("fig4.plateau_at_analytic_kv_ceiling", "§6.3.1, Fig 4",
          "the indexed plateau is the shared KV's put rate (analytic bound)",
          fig4_ceiling_ratio, within(0.8, 1.02)),
    Claim("fig4.every_mode_writes_scale.ci", "§6.3.1, Fig 4",
          "all modes scale with server nodes",
          lambda: worst_mode_step("fig4", "A write"), at_least(0.9), slow=True),
    Claim("fig4.every_mode_reads_scale.ci", "§6.3.1, Fig 4",
          "all modes scale with server nodes",
          lambda: worst_mode_step("fig4", "A read"), at_least(0.9), slow=True),
    Claim("fig4.no_index_beats_full.ci", "§6.3.1, Fig 4",
          "no-index out-writes the indexed modes at scale",
          lambda: at_largest("fig4", "A write no_index") / at_largest("fig4", "A write full"),
          above(1.0), slow=True),
    Claim("fig4.pattern_b_per_engine_gib.ci", "§6.3.1, Fig 4",
          "pattern B aggregates ~2 GiB/s per engine",
          lambda: b_aggregate("fig4", "no_containers")
          / (2 * curve("fig4", "A write full").xs[-1]) / GiB, between(1.0, 3.5), slow=True),
    # Fig 5: Field I/O under low contention (one index KV per process).
    Claim("fig5.low_contention_beats_high", "§6.3.1, Fig 5",
          "per-process index KVs remove the shared bottleneck",
          lambda: fieldio("A", 4, 8, "full", "LOW", n_ops=150)["write"]
          / fieldio("A", 4, 8, "full", "HIGH", n_ops=150)["write"], above(1.0), slow=True),
    Claim("fig5.b_no_containers_beats_no_index", "§6.3.1, Fig 5",
          "no-index re-writes contend at the array (§5.3)",
          lambda: fieldio("B", 2, 4, "no_containers", "LOW", n_ops=40)["aggregated"]
          / fieldio("B", 2, 4, "no_index", "LOW", n_ops=40)["aggregated"], above(1.0)),
    Claim("fig5.full_pays_containers", "§6.3.1, Fig 5", "full mode pays the container layer",
          lambda: fieldio("B", 2, 4, "no_containers", "LOW", n_ops=40)["aggregated"]
          / fieldio("B", 2, 4, "full", "LOW", n_ops=40)["aggregated"], at_least(1.0)),
    Claim("fig5.every_mode_writes_scale.ci", "§6.3.1, Fig 5",
          "pattern A scales in every mode",
          lambda: worst_mode_step("fig5", "A write"), at_least(0.9), slow=True),
    Claim("fig5.b_no_containers_beats_no_index.ci", "§6.3.1, Fig 5",
          "B no-containers leads (~2.75 vs ~1.6 GiB/s per engine for no-index)",
          lambda: b_aggregate("fig5", "no_containers") / b_aggregate("fig5", "no_index"),
          above(1.0), slow=True),
    Claim("fig5.full_pays_containers.ci", "§6.3.1, Fig 5",
          "B no-containers leads full (~2.75 vs ~1.6 GiB/s per engine)",
          lambda: b_aggregate("fig5", "no_containers") / b_aggregate("fig5", "full"),
          at_least(0.95), slow=True),
    # Fig 6: object class and size.
    Claim("fig6.size_raises_write", "§6.3.2, Fig 6",
          "1 -> 5-10 MiB objects roughly double bandwidth",
          lambda: fig6_fieldio(10, "S1")["write"] / fig6_fieldio(1, "S1")["write"],
          above(1.4)),
    Claim("fig6.size_raises_read", "§6.3.2, Fig 6",
          "1 -> 5-10 MiB objects roughly double bandwidth",
          lambda: fig6_fieldio(10, "S1")["read"] / fig6_fieldio(1, "S1")["read"],
          above(1.4)),
    Claim("fig6.plateau_past_10_mib", "§6.3.2, Fig 6", "bandwidth plateaus after 10 MiB",
          lambda: fig6_fieldio(20, "S1")["write"] / fig6_fieldio(10, "S1")["write"],
          below(1.3)),
    Claim("fig6.sx_writes_over_s1", "§6.3.2, Fig 6", "SX is best for writes",
          lambda: fig6_subsaturated("SX")["write"] / fig6_subsaturated("S1")["write"],
          above(1.0)),
    Claim("fig6.sx_writes_over_s2", "§6.3.2, Fig 6", "SX is best for writes",
          lambda: fig6_subsaturated("SX")["write"] / fig6_subsaturated("S2")["write"],
          above(1.0)),
    Claim("fig6.s2_reads_over_sx", "§6.3.2, Fig 6", "S2 is best for reads",
          lambda: fig6_subsaturated("S2")["read"] / fig6_subsaturated("SX")["read"],
          at_least(1.0)),
    Claim("fig6.s2_reads_over_s1", "§6.3.2, Fig 6", "S2 is best for reads",
          lambda: fig6_subsaturated("S2")["read"] / fig6_subsaturated("S1")["read"],
          above(1.0)),
    Claim("fig6.grid.ci", "§6.3.2, Fig 6", "S1/S2/SX x write/read at 1, 5, 10, 20 MiB",
          lambda: [s.xs for s in driver("fig6").series], equals([[1, 5, 10, 20]] * 6)),
    Claim("fig6.size_raises_bandwidth.ci", "§6.3.2, Fig 6",
          "1 -> 5-10 MiB objects roughly double bandwidth",
          lambda: min(s.y_at(10) / s.y_at(1) for s in driver("fig6").series), above(1.4)),
    Claim("fig6.sx_writes_over_s1.ci", "§6.3.2, Fig 6", "SX is best for writes",
          lambda: curve("fig6", "write SX").y_at(10) / curve("fig6", "write S1").y_at(10),
          above(1.0)),
    Claim("fig6.s2_reads_over_s1.ci", "§6.3.2, Fig 6", "S2 is best for reads",
          lambda: curve("fig6", "read S2").y_at(10) / curve("fig6", "read S1").y_at(10),
          above(1.0)),
    Claim("fig6.s2_reads_over_sx.ci", "§6.3.2, Fig 6", "S2 is best for reads",
          lambda: curve("fig6", "read S2").y_at(10) / curve("fig6", "read SX").y_at(10),
          at_least(0.95)),
    # Fig 7: TCP vs PSM2.
    Claim("fig7.psm2_reads_faster", "§6.4, Fig 7", "PSM2 is 10-25 % above TCP",
          lambda: fig7_ior("psm2")["read"] / fig7_ior("tcp")["read"], above(1.0)),
    Claim("fig7.psm2_writes_no_slower", "§6.4, Fig 7", "PSM2 is 10-25 % above TCP",
          lambda: fig7_ior("psm2")["write"] / fig7_ior("tcp")["write"], at_least(1.0)),
    Claim("fig7.psm2_read_band", "§6.4, Fig 7", "PSM2 is 10-25 % above TCP",
          lambda: fig7_ior("psm2", clients=8)["read"] / fig7_ior("tcp", clients=8)["read"],
          between(1.05, 1.4)),
    Claim("fig7.psm2_strongest_at_low_counts", "§6.4, Fig 7",
          "the gap is largest at low client process counts",
          lambda: fig7_ior("psm2", clients=1, ppn=4)["read"]
          / fig7_ior("tcp", clients=1, ppn=4)["read"], above(1.3)),
    Claim("fig7.psm2_reads_no_slower.ci", "§6.4, Fig 7", "PSM2 is above TCP at every point",
          lambda: min(p / t for p, t in zip(curve("fig7", "read psm2").ys,
                                            curve("fig7", "read tcp").ys)), at_least(1.0)),
    Claim("fig7.tcp_reads_scale.ci", "§6.4, Fig 7", "the same scaling pattern",
          lambda: worst_step(curve("fig7", "read tcp").ys), at_least(0.9)),
    Claim("fig7.psm2_reads_scale.ci", "§6.4, Fig 7", "the same scaling pattern",
          lambda: worst_step(curve("fig7", "read psm2").ys), at_least(0.9)),
    Claim("fig7.psm2_read_band.ci", "§6.4, Fig 7",
          "PSM2 is 10-25 % above TCP somewhere in the sweep",
          lambda: max(p / t for p, t in zip(curve("fig7", "read psm2").ys,
                                            curve("fig7", "read tcp").ys)), above(1.1)),
    # mdtest: metadata rates (the paper cites DAOS's IO-500 standing).
    Claim("mdtest.stat_rate_grows", "§1-2, IO-500 mdtest",
          "metadata rates grow with the deployment",
          lambda: mdtest(4)["stat"] / mdtest(1)["stat"], above(1.0)),
    # Ablations beyond the paper.
    Claim("ablation.async.write_gain", "§6.3.1; arXiv 2404.03107",
          "overlapping the index kv_put with the transfer raises writes",
          lambda: async_ablation(True)["write"] / async_ablation(False)["write"],
          above(1.0)),
    Claim("ablation.async.read_unchanged", "§6.3.1; arXiv 2404.03107",
          "the pipeline leaves reads alone",
          lambda: async_ablation(True)["read"] / async_ablation(False)["read"],
          near(1.0, 0.05)),
    Claim("ablation.async.same_op_mix", "§6.3.1; arXiv 2404.03107",
          "the pipeline reorders work, it does not skip any",
          op_mix_changes, equals({})),
    Claim("ablation.kv_service.moves_ceiling", "§6.3.1, Fig 4",
          "the shared KV's update cost sets the contended write ceiling",
          lambda: worst_step([kv_service_ablation(t * USEC)["write"] for t in (140, 70, 35)]),
          above(1.0), slow=True),
    Claim("ablation.iterations.converge", "§6.3.1",
          "2000 iterations reduce the effect of start-up delays on global timing",
          lambda: worst_step([iterations_ablation(n)["write"] for n in (10, 40, 160)]),
          above(1.0), slow=True),
    Claim("ablation.iterations.short_runs_diluted", "§6.3.1",
          "2000 iterations reduce the effect of start-up delays on global timing",
          lambda: iterations_ablation(10)["write"] / iterations_ablation(160)["write"],
          below(0.7), slow=True),
    Claim("ablation.metadata.writes_fall_with_latency", "§6.1.1, §6.3.1",
          "the TCP provider's latency costs Field I/O bandwidth",
          lambda: worst_step([metadata_ablation(f)["write"] for f in (4.0, 1.0, 0.25)]),
          above(1.0)),
    Claim("ablation.metadata.reads_fall_with_latency", "§6.1.1, §6.3.1",
          "the TCP provider's latency costs Field I/O bandwidth",
          lambda: metadata_ablation(0.25)["read"] / metadata_ablation(4.0)["read"],
          above(1.0)),
    Claim("ablation.striping.sx_writes_over_s1", "§6.3.2, Fig 6",
          "wider striping raises writes", lambda: striping_ablation("SX")["write"]
          / striping_ablation("S1")["write"], above(1.0)),
    Claim("ablation.striping.s4_writes_over_s1", "§6.3.2, Fig 6",
          "wider striping raises writes", lambda: striping_ablation("S4")["write"]
          / striping_ablation("S1")["write"], above(1.0)),
    Claim("ablation.striping.s2_reads_over_s1", "§6.3.2, Fig 6",
          "the read optimum is a modest stripe count", lambda: striping_ablation("S2")["read"]
          / striping_ablation("S1")["read"], above(1.0)),
    Claim("ablation.striping.s2_reads_vs_sx", "§6.3.2, Fig 6",
          "the read optimum is a modest stripe count", lambda: striping_ablation("S2")["read"]
          / striping_ablation("SX")["read"], at_least(0.95)),
]


def test_claim_ids_are_unique():
    assert len({claim.id for claim in CLAIMS}) == len(CLAIMS)


@pytest.mark.parametrize("claim", [
    pytest.param(claim, id=claim.id, marks=[pytest.mark.slow] if claim.slow else [])
    for claim in CLAIMS
])
def test_claim(claim):
    measured = claim.measure()
    assert claim.bound.holds(measured), (
        f"{claim.source}: {claim.paper}; measured {measured!r}, bound {claim.bound.text}"
    )
