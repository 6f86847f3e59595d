"""Metric and layer definitions of the end-to-end benchmark.

One table for the end-to-end metrics (what a user of the simulator sees)
and one for the per-layer metrics (where the cost sits), each entry with
its unit, direction and — written down before anything was measured — the
end-to-end metric and workload it is expected to move (``moves``).
``BENCHMARK.json`` repeats names, units, directions and bounds in the
driver's fixed schema; ``test_e2e_bench.py`` keeps the two in step.

Every number is labelled ``host`` (what the simulator costs to run) or
``sim`` (what the modelled DAOS/Lustre system would do).  A change meant
only to speed the simulator must leave every ``sim`` number bit-identical
at equal seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import PurePath
from typing import Optional, Tuple

__all__ = [
    "Metric",
    "END_TO_END",
    "PER_LAYER",
    "LAYERS",
    "POINTS",
    "layer_of_repro_file",
]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: "host" or "sim".
    kind: str
    #: End-to-end only: share of the parent's median it may worsen by.
    bound: Optional[float] = None
    #: End-to-end: what it measures.  Per-layer: the expected coupling —
    #: which end-to-end metric it should move, on which workload.
    moves: str = ""


#: End-to-end metrics, every one reported on every workload.  The bounds
#: are what the driver gates on across its runs at different seeds: each
#: is about three times the widest interquartile spread seen in ten-seed
#: runs on the 2-core box the baseline was taken on (where long-lived
#: neighbour noise moves whole runs by up to ~9%), capped at the driver's
#: 0.25.  For sim metrics that spread is the seed's doing (placement,
#: start-up skew, zipf schedule, IOR segment count); at equal seed they
#: repeat exactly and ``compare`` ignores their bounds: any difference is
#: ``sim-changed``.
END_TO_END: Tuple[Metric, ...] = (
    Metric("wall_s", "s", "lower", "host", 0.20, "median pass wall: deployment builds + run"),
    Metric("cpu_s", "s", "lower", "host", 0.20, "median pass process CPU"),
    Metric("setup_s", "s", "lower", "host", 0.25,
           "interpreter start -> first timed pass: imports, input generation, cold pass"),
    Metric("peak_rss_mib", "MiB", "lower", "host", 0.10, "ru_maxrss of the untraced child"),
    Metric("sim_time_s", "s", "lower", "sim", 0.08, "simulated seconds summed over points"),
    Metric("sim_ops_per_s", "1/s", "higher", "sim", 0.08,
           "unit ops (field ops, IOR process transfers, metadata ops, served requests) "
           "per simulated second"),
    Metric("sim_gibs", "GiB/s", "higher", "sim", 0.08,
           "application payload GiB moved per simulated second"),
    # The mean, not the median: the pooled population is multi-modal
    # (cache hits vs misses, one cluster per IOR deployment), so its median
    # flips between modes from seed to seed or sits on a constant.
    Metric("sim_mean_ms", "ms", "lower", "sim", 0.25,
           "mean simulated latency of the unit op, pooled over points"),
    Metric("sim_p99_ms", "ms", "lower", "sim", 0.25,
           "p99 simulated latency of the unit op, pooled over points (>= 3000 samples)"),
)

#: The repo's modules, as layers.  ``host.python`` is every pure-Python
#: frame outside the repo (stdlib, numpy's Python side); C functions are
#: charged to the Python function that called them.
LAYERS: Tuple[str, ...] = (
    "simulation",
    "network.flow",
    "network.fabric",
    "hardware",
    "daos.client",
    "daos.rpc",
    "daos.locks",
    "daos.payload",
    "daos.objects",
    "posixfs",
    "fdb",
    "serving",
    "workloads",
    "bench",
    "host.python",
)

#: Path (relative to ``src/repro/``) prefix -> layer; first match wins.
#: Every file of the package must match a rule: a new package has to be
#: given a layer here rather than fall silently into ``host.python``.
_REPRO_RULES: Tuple[Tuple[str, str], ...] = (
    ("simulation/", "simulation"),
    ("network/flow.py", "network.flow"),
    ("network/", "network.fabric"),
    ("hardware/", "hardware"),
    ("daos/client.py", "daos.client"),
    ("daos/rpc.py", "daos.rpc"),
    ("daos/eq.py", "daos.rpc"),
    ("daos/locks.py", "daos.locks"),
    ("daos/payload.py", "daos.payload"),
    ("daos/", "daos.objects"),
    ("posixfs/", "posixfs"),
    ("fdb/", "fdb"),
    ("serving/", "serving"),
    ("workloads/", "workloads"),
    ("bench/", "bench"),
    ("experiments/", "bench"),
    ("backends/", "bench"),
    ("analytic/", "bench"),
    ("__init__.py", "bench"),
    ("__main__.py", "bench"),
    ("cli.py", "bench"),
    ("config.py", "bench"),
    ("units.py", "bench"),
)


def layer_of_repro_file(relative: str) -> Optional[str]:
    """Layer of a file given relative to ``src/repro/`` (``None`` = no rule)."""
    relative = PurePath(relative).as_posix()
    for prefix, layer in _REPRO_RULES:
        if relative.startswith(prefix):
            return layer
    return None


#: Named points per workload, for ``bench.point.<point>.wall_s``.
POINTS = {
    "fieldio_contended": ("A", "B"),
    "fieldio_wide": ("A_noindex", "B_full"),
    "ior_scaling": ("table1", "fig3"),
    "metadata_storm": ("daos.private", "daos.shared", "posixfs.private", "posixfs.shared"),
    "product_serving": ("cache15", "qos_paced"),
}

_LAYER_MOVES = {
    "simulation": "wall_s on metadata_storm and ior_scaling (~30% each), less elsewhere",
    "network.flow": "wall_s/cpu_s on fieldio_wide (most) and fieldio_contended; "
                    "no change (<=5% share) on metadata_storm and ior_scaling",
    "network.fabric": "wall_s on the fieldio pair and ior_scaling (path set-up per transfer)",
    "hardware": "wall_s and setup_s on ior_scaling (deployment builds)",
    "daos.client": "wall_s on metadata_storm, then ior_scaling",
    "daos.rpc": "wall_s on metadata_storm, then ior_scaling",
    "daos.locks": "wall_s on metadata_storm (shared points), then ior_scaling",
    "daos.payload": "wall_s and peak_rss_mib on product_serving",
    "daos.objects": "wall_s and setup_s on ior_scaling (deployment builds, placement)",
    "posixfs": "wall_s on metadata_storm only",
    "fdb": "wall_s on product_serving, slightly on the two fieldio workloads",
    "serving": "wall_s on product_serving only",
    "workloads": "wall_s on product_serving (zipf schedule, requests, field payloads)",
    "bench": "wall_s and setup_s on ior_scaling (deployment builds per pass)",
    "host.python": "wall_s everywhere (stdlib/numpy Python frames)",
}


def _per_layer() -> Tuple[Metric, ...]:
    metrics = []
    for layer in LAYERS:
        moves = _LAYER_MOVES[layer]
        metrics.append(Metric(f"{layer}.self_s", "s", "lower", "host", moves=moves))
        metrics.append(Metric(f"{layer}.share", "ratio", "lower", "host", moves=moves))
        metrics.append(Metric(f"{layer}.calls_in", "count", "lower", "host", moves=moves))
    fieldio_wall = "wall_s on fieldio_wide and fieldio_contended"
    storm_sim = "sim_time_s, sim_p99_ms on metadata_storm"
    serving_sim = "sim_p99_ms on product_serving"
    metrics += [
        Metric("network.flow.solves", "count", "lower", "sim", moves=fieldio_wall),
        Metric("network.flow.changes", "count", "lower", "sim", moves=fieldio_wall),
        Metric("network.flow.solves_per_change", "ratio", "lower", "sim", moves=fieldio_wall),
        Metric("network.flow.evicted", "count", "lower", "sim", moves=fieldio_wall),
        Metric("simulation.scheduler_switches", "count", "lower", "host",
               moves="wall_s where pending events cross the heap/wheel thresholds"),
        Metric("daos.rpc.ops", "count", "lower", "sim", moves=storm_sim),
        Metric("daos.rpc.meta_ops", "count", "lower", "sim", moves=storm_sim),
        Metric("daos.rpc.data_ops", "count", "lower", "sim",
               moves="sim_gibs on the fieldio pair and ior_scaling"),
        Metric("daos.rpc.errors", "count", "lower", "sim",
               moves="only the container_create exists-race is expected"),
        Metric("daos.rpc.retries", "count", "lower", "sim", moves=storm_sim),
        Metric("daos.rpc.sim_busy_s", "s", "lower", "sim", moves=storm_sim),
        Metric("fdb.fields_written", "count", "higher", "sim",
               moves="sim_gibs on the fieldio pair and product_serving"),
        Metric("fdb.fields_read", "count", "higher", "sim",
               moves="sim_gibs on the fieldio pair and product_serving"),
        Metric("serving.requests", "count", "higher", "sim", moves=serving_sim),
        Metric("serving.hit_rate", "ratio", "higher", "sim", moves=serving_sim),
        Metric("serving.evictions", "count", "lower", "sim", moves=serving_sim),
        Metric("serving.shed", "count", "lower", "sim",
               moves="failed_ops_share on product_serving (0 by construction)"),
        Metric("serving.qos_delayed", "count", "lower", "sim",
               moves=serving_sim + " (> 0 there by construction: the qos_paced point)"),
        Metric("serving.coalesced", "count", "higher", "sim", moves=serving_sim),
        Metric("serving.promotions", "count", "higher", "sim", moves=serving_sim),
        Metric("bench.peak_concurrent_ops", "count", "higher", "sim",
               moves="which solver regime a fieldio workload sits in (<=64 vs >100 flows)"),
        Metric("bench.model_err_pct", "%", "lower", "sim",
               moves="ior_scaling only (Table 1); other workloads are unvalidated and read 0"),
        Metric("bench.failed_ops_share", "ratio", "lower", "sim",
               moves="failed, errored, shed ops and violated checks / attempted; 0 everywhere"),
        Metric("bench.import_s", "s", "lower", "host", moves="setup_s everywhere"),
        Metric("bench.build_s", "s", "lower", "host",
               moves="wall_s on ior_scaling (56 deployment builds per pass)"),
        Metric("bench.cold_pass_s", "s", "lower", "host", moves="setup_s everywhere"),
        Metric("bench.archive_s", "s", "lower", "host",
               moves="wall_s on product_serving (FieldIO.write of the catalog)"),
        Metric("bench.serve_s", "s", "lower", "host",
               moves="wall_s on product_serving (gateway under the zipf schedule)"),
        Metric("bench.trace_overhead_x", "x", "lower", "host",
               moves="none: traced / untraced pass wall"),
    ]
    for workload, points in POINTS.items():
        for point in points:
            metrics.append(Metric(f"bench.point.{point}.wall_s", "s", "lower", "host",
                                  moves=f"wall_s on {workload}"))
    return tuple(metrics)


PER_LAYER: Tuple[Metric, ...] = _per_layer()
