"""Picklable work-unit functions shared by the experiment drivers.

Each function computes exactly **one grid point** — one deployment, one
benchmark run, one repetition — and returns a small JSON-safe dict, so it
can cross a process-pool boundary and live in the persistent result cache.
The repetition seed is folded in by the caller (``seed = base + rep``, so
each repetition re-seeds placement, start-up skew and tie-breaking like a
re-run job on the real machine); rich parameters (providers, object
classes, enum modes) are passed *by name* and resolved here, keeping the
kwargs trivially fingerprintable.

The returned floats are the exact values the drivers' previous hand-rolled
loops consumed (``summary.write_sync``, ``summary.write_global or 0.0``,
...), so reductions over them stay bit-identical to the serial legacy path.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional

from repro.bench.fieldio_bench import (
    Contention,
    FieldIOBenchParams,
    run_fieldio_pattern_a,
    run_fieldio_pattern_b,
)
from repro.bench.interface_bench import InterfaceBenchParams, run_interface_bench
from repro.bench.ior import IorParams, run_ior
from repro.bench.mdtest import MdtestParams, run_mdtest
from repro.bench.mpi_p2p import sweep_transfer_sizes
from repro.bench.runner import build_deployment
from repro.config import ClusterConfig, PSM2_PROVIDER, TCP_PROVIDER
from repro.daos.objclass import object_class_by_name
from repro.fdb.modes import FieldIOMode
from repro.units import KiB

__all__ = [
    "provider_by_name",
    "backend_kwargs",
    "ior_point",
    "fieldio_point",
    "mdtest_point",
    "interface_point",
    "mpi_point",
]

_PROVIDERS = {spec.name: spec for spec in (TCP_PROVIDER, PSM2_PROVIDER)}


def provider_by_name(name: str):
    """Resolve a fabric provider spec from its name (``'tcp'``, ``'psm2'``)."""
    try:
        return _PROVIDERS[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown provider {name!r}; known: {sorted(_PROVIDERS)}"
        ) from None


def backend_kwargs(backend: str) -> Dict[str, str]:
    """Grid kwargs selecting a storage backend.

    Empty for the default so legacy cache fingerprints — and therefore the
    golden results — are byte-for-byte untouched when running on DAOS.
    """
    return {} if backend == "daos" else {"backend": backend}


def ior_point(
    *,
    servers: int,
    clients: int,
    ppn: int,
    segments: int,
    segment_size: int,
    seed: int,
    engines_per_server: Optional[int] = None,
    client_sockets: Optional[int] = None,
    provider: Optional[str] = None,
    backend: str = "daos",
) -> Dict[str, Any]:
    """One IOR-segments repetition (Table 1, Fig 3, Fig 7)."""
    config_kwargs: Dict[str, Any] = dict(
        n_server_nodes=servers, n_client_nodes=clients, seed=seed
    )
    if engines_per_server is not None:
        config_kwargs["engines_per_server"] = engines_per_server
    if client_sockets is not None:
        config_kwargs["client_sockets"] = client_sockets
    if provider is not None:
        config_kwargs["provider"] = provider_by_name(provider)
    config = ClusterConfig(**config_kwargs)
    params = IorParams(
        segment_size=segment_size, segments=segments, processes_per_node=ppn
    )
    cluster, system, pool = build_deployment(config, backend=backend)
    result = run_ior(cluster, system, pool, params)
    return {
        "write": result.summary.write_sync,
        "read": result.summary.read_sync,
        "sim_time": cluster.sim.now,
    }


def fieldio_point(
    *,
    servers: int,
    clients: int,
    ppn: int,
    mode: str,
    contention: str,
    n_ops: int,
    field_size: int,
    startup_skew: float,
    pattern: str,
    seed: int,
    array_oclass: Optional[str] = None,
    kv_oclass: Optional[str] = None,
    async_io: bool = False,
    want_rpc_stats: bool = False,
    backend: str = "daos",
) -> Dict[str, Any]:
    """One Field I/O repetition (Figs 4-6, async ablation).

    ``mode``/``contention``/object classes come in by name; ``pattern`` is
    ``"A"`` or ``"B"``.  With ``want_rpc_stats`` the per-op RPC accumulators
    are serialised into the result (the ablation report renders them).
    """
    config = ClusterConfig(n_server_nodes=servers, n_client_nodes=clients, seed=seed)
    params_kwargs: Dict[str, Any] = dict(
        mode=FieldIOMode(mode),
        contention=Contention[contention],
        n_ops=n_ops,
        field_size=field_size,
        processes_per_node=ppn,
        startup_skew=startup_skew,
        async_io=async_io,
    )
    if array_oclass is not None:
        params_kwargs["array_oclass"] = object_class_by_name(array_oclass)
    if kv_oclass is not None:
        params_kwargs["kv_oclass"] = object_class_by_name(kv_oclass)
    params = FieldIOBenchParams(**params_kwargs)
    runner = run_fieldio_pattern_a if pattern == "A" else run_fieldio_pattern_b
    cluster, system, pool = build_deployment(config, backend=backend)
    result = runner(cluster, system, pool, params)
    point: Dict[str, Any] = {
        "write": result.summary.write_global or 0.0,
        "read": result.summary.read_global or 0.0,
        "sim_time": cluster.sim.now,
    }
    if want_rpc_stats:
        point["rpc_stats"] = {
            op: stats.as_dict() for op, stats in result.rpc_stats.items()
        }
    return point


def mdtest_point(
    *,
    servers: int,
    clients: int,
    ppn: int,
    files: int,
    file_size: int,
    seed: int,
    backend: str = "daos",
) -> Dict[str, Any]:
    """One mdtest repetition (backend_compare metadata-rate rows)."""
    config = ClusterConfig(n_server_nodes=servers, n_client_nodes=clients, seed=seed)
    params = MdtestParams(
        processes_per_node=ppn, files_per_process=files, file_size=file_size
    )
    cluster, system, pool = build_deployment(config, backend=backend)
    result = run_mdtest(cluster, system, pool, params)
    return {
        "create": result.create_rate,
        "stat": result.stat_rate,
        "remove": result.remove_rate,
        "sim_time": cluster.sim.now,
    }


def interface_point(
    *,
    interface: str,
    servers: int,
    clients: int,
    ppn: int,
    n_ops: int,
    field_size: int,
    seed: int,
    backend: str = "daos",
) -> Dict[str, Any]:
    """One interface-comparison repetition (interfaces experiment).

    Whole-field values travel through the KV interface, so the deployment
    enables bulk KV value transfers above 64 KiB (arXiv:2311.18714 measures
    the pydaos dictionary path with real payloads); the tiny 40-byte Field
    I/O index entries stay inline, below the threshold.
    """
    config = ClusterConfig(n_server_nodes=servers, n_client_nodes=clients, seed=seed)
    config = replace(config, daos=replace(config.daos, kv_bulk_threshold=64 * KiB))
    params = InterfaceBenchParams(
        interface=interface,
        n_ops=n_ops,
        field_size=field_size,
        processes_per_node=ppn,
    )
    cluster, system, pool = build_deployment(config, backend=backend)
    result = run_interface_bench(cluster, system, pool, params)
    return {
        "write": result.summary.write_global or 0.0,
        "read": result.summary.read_global or 0.0,
        "sim_time": cluster.sim.now,
    }


def mpi_point(
    *,
    provider: str,
    pairs: int,
    sizes: List[int],
    messages: int,
    seed: int,
) -> Dict[str, Any]:
    """One MPI point-to-point sweep row (Table 2)."""
    config = ClusterConfig(
        n_server_nodes=1,
        n_client_nodes=2,
        provider=provider_by_name(provider),
        client_sockets=1,
        seed=seed,
    )
    best_size, best_bw, _ = sweep_transfer_sizes(
        config, pairs, sizes=tuple(sizes), messages=messages
    )
    return {"best_size": best_size, "best_bw": best_bw}
