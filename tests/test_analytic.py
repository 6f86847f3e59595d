"""Analytic bounds cross-check the simulator's steady state."""

import pytest

from repro.analytic.model import ior_read_bound, ior_write_bound, mpi_p2p_bound
from repro.bench.ior import IorParams, run_ior
from repro.bench.runner import build_deployment
from repro.config import ClusterConfig, PSM2_PROVIDER
from repro.units import MiB


def test_write_bound_engine_limited():
    config = ClusterConfig(n_server_nodes=1, n_client_nodes=4)
    bound = ior_write_bound(config)
    spec = config.provider
    hw = config.hardware
    per_engine = min(spec.engine_rx_cap, hw.scm_media_bw / hw.scm_write_amplification)
    assert bound == pytest.approx(2 * per_engine)


def test_read_bound_client_limited_at_one_node():
    config = ClusterConfig(n_server_nodes=2, n_client_nodes=1)
    bound = ior_read_bound(config)
    # One client node, two sockets: 2 x client_rx_cap binds below 4 engines.
    assert bound == pytest.approx(2 * config.provider.client_rx_cap)


def test_read_bound_rail_limited_at_scale():
    config = ClusterConfig(n_server_nodes=10, n_client_nodes=20)
    bound = ior_read_bound(config)
    assert bound == pytest.approx(2 * config.hardware.rail_bisection_bw)


def test_psm2_bounds_exceed_tcp():
    tcp = ClusterConfig(n_server_nodes=4, n_client_nodes=8)
    psm2 = tcp.with_provider(PSM2_PROVIDER)
    assert ior_read_bound(psm2) > ior_read_bound(tcp)


def test_ior_simulation_tracks_write_bound():
    config = ClusterConfig(n_server_nodes=1, n_client_nodes=2)
    cluster, system, pool = build_deployment(config)
    result = run_ior(
        cluster, system, pool,
        IorParams(segment_size=1 * MiB, segments=20, processes_per_node=16),
    )
    bound = ior_write_bound(config)
    measured = result.summary.write_sync
    assert measured <= bound * 1.01
    assert measured >= bound * 0.85  # within 15% of the bound when saturated


def test_ior_simulation_tracks_read_bound():
    config = ClusterConfig(n_server_nodes=1, n_client_nodes=2)
    cluster, system, pool = build_deployment(config)
    result = run_ior(
        cluster, system, pool,
        IorParams(segment_size=1 * MiB, segments=20, processes_per_node=16),
    )
    bound = ior_read_bound(config)
    measured = result.summary.read_sync
    assert measured <= bound * 1.01
    assert measured >= bound * 0.80


def test_fieldio_bound_shared_kv_ceiling():
    from repro.analytic.model import fieldio_write_bound

    small = ClusterConfig(n_server_nodes=2, n_client_nodes=4)
    large = ClusterConfig(n_server_nodes=8, n_client_nodes=16)
    # Without the shared KV, bound tracks the hardware.
    assert fieldio_write_bound(large, False, MiB) == ior_write_bound(large)
    # With it, small deployments are hardware-bound, large KV-bound.
    assert fieldio_write_bound(small, True, MiB) == ior_write_bound(small)
    kv_ceiling = MiB / large.daos.kv_put_service_time
    assert fieldio_write_bound(large, True, MiB) == pytest.approx(kv_ceiling)
    # Bigger fields raise the byte-rate ceiling proportionally.
    assert fieldio_write_bound(large, True, 2 * MiB) <= ior_write_bound(large)


def test_mpi_bound_latency_sensitivity():
    config = ClusterConfig(n_server_nodes=1, n_client_nodes=2)
    small = mpi_p2p_bound(config, pairs=1, transfer_size=64 * 1024)
    large = mpi_p2p_bound(config, pairs=1, transfer_size=16 * MiB)
    assert small < large
    assert large < config.provider.per_flow_cap
