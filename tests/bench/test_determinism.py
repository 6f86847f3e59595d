"""Golden determinism regression for the simulation kernel.

Identical seeds must produce *bit-identical* timestamp logs — not merely
statistically similar ones.  This is the contract every kernel optimisation
(incremental flow-rate recomputation, the completion heap, event-dispatch
fast paths, hash memoisation) has to preserve, and it is what makes paper
figures reproducible across machines and PRs.

Two layers of protection:

* run-vs-run: the same scenario executed twice in one process digests
  identically (catches accidental global state, iteration-order effects);
* golden values: the digests match constants captured from the pre-optimised
  reference kernel, so a change that is self-consistent but alters the
  simulated timeline still fails loudly.

If a *deliberate* semantic change to the simulated system alters these
digests, recapture the goldens with the recipe in each test and say so in
the PR.
"""

import pytest

from repro.bench.fieldio_bench import (
    Contention,
    FieldIOBenchParams,
    run_fieldio_pattern_a,
    run_fieldio_pattern_b,
)
from repro.bench.ior import IorParams, run_ior
from repro.bench.runner import build_deployment
from repro.config import ClusterConfig
from repro.units import KiB, MiB

#: Captured from the reference (pre-incremental) kernel; see module docstring.
GOLDEN_A_DIGEST = "de81781b4c9f4ec4cdd0546632182cb687a575021ba12c6d82680b786359cc6c"
GOLDEN_A_BYTES_HEX = "0x1.4000000000000p+24"
GOLDEN_A_RECORDS = 80

GOLDEN_B_DIGEST = "1f40a7dc1a69580d0bd799a9bfbcf36786adc1092c6aa1202ccf418eca5587a0"
GOLDEN_B_BYTES_HEX = "0x1.6000000000000p+23"
GOLDEN_B_RECORDS = 40


def _params() -> FieldIOBenchParams:
    return FieldIOBenchParams(
        contention=Contention.HIGH,
        n_ops=5,
        field_size=256 * KiB,
        processes_per_node=4,
    )


def _config() -> ClusterConfig:
    return ClusterConfig(n_server_nodes=1, n_client_nodes=2, seed=42)


def _run(pattern_runner):
    cluster, system, pool = build_deployment(_config())
    result = pattern_runner(cluster, system, pool, _params())
    return result, cluster


def test_pattern_a_bit_identical_and_golden():
    first, cluster_first = _run(run_fieldio_pattern_a)
    second, cluster_second = _run(run_fieldio_pattern_a)

    assert first.log.digest() == second.log.digest()
    assert cluster_first.net.completed_bytes == cluster_second.net.completed_bytes

    assert len(first.log) == GOLDEN_A_RECORDS
    assert first.log.digest() == GOLDEN_A_DIGEST
    assert float(cluster_first.net.completed_bytes).hex() == GOLDEN_A_BYTES_HEX


def test_pattern_b_bit_identical_and_golden():
    first, cluster_first = _run(run_fieldio_pattern_b)
    second, cluster_second = _run(run_fieldio_pattern_b)

    assert first.log.digest() == second.log.digest()
    assert cluster_first.net.completed_bytes == cluster_second.net.completed_bytes

    assert len(first.log) == GOLDEN_B_RECORDS
    assert first.log.digest() == GOLDEN_B_DIGEST
    assert float(cluster_first.net.completed_bytes).hex() == GOLDEN_B_BYTES_HEX


def test_different_seed_changes_the_timeline():
    """Sanity check that the digest is actually sensitive to the seed."""
    cluster, system, pool = build_deployment(
        ClusterConfig(n_server_nodes=1, n_client_nodes=2, seed=43)
    )
    result = run_fieldio_pattern_a(cluster, system, pool, _params())
    assert result.log.digest() != GOLDEN_A_DIGEST


#: Captured at the commit before IOR ranks were batch-spawned and barrier
#: generations became one shared event (per-rank bootstraps, one event per
#: waiter): ``run_ior`` below, ``result.log.digest()`` / ``sim.now.hex()``.
GOLDEN_IOR = {
    "daos": (
        "d2c1f7883cccd5650298380896ff605a65ebcb99e1a86492bfe49d11cc360c3b",
        "0x1.72e62b84b779ap-6",
    ),
    "posixfs": (
        "723742e64c2b77f6ba6158498c2ecae7c2aa8a7f1601d30349114bf6c1888a91",
        "0x1.7b25184c8665bp-6",
    ),
}


@pytest.mark.parametrize("backend", sorted(GOLDEN_IOR))
def test_ior_bit_identical_and_golden(backend):
    cluster, system, pool = build_deployment(_config(), backend=backend)
    params = IorParams(segment_size=1 * MiB, segments=6, processes_per_node=6)
    result = run_ior(cluster, system, pool, params)
    assert len(result.log) == 24
    assert (result.log.digest(), float(cluster.sim.now).hex()) == GOLDEN_IOR[backend]
