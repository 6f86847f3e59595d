"""Tier-1 smoke run of the kernel perf harness (``repro bench --quick``).

CI does not time the kernel (wall time on shared runners is noise); what it
*can* check cheaply is that every scenario runs, digests deterministically,
and the CLI entry point (including ``--profile``) produces a well-formed
``BENCH_kernel.json``.  The quick sizes keep this in seconds.
"""

import json

import pytest

from repro.bench.runner import KERNEL_BENCH_SCHEMA, run_kernel_benchmarks
from repro.cli import main

pytestmark = pytest.mark.smoke


def test_quick_scenarios_run_and_digest_deterministically():
    # repeats=2 makes the harness itself assert digest equality across
    # runs (it raises RuntimeError on drift).
    payload = run_kernel_benchmarks(quick=True, repeats=2)
    assert payload["schema"] == KERNEL_BENCH_SCHEMA
    assert payload["quick"] is True
    names = set(payload["scenarios"])
    assert names == {
        "many_flow_contention",
        "wide_contention",
        "barrier_burst",
        "flow_storm_5k",
        "flow_storm_100k",
        "kv_storm",
        "rpc_storm",
        "serving_storm",
        "fieldio_small",
        "grid_fanout",
    }
    for entry in payload["scenarios"].values():
        assert entry["wall_s"] >= 0.0
        assert entry["sim_time"] > 0.0
        assert len(entry["digest"]) == 64


def test_wide_contention_is_the_scenario_that_times_the_array_kernel():
    """Its solves have >= 40 groups in scope; the storms coalesce below that."""
    payload = run_kernel_benchmarks(
        quick=True, scenarios=["wide_contention", "many_flow_contention", "flow_storm_5k"]
    )
    wide = payload["scenarios"]["wide_contention"]
    assert wide["peak_concurrent_flows"] >= 150 and wide["groups"] >= 60
    assert wide["vector_solves"] > wide["solves"] // 2
    assert wide["changes"] == 2 * wide["n_flows"]
    for name in ("many_flow_contention", "flow_storm_5k"):
        assert payload["scenarios"][name]["vector_solves"] == 0


def test_cli_bench_profile_quick(tmp_path, capsys):
    out = tmp_path / "BENCH_kernel.json"
    code = main(
        [
            "bench",
            "--profile",
            "--quick",
            "--scenario",
            "many_flow_contention",
            "--json",
            str(out),
        ]
    )
    assert code == 0
    captured = capsys.readouterr().out
    # The cProfile table and the per-scenario summary both printed.
    assert "cumulative" in captured
    assert "many_flow_contention" in captured
    payload = json.loads(out.read_text())
    assert payload["schema"] == KERNEL_BENCH_SCHEMA
    assert list(payload["scenarios"]) == ["many_flow_contention"]


def test_cli_bench_speedup_against_baseline(tmp_path, capsys):
    """--baseline embeds per-scenario speedups into the payload."""
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    args = ["bench", "--quick", "--scenario", "fieldio_small"]
    assert main(args + ["--json", str(first)]) == 0
    assert main(args + ["--json", str(second), "--baseline", str(first)]) == 0
    capsys.readouterr()
    payload = json.loads(second.read_text())
    assert payload["baseline"]["path"] == str(first)
    assert "fieldio_small" in payload["speedup"]
    # Same kernel both times: digests agree even though wall time differs.
    reference = json.loads(first.read_text())
    assert (
        payload["scenarios"]["fieldio_small"]["digest"]
        == reference["scenarios"]["fieldio_small"]["digest"]
    )


def test_cli_bench_refuses_to_overwrite_a_different_digest(tmp_path, capsys):
    """Re-recording is for wall times; a moved digest must not slip in."""
    out = tmp_path / "BENCH_kernel.json"
    args = ["bench", "--quick", "--scenario", "fieldio_small", "--json", str(out)]
    assert main(args) == 0
    assert main(args) == 0  # same digest: re-recording is fine
    payload = json.loads(out.read_text())
    payload["scenarios"]["fieldio_small"]["digest"] = "0" * 64
    tampered = json.dumps(payload)
    out.write_text(tampered)
    capsys.readouterr()
    assert main(args) == 2
    assert "digest drift in fieldio_small" in capsys.readouterr().err
    assert out.read_text() == tampered  # left untouched
