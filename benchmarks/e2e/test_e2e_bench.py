"""Checks of the end-to-end benchmark package itself.

Not under the tier-1 ``testpaths``; run explicitly::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_bench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.e2e.compare import EXIT_CODES, compare, verdict
from benchmarks.e2e.metrics import END_TO_END, LAYERS, PER_LAYER, POINTS, layer_of_repro_file
from benchmarks.e2e.run import CHILDREN, passes_per_child

ROOT = Path(__file__).resolve().parents[2]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_manifest_matches_metric_tables():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(POINTS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in MANIFEST["end_to_end"]
    ] == [(m.name, m.unit, m.better, m.bound) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in MANIFEST["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER
    ]
    setup = next(m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"])


def test_smoke_run_emits_every_metric(tmp_path):
    out = tmp_path / "smoke.json"
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "run", "--smoke", "--trace", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.monotonic() - start
    assert done.returncode == 0, done.stderr
    assert elapsed < 15, f"smoke run took {elapsed:.1f}s"
    record = json.loads(out.read_text())
    assert list(record["workloads"]) == list(POINTS)
    printed = {tuple(line.split()[:2]): line.split() for line in done.stdout.splitlines()}
    for workload, result in record["workloads"].items():
        assert result["correct"] and result["failed"] == 0
        # A pass count, not a time budget: the sample size is fixed.
        assert result["timed_passes"] == CHILDREN * passes_per_child(0)
        for group in ("end_to_end", "per_layer"):
            for spec in MANIFEST[group]:
                entry = result[group][spec["name"]]
                assert entry["unit"] == spec["unit"]
                assert printed[(workload, spec["name"])][3] == spec["unit"]
        for spec in MANIFEST["end_to_end"]:
            assert result["end_to_end"][spec["name"]]["value"] > 0
        # A layer that the workload never enters must read zero.
        layers = result["per_layer"]
        assert (layers["serving.share"]["value"] > 0) == (workload == "product_serving")
        assert (layers["posixfs.share"]["value"] > 0) == (workload == "metadata_storm")
        # The token bucket is in the path on product_serving, and only there.
        assert (layers["serving.qos_delayed"]["value"] > 0) == (workload == "product_serving")
        assert layers["serving.shed"]["value"] == 0


def test_every_repro_file_has_a_named_layer():
    package = ROOT / "src" / "repro"
    named = set(LAYERS) - {"host.python"}
    files = sorted(package.rglob("*.py"))
    assert files
    for path in files:
        relative = path.relative_to(package).as_posix()
        assert layer_of_repro_file(relative) in named, relative
    assert layer_of_repro_file("network/flow.py") == "network.flow"
    assert layer_of_repro_file("network/fabric.py") == "network.fabric"
    assert layer_of_repro_file("daos/client.py") == "daos.client"
    assert layer_of_repro_file("daos/kv.py") == "daos.objects"
    # A new package must be given a layer, not fall into host.python.
    assert layer_of_repro_file("newpkg/module.py") is None


def _entry(value, samples=None):
    entry = {"value": value, "unit": "s"}
    if samples is not None:
        entry["samples"] = samples
    return entry


def test_compare_verdicts():
    tight = [1.0, 1.01, 0.99, 1.0, 1.0]
    assert verdict(_entry(1.0, tight), _entry(1.05, tight), "lower", 0.10)[0] == "ok"
    assert verdict(_entry(1.0, tight), _entry(1.2, tight), "lower", 0.10)[0] == "regressed"
    assert verdict(_entry(1.0, tight), _entry(0.8, tight), "higher", 0.10)[0] == "regressed"
    assert verdict(_entry(1.0, tight), _entry(1.2, tight), "higher", 0.10)[0] == "ok"
    noisy = [0.7, 1.0, 1.3, 0.8, 1.2]
    assert verdict(_entry(1.0, noisy), _entry(1.0, tight), "lower", 0.10)[0] == "unresolved"
    # Wide spread, but every new sample beats every base sample.
    fast = [0.5, 0.51, 0.5]
    assert verdict(_entry(1.0, noisy), _entry(0.5, fast), "lower", 0.10)[0] == "ok"
    # Deterministic (sample-free) metrics: exact comparison against the bound.
    assert verdict(_entry(2.0), _entry(2.0), "lower", 0.0)[0] == "ok"
    assert verdict(_entry(2.0), _entry(2.001), "lower", 0.0)[0] == "regressed"


def test_compare_overall_and_exit_order():
    manifest = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}

    def record(value):
        return {"workloads": {"w": {"digest": "d" * 64,
                                    "end_to_end": {"wall_s": _entry(value, [value] * 3)}}}}

    assert compare(record(1.0), record(1.0), manifest)[0] == "ok"
    overall, lines = compare(record(1.0), record(1.5), manifest)
    assert overall == "regressed"
    assert any("x1.5000 of base" in line and "base 1 s" in line for line in lines)
    assert compare(record(1.0), {"workloads": {}}, manifest)[0] == "unresolved"


def test_compare_gates_sim_numbers_at_equal_seed():
    manifest = {"end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2},
        {"name": "sim_p99_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    ]}

    def record(seed, p99, digest="d" * 64, solves=7.0):
        return {"seed": seed, "shape": "full", "workloads": {"w": {
            "digest": digest,
            "end_to_end": {"wall_s": _entry(1.0, [1.0] * 3), "sim_p99_ms": _entry(p99)},
            "per_layer": {"network.flow.solves": _entry(solves), "bench.build_s": _entry(0.5)},
        }}}

    assert compare(record(0, 2.0), record(0, 2.0), manifest)[0] == "ok"
    # Same seed: a sim value well inside its cross-seed bound still fails.
    overall, lines = compare(record(0, 2.0), record(0, 2.2, digest="e" * 64), manifest)
    assert overall == "sim-changed" and EXIT_CODES[overall] != 0
    assert any(line.startswith("w sim_p99_ms sim-changed") for line in lines)
    assert any(line.startswith("w sim-outcome sim-changed") for line in lines)
    # ... and so do a digest or a sim counter that moved on their own.
    assert compare(record(0, 2.0), record(0, 2.0, digest="e" * 64), manifest)[0] == "sim-changed"
    overall, lines = compare(record(0, 2.0), record(0, 2.0, solves=8.0), manifest)
    assert overall == "sim-changed"
    assert any(line.startswith("w network.flow.solves sim-changed") for line in lines)
    # Different seeds: other inputs, so the cross-seed bound decides.
    assert compare(record(0, 2.0), record(1, 2.2, digest="e" * 64), manifest)[0] == "ok"
    assert compare(record(0, 2.0), record(1, 2.6, digest="e" * 64), manifest)[0] == "regressed"
