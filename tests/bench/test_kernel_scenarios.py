"""The kernel scenarios and the count record they are held to.

``benchmarks/kernel_scenarios.py`` and ``scripts/profile_hotpath.py`` are
loaded by path.  Every scenario's digest must equal its ``COUNTS.json`` row
(the ``counts`` rail re-checks the full rows in fresh interpreters), and
``profile_hotpath.py --record`` must refuse to overwrite a moved digest.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[2]


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


kernel_scenarios = _load("kernel_scenarios", _ROOT / "benchmarks" / "kernel_scenarios.py")
hotpath = _load("profile_hotpath", _ROOT / "scripts" / "profile_hotpath.py")


@pytest.fixture(scope="module")
def results():
    return {name: run() for name, run in kernel_scenarios.SCENARIOS.items()}


def test_every_scenario_digests_to_its_counts_row(results):
    record = hotpath.load_record(hotpath.RECORD)
    assert len(results) == 10
    assert sorted(results) == sorted(row for row in record if "-seed" not in row)
    for name, result in results.items():
        assert result.sim_time > 0.0, name
        assert result.digest == record[name]["digest"], name


def test_wide_contention_is_the_scenario_that_times_the_array_kernel(results):
    """Its solves have >= 40 groups in scope; the storms coalesce below that."""
    wide = results["wide_contention"].extra
    assert wide["peak_concurrent_flows"] >= 150 and wide["groups"] >= 60
    assert wide["vector_solves"] > wide["solves"] // 2
    assert wide["changes"] == 2 * wide["n_flows"]
    for name in ("many_flow_contention", "flow_storm_5k"):
        assert results[name].extra["vector_solves"] == 0


def test_a_fresh_interpreter_measures_the_recorded_counts():
    """The rail's path: one row measured in its own interpreter.  ``calls``
    is left to the rail, which knows which CPython version recorded it."""
    measured = hotpath.measure([("barrier_burst", None)])["barrier_burst"]
    recorded = hotpath.load_record(hotpath.RECORD)["barrier_burst"]
    assert measured["total_calls"] >= measured["calls"] > 0
    del measured["calls"], measured["total_calls"]
    assert measured == {key: value for key, value in recorded.items() if key != "calls"}


def _counts(digest, calls):
    return {
        "digest": digest, "calls": calls, "total_calls": 2 * calls,
        "queue_entries": 5, "instants": 3, "flow_wakes_armed": 1,
        "flow_wakes_stale": 0, "arena_entries": 0, "arena_releases": 0,
    }


def test_record_refuses_to_overwrite_a_moved_digest(tmp_path, monkeypatch, capsys):
    """Counts are re-recorded; a moved digest must not slip in."""
    path = tmp_path / "COUNTS.json"
    measured = {"row": _counts("a" * 64, 10)}
    monkeypatch.setattr(hotpath, "RECORD", path)
    monkeypatch.setattr(hotpath, "measure", lambda rows: measured)

    assert hotpath.main(["--record"]) == 0
    row = hotpath.load_record(path)["row"]
    assert row["calls"] == {hotpath.PYTHON: 10} and "total_calls" not in row

    measured["row"] = _counts("a" * 64, 11)  # same digest, a count moved
    assert hotpath.main(["--record"]) == 0
    assert hotpath.load_record(path)["row"]["calls"] == {hotpath.PYTHON: 11}

    measured["row"] = _counts("b" * 64, 11)
    before = path.read_text()
    capsys.readouterr()
    assert hotpath.main(["--record"]) == 1
    assert f"row: {'a' * 12} -> {'b' * 12}" in capsys.readouterr().err
    assert path.read_text() == before  # left untouched

    record = json.loads(before)
    del record["rows"]["row"]  # deleting the row re-anchors it
    path.write_text(json.dumps(record))
    assert hotpath.main(["--record"]) == 0
    assert hotpath.load_record(path)["row"]["digest"] == "b" * 64


def test_record_keeps_other_versions_calls(tmp_path):
    path = tmp_path / "COUNTS.json"
    other = "3.0"
    entry = hotpath.record_row(_counts("a" * 64, 7))
    entry["calls"] = {other: 9}
    path.write_text(json.dumps({"rows": {"row": entry}}))
    assert hotpath.record({"row": _counts("a" * 64, 7)}, path) == []
    assert hotpath.load_record(path)["row"]["calls"] == {other: 9, hotpath.PYTHON: 7}
    assert hotpath.recorded_calls(hotpath.load_record(path)["row"]) == (hotpath.PYTHON, 7)
