"""The rails' failure paths, on hand-built experiment results.

``scripts/rails.py`` is loaded by path.  Every shape check gets a result
that passes every check of its rail, then one edit that violates exactly
that check; a result missing its series, rows and notes fails every check
under its own label instead of stopping the rail; and a report one line off
the golden file fails with a unified diff.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.common import ExperimentResult, Series

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "rails.py"
_spec = importlib.util.spec_from_file_location("rails", _SCRIPT)
rails = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(rails)

SHAPE_RAILS = ("backend", "serving", "cycle")
CLIENTS = [4, 8, 16, 32]


def _backend_compare():
    return ExperimentResult(
        "backend_compare", "backend A/B",
        headers=["backend", "create /s", "stat /s", "remove /s"],
        rows=[["daos", 4697, 7252, 5826], ["posixfs", 3766, 6089, 4015]],
        series=[
            Series("ior write daos", CLIENTS, [5.0, 5.0, 5.0, 5.0]),
            Series("ior write posixfs", CLIENTS, [4.9, 4.9, 4.9, 4.9]),
            Series("fieldio write daos", CLIENTS, [1.0, 2.0, 3.0, 4.0]),
            Series("fieldio write posixfs", CLIENTS, [1.0, 2.0, 1.5, 0.5]),
        ],
    )


def _rate(req_s, qos, served, shed, p99):
    return ["rate", 0.4, req_s, 1, qos, served, shed, 0.0, 1.0, 2.0, p99, p99]


def _product_serving():
    return ExperimentResult(
        "product_serving", "product serving",
        headers=["sweep", "cache MiB", "req/s", "repl", "qos", "served", "shed",
                 "hit %", "p50 ms", "p95 ms", "p99 ms", "p999 ms"],
        rows=[
            _rate(1500, "on", 240, 0, 3.1),
            _rate(18000, "on", 40, 200, 12.3),
            _rate(18000, "off", 240, 0, 44.4),
        ],
        series=[
            Series("hit rate vs cache MiB", [0.4, 1.6, 4.0], [0.37, 0.73, 0.80]),
            Series("p99 vs replication", [1, 2, 3], [20.7, 20.0, 19.4]),
        ],
        notes=[
            "qos at 6x offered load: 200 requests shed, max queue 8/8",
            "replication sweep (rollover-invalidated cache): promotions 0/4/4",
        ],
    )


def _operational_cycle():
    return ExperimentResult(
        "operational_cycle", "operational cycle",
        headers=["readers", "rebuild", "write GiB/s", "read GiB/s", "mean cycle ms",
                 "multi puts", "multi gets"],
        rows=[
            [0, "off", "0.10", "0.00", "10.04", 8, 0],
            [4, "off", "0.09", "0.09", "10.87", 8, 4],
            [16, "off", "0.07", "0.23", "13.71", 8, 16],
            [16, "on", "0.07", "0.21", "14.74", 8, 16],
        ],
    )


def _good():
    results = {("backend_compare", "daos", 1): _backend_compare()}
    for backend in ("daos", "posixfs"):
        serial = results[("product_serving", backend, 1)] = _product_serving()
        results[("product_serving", backend, rails.JOBS)] = serial
        results[("operational_cycle", backend, 1)] = _operational_cycle()
    return results


class FakeRenders:
    """Serves hand-built results; an absent one raises like a missing input."""

    def __init__(self, results):
        self.results = results

    def __call__(self, name, backend="daos", jobs=1):
        return self.results[(name, backend, jobs)]


def _series(result, name):
    return result.series_by_name(name)


def _backend(results):
    return results[("backend_compare", "daos", 1)]


def _serving(results, backend="daos"):
    return results[("product_serving", backend, 1)]


def _cycle(results, backend):
    return results[("operational_cycle", backend, 1)]


def _set_ys(result, name, ys):
    _series(result, name).ys = ys


def _parallel(results, backend):
    """Give ``backend``'s ``-j4`` run a result of its own to edit."""
    results[("product_serving", backend, rails.JOBS)] = _product_serving()
    return results[("product_serving", backend, rails.JOBS)]


#: (rail, label, edit): each edit breaks the good results for that check only.
VIOLATIONS = [
    ("backend", "daos-scales",
     lambda r: _set_ys(_backend(r), "fieldio write daos", [1.0, 1.0, 1.0, 1.4])),
    ("backend", "posixfs-collapses",
     lambda r: _set_ys(_backend(r), "fieldio write posixfs", [1.0, 2.0, 1.5, 1.6])),
    ("backend", "gap-at-scale",
     lambda r: _set_ys(_backend(r), "fieldio write posixfs", [1.0, 4.0, 6.0, 2.5])),
    ("backend", "ior-friendly",
     lambda r: _set_ys(_backend(r), "ior write posixfs", [5.0, 5.0, 5.0, 3.9])),
    ("backend", "mdtest-ceiling",
     lambda r: _backend(r).rows[1].__setitem__(2, 8000)),
    ("serving", "cache-hit-climbs",
     lambda r: _set_ys(_serving(r), "hit rate vs cache MiB", [0.5, 0.4, 0.45])),
    ("serving", "qos-sheds-overload",
     lambda r: _serving(r).rows.__setitem__(1, _rate(18000, "on", 240, 0, 12.3))),
    ("serving", "qos-beats-meltdown",
     lambda r: _serving(r).rows.__setitem__(1, _rate(18000, "on", 40, 200, 50.0))),
    ("serving", "qos-queue-bounded",
     lambda r: _serving(r).notes.__setitem__(0, "qos: 200 shed, max queue 9/8")),
    ("serving", "replication-cuts-p99",
     lambda r: _set_ys(_serving(r), "p99 vs replication", [20.0, 20.0, 19.4])),
    ("serving", "hot-fields-promoted",
     lambda r: _serving(r).notes.__setitem__(1, "replication sweep: promotions 1/4/4")),
    ("serving", "daos-jobs-identity",
     lambda r: _parallel(r, "daos").notes.append("total requests: 2401")),
    ("serving", "posixfs-cache-hit-climbs",
     lambda r: _set_ys(_serving(r, "posixfs"), "hit rate vs cache MiB", [0.4, 0.4, 0.3])),
    ("serving", "posixfs-qos-sheds",
     lambda r: _serving(r, "posixfs").rows.__setitem__(1, _rate(18000, "on", 240, 0, 12.3))),
    ("serving", "posixfs-jobs-identity",
     lambda r: _parallel(r, "posixfs").rows.pop()),
] + [
    case
    for backend in ("daos", "posixfs")
    for case in (
        ("cycle", f"{backend}-cycle-sweep",
         lambda r, b=backend: _cycle(r, b).rows.pop(1)),
        ("cycle", f"{backend}-readers-contend-writers",
         lambda r, b=backend: _cycle(r, b).rows[2].__setitem__(2, "0.12")),
        ("cycle", f"{backend}-vector-puts",
         lambda r, b=backend: _cycle(r, b).rows[1].__setitem__(5, 0)),
        ("cycle", f"{backend}-vector-gets",
         lambda r, b=backend: _cycle(r, b).rows[2].__setitem__(6, 0)),
    )
]


def test_every_shape_check_has_a_violation():
    labels = {(rail, label) for rail in SHAPE_RAILS for label, _ in rails.RAILS[rail]}
    assert labels == {(rail, label) for rail, label, _ in VIOLATIONS}
    assert len(labels) == 5 + 10 + 8


@pytest.mark.parametrize("rail", SHAPE_RAILS)
def test_good_results_pass(rail, capsys):
    assert rails.run_rail(rail, FakeRenders(_good())) == []
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "rail, label, edit", VIOLATIONS, ids=[label for _, label, _ in VIOLATIONS]
)
def test_violation_fails_under_its_label(rail, label, edit, capsys):
    results = _good()
    edit(results)
    assert rails.run_rail(rail, FakeRenders(results)) == [f"{rail} {label}"]
    assert f"FAIL {rail} {label}: " in capsys.readouterr().out


@pytest.mark.parametrize("rail", SHAPE_RAILS)
def test_missing_input_fails_every_check_and_runs_the_rest(rail, capsys):
    results = {key: ExperimentResult(key[0], "empty") for key in _good()}
    failed = rails.run_rail(rail, FakeRenders(results))
    expected = [f"{rail} {label}" for label, _ in rails.RAILS[rail]
                if not label.endswith("-jobs-identity")]
    assert failed == expected
    out = capsys.readouterr().out
    for label in expected:
        assert f"FAIL {label}: missing input: " in out


def test_golden_off_by_one_line_fails_with_a_diff(capsys):
    sections = rails.golden_sections()
    text = {name: "\n".join(lines) for name, lines in sections.items()}
    original = sections["table1"][-1]
    text["table1"] = "\n".join([*sections["table1"][:-1], original + " edited"])
    results = {}
    for name, report in text.items():
        result = ExperimentResult(name, "golden")
        result.render = lambda report=report: report
        results[(name, "daos", 1)] = results[(name, "daos", rails.JOBS)] = result

    assert rails.run_rail("identity", FakeRenders(results)) == ["identity table1-golden"]
    out = capsys.readouterr().out
    assert "FAIL identity table1-golden: serial differs from golden" in out
    for line in ("--- golden", "+++ serial", f"-{original}", f"+{original} edited"):
        assert f"     {line}\n" in out


@pytest.mark.parametrize("hits, ok", [(21, False), (22, True)])
def test_warm_cache_must_serve_90pct(hits, ok, tmp_path):
    class WarmCache(FakeRenders):
        def through_cache(self, name):
            return None, None, ResultCache(tmp_path, hits=hits, misses=24 - hits)

    check = dict(rails.RAILS["cache"])["warm-served-90pct"]
    assert check(WarmCache({}))[0] is ok


def test_identity_rail_covers_every_registered_experiment():
    labels = [label for label, _ in rails.RAILS["identity"]]
    names = sorted(rails.EXPERIMENTS)
    assert len(names) == 13
    assert labels == [f"{name}-{kind}" for name in names
                      for kind in ("golden", "jobs-identity")]
    assert sorted(rails.golden_sections()) == names


def test_unknown_rail_is_an_error(capsys):
    assert rails.main(["identity", "nope"]) == 2
    assert "unknown rail(s) ['nope']" in capsys.readouterr().err
