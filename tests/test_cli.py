"""CLI surface."""

import pytest

from repro.cli import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "table1" in out and "fig7" in out


def test_run_table2(capsys):
    assert main(["run", "table2", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "MPI test" in out
    assert "PSM2" in out
    # Reproducibility header: settings the report was produced with.
    assert "# scale: ci  seed: 0  jobs: 1" in out
    assert "# cache: disabled" in out


def test_run_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["run", "fig99"])


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_seed_flag(capsys):
    assert main(["run", "table2", "--seed", "3", "--no-cache"]) == 0


def test_jobs_validation(capsys):
    assert main(["run", "table2", "--jobs", "0", "--no-cache"]) == 2


def test_cache_round_trip(tmp_path, capsys):
    """A warm rerun is served from cache and prints identical report bodies."""
    args = ["run", "table2", "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    cold = capsys.readouterr().out
    assert main(args) == 0
    warm = capsys.readouterr().out

    def body(text):
        return [
            line for line in text.splitlines()
            if not line.startswith(("#", "["))
        ]

    assert body(warm) == body(cold)
    assert "misses=0" in warm and "hits=6" in warm


def test_parallel_jobs_match_serial(tmp_path, capsys):
    assert main(["run", "table2", "--no-cache"]) == 0
    serial = capsys.readouterr().out
    assert main(["run", "table2", "--no-cache", "-j", "2"]) == 0
    parallel = capsys.readouterr().out

    strip = lambda text: [  # noqa: E731
        line for line in text.splitlines()
        if not line.startswith(("#", "["))
    ]
    assert strip(parallel) == strip(serial)


def test_trace_out_warns_serial_uncached(tmp_path, capsys):
    """--trace-out silently disabling parallelism and the cache was a trap;
    the CLI must say so out loud (on stderr, clear of report bodies)."""
    trace = tmp_path / "trace.jsonl"
    assert main(["run", "table2", "--trace-out", str(trace), "-j", "2"]) == 0
    captured = capsys.readouterr()
    assert (
        "warning: --trace-out forces serial, uncached execution "
        "(--jobs 1 --no-cache)" in captured.err
    )
    assert "# scale: ci  seed: 0  jobs: 1" in captured.out
    assert trace.exists()


def test_traced_run_renders_the_untraced_report(tmp_path, capsys):
    """A tracer is bit-invisible end to end: ``--trace-out`` renders the
    same report body as an untraced run, and every ``rpc`` span it writes
    is a whole op's."""
    import json

    trace = tmp_path / "trace.jsonl"
    assert main(["run", "table1", "--trace-out", str(trace)]) == 0
    traced = capsys.readouterr().out
    assert main(["run", "table1", "--no-cache"]) == 0
    untraced = capsys.readouterr().out

    strip = lambda text: [  # noqa: E731
        line for line in text.splitlines()
        if not line.startswith(("#", "[", "wrote"))
    ]
    assert strip(traced) == strip(untraced)
    spans = [
        row for row in map(json.loads, trace.read_text().splitlines())
        if row["kind"] == "rpc"
    ]
    assert spans
    for span in spans:
        assert {"op", "op_kind", "nbytes", "status"} <= span.keys()
        assert span["start"] <= span["end"]


def test_backend_flag_header(capsys):
    assert main(["run", "table2", "--backend", "posixfs", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "# backend: posixfs" in out

    # The default backend prints no backend line: DAOS results files stay
    # byte-identical to the goldens.
    assert main(["run", "table2", "--no-cache"]) == 0
    assert "# backend:" not in capsys.readouterr().out


def test_backend_flag_rejects_daos_only_experiment(capsys):
    assert main(["run", "rebuild", "--backend", "posixfs", "--no-cache"]) == 2
    err = capsys.readouterr().err
    assert "supports only the daos backend" in err


def test_backend_flag_unknown_backend_rejected():
    with pytest.raises(SystemExit):
        main(["run", "table2", "--backend", "gpfs"])
