"""Grid runner: deterministic merge, cache integration, parallel identity.

Whole experiments rendered serially and at ``-j4`` are held byte-identical
by the ``identity`` rail (``scripts/rails.py``); these tests keep the merge
contract itself in tier-1.
"""

from __future__ import annotations

import pytest

import repro.experiments.runner as runner_module
from repro.experiments.cache import ResultCache
from repro.experiments.runner import (
    ExecOptions,
    GridSpec,
    current_options,
    exec_options,
    run_grid,
)


def square(*, x: int) -> dict:
    return {"x": x, "sq": x * x}


def boom(*, x: int) -> dict:
    raise RuntimeError(f"unit {x} failed")


def _grid(n: int = 6) -> GridSpec:
    grid = GridSpec("test")
    for x in range(n):
        grid.add(square, x=x)
    return grid


def test_results_in_grid_order():
    results = run_grid(_grid())
    assert [r["x"] for r in results] == list(range(6))


def test_parallel_matches_serial():
    # Big enough to clear _POOL_MIN_UNITS so the pool genuinely runs.
    n = runner_module._POOL_MIN_UNITS + 2
    serial = run_grid(_grid(n), ExecOptions(jobs=1))
    for jobs in (2, 4):
        assert run_grid(_grid(n), ExecOptions(jobs=jobs)) == serial


def test_small_grid_short_circuits_pool(monkeypatch):
    """Below the spawn-cost threshold, --jobs runs in-process (and still
    merges identically)."""

    def _no_pool(*args, **kwargs):
        raise AssertionError("process pool spawned for a sub-threshold grid")

    monkeypatch.setattr(runner_module, "ProcessPoolExecutor", _no_pool)
    n = runner_module._POOL_MIN_UNITS - 1
    results = run_grid(_grid(n), ExecOptions(jobs=4))
    assert results == run_grid(_grid(n), ExecOptions(jobs=1))


def test_worker_exception_propagates():
    # One grid per path: the serial short-circuit and the pool must both
    # re-raise a failing unit's exception.
    small = GridSpec("test")
    small.add(boom, x=3)
    with pytest.raises(RuntimeError, match="unit 3 failed"):
        run_grid(small, ExecOptions(jobs=2))

    big = GridSpec("test")
    for x in range(runner_module._POOL_MIN_UNITS + 1):
        big.add(square, x=x)
    big.add(boom, x=3)
    with pytest.raises(RuntimeError, match="unit 3 failed"):
        run_grid(big, ExecOptions(jobs=2))


def test_jobs_validated():
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        ExecOptions(jobs=0)


def test_cache_serves_second_run(tmp_path):
    cache = ResultCache(tmp_path)
    first = run_grid(_grid(), ExecOptions(cache=cache))
    assert (cache.hits, cache.misses, cache.stored) == (0, 6, 6)

    second = run_grid(_grid(), ExecOptions(cache=cache))
    assert second == first
    assert (cache.hits, cache.stored) == (6, 6)  # nothing recomputed


def test_cache_partial_overlap(tmp_path):
    cache = ResultCache(tmp_path)
    run_grid(_grid(4), ExecOptions(cache=cache))
    results = run_grid(_grid(8), ExecOptions(cache=cache))
    assert [r["x"] for r in results] == list(range(8))
    assert cache.hits == 4 and cache.stored == 8


def test_exec_options_ambient():
    assert current_options().jobs == 1
    opts = ExecOptions(jobs=3)
    with exec_options(opts):
        assert current_options() is opts
        # run_grid with no explicit options picks up the ambient ones.
        assert [r["x"] for r in run_grid(_grid(3))] == [0, 1, 2]
    assert current_options().jobs == 1

