"""One fresh interpreter's share of a benchmark run (spawned by ``run.py``).

Import -> one cold pass (kept for ``setup_s``, discarded from timings) ->
the number of timed passes ``run.py`` asks for -> optionally one pass
under ``cProfile``.  The cyclic collector is paused inside each pass, as
``repro.bench.kernel_perf.run_scenario`` does, and run between passes.
Prints one JSON object on the last line of standard output.
"""

from __future__ import annotations

import time

_BEGIN = time.monotonic()

import cProfile  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_HERE = Path(__file__).resolve().parent
_ROOT = _HERE.parents[1]
_REPRO = _ROOT / "src" / "repro"
for _path in (str(_ROOT / "src"), str(_ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import numpy  # noqa: E402

from benchmarks.e2e import workloads  # noqa: E402
from benchmarks.e2e.metrics import LAYERS, layer_of_repro_file  # noqa: E402
from repro.units import GiB  # noqa: E402

_IMPORT_S = time.monotonic() - _BEGIN


def layer_of(filename: str) -> str:
    """Layer a profiled function's source file belongs to."""
    path = Path(filename)
    if path.is_relative_to(_REPRO):
        layer = layer_of_repro_file(path.relative_to(_REPRO).as_posix())
        if layer is None:
            raise ValueError(f"{filename} has no layer rule in benchmarks/e2e/metrics.py")
        return layer
    if path.is_relative_to(_HERE):
        return "bench"
    return "host.python"


def attribute(profile: cProfile.Profile) -> dict:
    """Bucket a profile's self time and inbound calls by layer.

    The profile is taken with ``builtins=False``: C functions are not
    separate entries, so their time is self time of the Python function
    that called them, and a generator resumed by the scheduler has the
    scheduler's step function as its caller.  ``calls_in`` counts calls
    (and generator resumes) entering a layer from a different layer.
    """
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls_in = dict.fromkeys(LAYERS, 0)
    layer_cache: dict = {}

    def cached(filename: str) -> str:
        layer = layer_cache.get(filename)
        if layer is None:
            layer = layer_cache[filename] = layer_of(filename)
        return layer

    for (filename, _, _), (_, _, tottime, _, callers) in pstats.Stats(profile).stats.items():
        layer = cached(filename)
        self_s[layer] += tottime
        for (caller_file, _, _), (n_calls, _, _, _) in callers.items():
            if cached(caller_file) != layer:
                calls_in[layer] += n_calls
    total = sum(self_s.values())
    return {
        layer: {
            "self_s": self_s[layer],
            "share": self_s[layer] / total if total else 0.0,
            "calls_in": calls_in[layer],
        }
        for layer in LAYERS
    }


def _pass(workload: str, seed: int, shape: str, profile=None):
    """One pass with the collector paused; returns (outcomes, wall, cpu)."""
    gc.collect()
    gc.disable()
    try:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        if profile is not None:
            profile.enable()
        try:
            outcomes = workloads.run_pass(workload, seed, shape)
        finally:
            if profile is not None:
                profile.disable()
        return outcomes, time.perf_counter() - wall0, time.process_time() - cpu0
    finally:
        gc.enable()


def _sim_summary(outcomes: dict) -> dict:
    """The ``sim`` numbers of one pass (identical for every pass of a run)."""
    points = list(outcomes.values())
    sim_time = float(sum(p.sim_time for p in points))
    ops = sum(p.ops for p in points)
    failed = sum(p.failed for p in points)
    latencies = numpy.concatenate([numpy.asarray(p.latencies, dtype=float) for p in points])
    counters = dict.fromkeys(workloads.COUNTERS, 0)
    for point in points:
        for name, value in point.counters.items():
            if name == "bench.peak_concurrent_ops":
                counters[name] = max(counters[name], value)
            else:
                counters[name] += value
    return {
        "ops": ops,
        "failed": failed,
        "latency_samples": int(latencies.size),
        "sim_time_s": sim_time,
        "sim_ops_per_s": ops / sim_time,
        "sim_gibs": sum(p.payload_bytes for p in points) / GiB / sim_time,
        "sim_mean_ms": float(latencies.mean()) * 1e3,
        "sim_p99_ms": float(numpy.percentile(latencies, 99)) * 1e3,
        "model_err_pct": max(p.model_err_pct for p in points),
        "counters": {name: float(value) for name, value in counters.items()},
        "errors": [message for p in points for message in p.errors][:20],
    }


def main(argv) -> int:
    workload, seed, timed_passes, trace, shape, spawned = argv
    seed, timed_passes, trace, spawned = int(seed), int(timed_passes), trace == "1", float(spawned)

    cold, cold_wall, _ = _pass(workload, seed, shape)
    digest = workloads.digest_of(cold)
    setup_s = time.monotonic() - spawned
    report = {
        "setup_s": setup_s,
        "import_s": _IMPORT_S,
        "cold_pass_s": cold_wall,
        "digest": digest,
        "sim": _sim_summary(cold),
        "walls": [],
        "cpus": [],
        "build_s": [],
        "phases": {},
        "digest_mismatches": 0,
        "passes": 1,
    }

    def record(outcomes, wall, cpu):
        report["passes"] += 1
        report["walls"].append(wall)
        report["cpus"].append(cpu)
        report["build_s"].append(sum(p.build_s for p in outcomes.values()))
        sums: dict = {}
        for name, point in outcomes.items():
            for phase, seconds in point.phases.items():
                key = f"point.{name}" if phase == "wall" else phase
                sums[key] = sums.get(key, 0.0) + seconds
        for key, seconds in sums.items():
            report["phases"].setdefault(key, []).append(seconds)
        if workloads.digest_of(outcomes) != digest:
            report["digest_mismatches"] += 1

    for _ in range(timed_passes):
        record(*_pass(workload, seed, shape))
    report["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if trace:
        profile = cProfile.Profile(builtins=False)
        outcomes, traced_wall, _ = _pass(workload, seed, shape, profile=profile)
        if workloads.digest_of(outcomes) != digest:
            report["digest_mismatches"] += 1
        report["passes"] += 1
        report["traced_wall_s"] = traced_wall
        report["layers"] = attribute(profile)

    sys.stdout.write(json.dumps(report) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
