"""Run one workload of the end-to-end benchmark and print its metrics.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

The measuring is done by fresh child interpreters (``worker.py``), one
after another, single-threaded: this process only spawns them, checks
that they agree and folds their samples.  An untraced run (``--trace 0``)
uses ``CHILDREN`` interpreters so that set-up is taken several times;
each does import -> cold pass -> a fixed number of timed passes sized
from ``--seconds`` (``passes_per_child``).  A traced run (``--trace 1``)
uses one interpreter: two untraced passes, then one under the profiler.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_ROOT = _HERE.parents[1]
if str(_ROOT) not in sys.path:
    sys.path.insert(0, str(_ROOT))

from benchmarks.e2e.metrics import END_TO_END, LAYERS, PER_LAYER, POINTS  # noqa: E402

__all__ = ["run_workload", "passes_per_child", "BenchmarkError", "CHILDREN", "main"]

#: Fresh interpreters per untraced run (= set-up samples).
CHILDREN = 3
#: Pass wall the full shapes were sized to on the 2-core baseline box
#: (1.3-1.9 s measured); turns ``--seconds`` into a pass count.
NOMINAL_PASS_S = 1.6
#: The driver's per-run cap is 180 s: three hung children must still fit.
_CHILD_TIMEOUT_S = 55


class BenchmarkError(RuntimeError):
    """A child interpreter failed to produce a report."""


def passes_per_child(seconds: float) -> int:
    """Timed passes each interpreter runs: its share of ``seconds`` in
    nominal passes, at least 2 (so a median exists).  A count, not a time
    budget, so the sample size does not depend on how fast the host is."""
    return max(2, round(seconds / CHILDREN / NOMINAL_PASS_S))


def _spawn(workload: str, seed: int, timed_passes: int, trace: bool, shape: str) -> dict:
    command = [sys.executable, str(_HERE / "worker.py"), workload, str(seed),
               str(timed_passes), "1" if trace else "0", shape]
    # CLOCK_MONOTONIC is system-wide, so the child can subtract this stamp
    # from its own clock: set-up then includes interpreter start.
    command.append(repr(time.monotonic()))
    try:
        done = subprocess.run(command, capture_output=True, text=True, timeout=_CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as error:
        raise BenchmarkError(f"{workload}: worker killed after {error.timeout} s") from None
    if done.returncode != 0:
        raise BenchmarkError(f"{workload}: worker exited {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def _entry(value: float, unit: str, samples=None) -> dict:
    entry = {"value": value, "unit": unit}
    if samples is not None:
        entry["samples"] = list(samples)
    return entry


def _end_to_end(reports: list) -> dict:
    walls = [wall for report in reports for wall in report["walls"]]
    cpus = [cpu for report in reports for cpu in report["cpus"]]
    setups = [report["setup_s"] for report in reports]
    rss = [report["peak_rss_mib"] for report in reports]
    host = {"wall_s": walls, "cpu_s": cpus, "setup_s": setups, "peak_rss_mib": rss}
    sim = reports[0]["sim"]
    metrics = {}
    for metric in END_TO_END:
        if metric.kind == "host":
            samples = host[metric.name]
            metrics[metric.name] = _entry(statistics.median(samples), metric.unit, samples)
        else:
            metrics[metric.name] = _entry(sim[metric.name], metric.unit)
    return metrics


def _per_layer(workload: str, report: dict) -> dict:
    sim, counters = report["sim"], report["sim"]["counters"]
    phases = {name: statistics.median(values) for name, values in report["phases"].items()}
    untraced_wall = statistics.median(report["walls"])
    served = counters["serving.hits"] + counters["serving.misses"]
    changes = counters["network.flow.changes"]
    values = dict(counters)
    values.update({
        "network.flow.solves_per_change":
            counters["network.flow.solves"] / changes if changes else 0.0,
        "serving.hit_rate": counters["serving.hits"] / served if served else 0.0,
        "bench.model_err_pct": sim["model_err_pct"],
        "bench.failed_ops_share": sim["failed"] / sim["ops"],
        "bench.import_s": report["import_s"],
        "bench.build_s": statistics.median(report["build_s"]),
        "bench.cold_pass_s": report["cold_pass_s"],
        "bench.archive_s": phases.get("archive", 0.0),
        "bench.serve_s": phases.get("serve", 0.0),
        "bench.trace_overhead_x": report["traced_wall_s"] / untraced_wall,
    })
    for points in POINTS.values():
        for point in points:
            values[f"bench.point.{point}.wall_s"] = 0.0
    for point in POINTS[workload]:
        values[f"bench.point.{point}.wall_s"] = phases[f"point.{point}"]
    for layer in LAYERS:
        for field, value in report["layers"][layer].items():
            values[f"{layer}.{field}"] = value
    return {metric.name: _entry(values[metric.name], metric.unit) for metric in PER_LAYER}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 shape: str = "full") -> dict:
    """Measure one workload; ``metrics`` holds the end-to-end metrics
    (``trace=False``) or the per-layer metrics (``trace=True``)."""
    if workload not in POINTS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {sorted(POINTS)}")
    if trace:
        # Two untraced passes: the base of ``bench.trace_overhead_x``.
        reports = [_spawn(workload, seed, 2, True, shape)]
    else:
        reports = [
            _spawn(workload, seed, passes_per_child(seconds), False, shape)
            for _ in range(CHILDREN)
        ]
    first = reports[0]
    errors = list(first["sim"]["errors"])
    mismatches = sum(report["digest_mismatches"] for report in reports)
    if mismatches:
        errors.append(f"{mismatches} passes disagreed with their cold pass's digest")
    for report in reports[1:]:
        if report["digest"] != first["digest"] or report["sim"] != first["sim"]:
            mismatches += 1
            errors.append("interpreters disagree on the simulated outcome")
    passes = sum(report["passes"] for report in reports)
    failed = first["sim"]["failed"] * passes + mismatches
    metrics = _per_layer(workload, first) if trace else _end_to_end(reports)
    return {
        "correct": failed == 0,
        "attempted": first["sim"]["ops"] * passes,
        "failed": failed,
        "metrics": metrics,
        "digest": first["digest"],
        "timed_passes": sum(len(report["walls"]) for report in reports),
        "latency_samples": first["sim"]["latency_samples"],
        "errors": errors,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(POINTS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    for message in result["errors"]:
        print(f"check failed: {message}", file=sys.stderr)
    metrics = {
        name: {"value": entry["value"], "unit": entry["unit"]}
        for name, entry in result["metrics"].items()
    }
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
