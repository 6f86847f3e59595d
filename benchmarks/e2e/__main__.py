"""Human front end of the end-to-end benchmark.

    PYTHONPATH=src python -m benchmarks.e2e run [--workload W] [--seed N]
                                                [--trace] [--out FILE]
    PYTHONPATH=src python -m benchmarks.e2e compare A.json B.json

``run`` measures the chosen workloads (all five by default), one after
another, and prints every metric as ``workload metric value unit``; host
timings carry their sample count and min-max spread.  It exits non-zero
when a digest, read-back or op-count check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

from benchmarks.e2e.compare import EXIT_CODES, compare
from benchmarks.e2e.metrics import END_TO_END, PER_LAYER, POINTS
from benchmarks.e2e.run import BenchmarkError, run_workload

_MANIFEST = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
SCHEMA = "repro-e2e-bench/1"


def _provenance() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def _print_metrics(workload: str, metrics: dict, specs) -> None:
    kinds = {metric.name: metric.kind for metric in specs}
    for name, entry in metrics.items():
        line = f"{workload} {name} {entry['value']:.6g} {entry['unit']} [{kinds[name]}]"
        samples = entry.get("samples")
        if samples:
            line += f" n={len(samples)} min-max {min(samples):.4g}-{max(samples):.4g}"
        print(line)


def _run(args) -> int:
    manifest = json.loads(_MANIFEST.read_text())
    shape = "smoke" if args.smoke else "full"
    seconds = 0 if args.smoke else manifest["run_seconds"]
    record = {"schema": SCHEMA, "seed": args.seed, "shape": shape, "seconds": seconds,
              "host": _provenance(), "workloads": {}}
    correct = True
    for workload in args.workload or list(POINTS):
        result = run_workload(workload, args.seed, seconds, False, shape)
        entry = {
            "digest": result["digest"],
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "timed_passes": result["timed_passes"],
            "latency_samples": result["latency_samples"],
            "end_to_end": result["metrics"],
        }
        _print_metrics(workload, result["metrics"], END_TO_END)
        print(f"{workload} latency_samples {result['latency_samples']} count [sim]")
        print(f"{workload} digest {result['digest']}")
        errors = list(result["errors"])
        if args.trace:
            traced = run_workload(workload, args.seed, seconds, True, shape)
            entry["per_layer"] = traced["metrics"]
            entry["correct"] = entry["correct"] and traced["correct"]
            if traced["digest"] != result["digest"]:
                entry["correct"] = False
                errors.append("traced run disagrees on the simulated outcome")
            errors += traced["errors"]
            _print_metrics(workload, traced["metrics"], PER_LAYER)
        for message in errors:
            print(f"{workload} CHECK FAILED: {message}", file=sys.stderr)
        correct = correct and entry["correct"]
        record["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if correct else 1


def _compare(args) -> int:
    manifest = json.loads(_MANIFEST.read_text())
    base = json.loads(Path(args.base).read_text())
    new = json.loads(Path(args.new).read_text())
    overall, lines = compare(base, new, manifest)
    print("\n".join(lines))
    print(f"overall: {overall}")
    return EXIT_CODES[overall]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="measure workloads and print every metric")
    run.add_argument("--workload", action="append", choices=sorted(POINTS),
                     help="workload to run (repeatable; default: all five)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--trace", action="store_true",
                     help="add a traced run and print the per-layer metrics")
    run.add_argument("--out", help="write the results as JSON (input of `compare`)")
    run.add_argument("--smoke", action="store_true",
                     help="tiny shapes, for the package's own test only")
    run.set_defaults(handler=_run)
    cmp_parser = commands.add_parser("compare", help="verdict per (workload, metric)")
    cmp_parser.add_argument("base")
    cmp_parser.add_argument("new")
    cmp_parser.set_defaults(handler=_compare)
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (BenchmarkError, OSError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
