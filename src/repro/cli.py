"""Command-line interface: ``repro-nwp`` / ``python -m repro``.

Subcommands:

* ``run <experiment>`` — run one of the paper's experiments (table1, table2,
  fig3..fig7) and print the regenerated table/series.
* ``list`` — list available experiments.
* ``all`` — run every experiment in order.

The simulator's own cost is measured outside the package, by
``scripts/profile_hotpath.py`` and the end-to-end ledger in
``benchmarks/e2e``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.backends.registry import BACKENDS
from repro.experiments.registry import EXPERIMENTS, run_experiment, supports_backend

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-nwp",
        description=(
            "Reproduction of 'DAOS as HPC Storage: a View From Numerical "
            "Weather Prediction' (IPPS 2023)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    _add_common(run_parser)

    sub.add_parser("list", help="list available experiments")

    all_parser = sub.add_parser("all", help="run every experiment")
    _add_common(all_parser)

    return parser


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="run the full parameter grids of the paper (slow)",
    )
    parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    parser.add_argument(
        "--backend",
        choices=BACKENDS,
        default="daos",
        help="storage backend to simulate (default: daos)",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for grid points (default: 1, serial)",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=Path(".repro-cache"),
        metavar="DIR",
        help="persistent result cache directory (default: .repro-cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent result cache",
    )
    parser.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "collect the structured simulation trace (RPC spans, model "
            "events) across the run and write it as JSON lines"
        ),
    )


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0
    scale = "paper" if args.paper_scale else "ci"
    names = sorted(EXPERIMENTS) if args.command == "all" else [args.experiment]

    from repro.experiments.cache import SIMULATOR_VERSION_SALT, open_cache
    from repro.experiments.runner import ExecOptions, exec_options

    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    if args.trace_out is not None and (args.jobs > 1 or not args.no_cache):
        # The global tracer lives in this process: grid points computed by
        # pool workers or served from cache would silently escape it, so a
        # traced run is always serial and uncached.
        print(
            "warning: --trace-out forces serial, uncached execution "
            "(--jobs 1 --no-cache)",
            file=sys.stderr,
        )
        args.jobs = 1
        args.no_cache = True
    if args.backend != "daos":
        unsupported = [n for n in names if not supports_backend(n, args.backend)]
        if args.command == "run" and unsupported:
            print(
                f"error: experiment {unsupported[0]!r} supports only the "
                f"daos backend",
                file=sys.stderr,
            )
            return 2
        names = [n for n in names if n not in unsupported]
    else:
        unsupported = []
    cache = None if args.no_cache else open_cache(args.cache_dir)
    options = ExecOptions(
        jobs=args.jobs, cache=cache, progress=sys.stderr.isatty()
    )
    # Reproducibility header: results files regenerated via redirection carry
    # the exact execution settings they were produced with.
    print(f"# experiments: {' '.join(names)}")
    print(f"# scale: {scale}  seed: {args.seed}  jobs: {args.jobs}")
    if args.backend != "daos":
        # Conditional so DAOS-default results files stay byte-identical.
        print(f"# backend: {args.backend}")
        for name in unsupported:
            print(f"# skipped (daos-only): {name}")
    cache_desc = "disabled" if cache is None else str(cache.root)
    print(f"# cache: {cache_desc}  salt: {SIMULATOR_VERSION_SALT}")
    print()

    tracer = None
    if args.trace_out is not None:
        # Experiments build their Clusters (and Simulators) internally, so
        # tracing is enabled process-wide: every Simulator created while the
        # global tracer is installed records into it.
        from repro.simulation.trace import install_global_tracer, uninstall_global_tracer

        tracer = install_global_tracer()
    try:
        with exec_options(options):
            for name in names:
                start = time.time()
                result = run_experiment(
                    name, scale=scale, seed=args.seed, backend=args.backend
                )
                print(result.render())
                print(f"[{name}: {time.time() - start:.1f}s wall]")
                print()
    finally:
        if tracer is not None:
            uninstall_global_tracer()
            count = tracer.dump_jsonl(str(args.trace_out))
            print(f"wrote {count} trace records to {args.trace_out}")
    if cache is not None:
        print(f"# cache: {cache.stats_line()}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via python -m
    sys.exit(main())
