#!/usr/bin/env python
"""Profile the metadata-op hot loop: cProfile top-N for kernel scenarios.

The tool behind the metadata-plane fast path: run a kernel scenario (from
:mod:`repro.bench.kernel_perf`) under :mod:`cProfile` and print the top
functions by cumulative time.  This is how the per-op overhead budget was
attributed across the layers — middleware generator frames, event
allocation in ``Simulator._schedule``/``_dispatch``, resource grant events,
SCM capacity re-summing — before each was addressed (see DESIGN.md §6).

Usage::

    PYTHONPATH=src python scripts/profile_hotpath.py
        [--scenario kv_storm rpc_storm] [--quick] [--top 20]
        [--sort cumulative|tottime]
    PYTHONPATH=src python scripts/profile_hotpath.py
        --workload <ledger workload> [--seed N] [--top 0]

The scenario digest is printed alongside, so a profiling session doubles
as an identity check: optimising must not move it.

``--workload <name> [--seed N]`` profiles one pass of an end-to-end ledger
workload instead (``benchmarks.e2e.workloads.run_pass``, after one
unprofiled warm pass) and prints cProfile ``total_calls`` with the pass
digest.  The call count is deterministic where wall time is not, so an A/B
of two trees at equal seed reads a per-op cost change exactly::

    PYTHONPATH=src python scripts/profile_hotpath.py --workload ior_scaling

Scenarios that move data (``--scenario fieldio_small``, the flow storms)
additionally get a per-function table of ``network/flow.py`` self time —
calls, microseconds per call and share of the scenario — which is the
table the scalar-kernel collapse started from (DESIGN.md §6) and the one
the next flow-solver change should start from.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
if str(_ROOT) not in sys.path:
    sys.path.insert(0, str(_ROOT))

from benchmarks.e2e import workloads  # noqa: E402
from repro.bench.kernel_perf import SCENARIOS, run_scenario  # noqa: E402


def profile_scenario(name: str, quick: bool, top: int, sort: str) -> None:
    profiler = cProfile.Profile()
    profiler.enable()
    result = run_scenario(name, quick=quick)
    profiler.disable()
    print(f"== {name} ==")
    print(f"wall {result.wall_s:.3f}s  sim_time {result.sim_time:.6f}")
    print(f"digest {result.digest}")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    flow_rows = sorted(
        (
            (self_s, n_calls, func)
            for (path, _line, func), (_, n_calls, self_s, _, _) in stats.stats.items()
            if path.endswith("network/flow.py")
        ),
        reverse=True,
    )
    stats.strip_dirs().sort_stats(sort).print_stats(top)
    if flow_rows:
        total = stats.total_tt
        flow_total = sum(row[0] for row in flow_rows)
        print(
            f"network/flow.py self time {flow_total:.3f}s "
            f"({100 * flow_total / total:.0f}% of {total:.3f}s profiled)"
        )
        print(f"  {'self s':>8} {'calls':>8} {'us/call':>9} {'share':>6}  function")
        for self_s, n_calls, func in flow_rows[:top]:
            print(
                f"  {self_s:8.4f} {n_calls:8d} {1e6 * self_s / n_calls:9.2f} "
                f"{100 * self_s / total:5.1f}%  {func}"
            )
        print()


def profile_workload(name: str, seed: int, top: int, sort: str) -> None:
    """Profile one ledger pass of ``name``; print its call count and digest."""
    warm = workloads.digest_of(workloads.run_pass(name, seed))
    profiler = cProfile.Profile()
    profiler.enable()
    outcomes = workloads.run_pass(name, seed)
    profiler.disable()
    digest = workloads.digest_of(outcomes)
    stats = pstats.Stats(profiler, stream=sys.stdout)
    print(f"== {name} (seed {seed}) ==")
    if top:
        stats.strip_dirs().sort_stats(sort).print_stats(top)
    print(f"total_calls {stats.total_calls}")
    print(f"digest {digest}")
    if digest != warm:
        print(f"warm pass digest {warm} differs", file=sys.stderr)
        raise SystemExit(1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scenario",
        nargs="+",
        default=["kv_storm", "rpc_storm"],
        choices=sorted(SCENARIOS),
        help="kernel scenarios to profile (default: the metadata-plane pair)",
    )
    parser.add_argument(
        "--workload",
        nargs="+",
        choices=workloads.WORKLOADS,
        help="profile one pass of these end-to-end ledger workloads instead",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="ledger pass seed (with --workload)"
    )
    parser.add_argument(
        "--quick", action="store_true", help="use the trimmed quick shapes"
    )
    parser.add_argument(
        "--top", type=int, default=20, help="rows of the profile table to print"
    )
    parser.add_argument(
        "--sort",
        default="cumulative",
        choices=("cumulative", "tottime", "ncalls"),
        help="pstats sort key",
    )
    args = parser.parse_args(argv)

    if args.workload:
        for name in args.workload:
            profile_workload(name, args.seed, args.top, args.sort)
        return 0
    for name in args.scenario:
        profile_scenario(name, args.quick, args.top, args.sort)
    return 0


if __name__ == "__main__":
    sys.exit(main())
