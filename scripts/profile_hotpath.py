#!/usr/bin/env python
"""Profile the metadata-op hot loop: cProfile top-N for kernel scenarios.

The tool behind the metadata-plane fast path: run a kernel scenario (from
:mod:`repro.bench.kernel_perf`) under :mod:`cProfile` and print the top
functions by cumulative time.  This is how the per-op overhead budget is
attributed across the layers -- the op driver and the client's attempt
loop, ``Simulator._schedule``/``_dispatch``, resource grants, SCM
capacity accounting (see DESIGN.md §6).

Usage::

    PYTHONPATH=src python scripts/profile_hotpath.py
        [--scenario kv_storm rpc_storm] [--quick] [--top 20]
        [--sort cumulative|tottime]
    PYTHONPATH=src python scripts/profile_hotpath.py
        --workload <ledger workload> [--seed N] [--top 0]
    PYTHONPATH=src python scripts/profile_hotpath.py
        --workload <ledger workload> [--seed N] --memory [--top 20]

The scenario digest is printed alongside, so a profiling session doubles
as an identity check: optimising must not move it.

``--workload <name> [--seed N]`` profiles one pass of an end-to-end ledger
workload instead (``benchmarks.e2e.workloads.run_pass``, after one
unprofiled warm pass) and prints cProfile ``total_calls`` with the pass
digest, and the queue entries dispatched and instants of the warm pass
(``Simulator.events_processed`` and ``instants`` summed over every
simulator the pass built).  Beside them it prints the warm pass's flow
wake-ups -- armed, and stale (superseded by a later solve before they
fired) -- arena entries (``mode_switches``) and arena releases (a network
in arena mode whose last live flow retired drops its storage), summed over
every flow network the pass built.  These counts are deterministic where wall time
is not, so an A/B of two trees at equal seed reads a per-op cost change
exactly, and equal queue counts show that no queue position moved::

    PYTHONPATH=src python scripts/profile_hotpath.py --workload ior_scaling

Several workloads after ``--workload`` are each profiled in a fresh
interpreter (the script runs itself once per workload), so a workload's
counts do not depend on which workloads ran before it: state a pass
leaves behind, such as module-level memos, would otherwise shift them.

``--memory`` (with ``--workload``) measures memory instead of calls, with
the cyclic collector paused in each pass, as the ledger worker runs it.  A
first pass reads the process's ``ru_maxrss`` (the high-water mark the
ledger's ``peak_rss_mib`` reports) and then collects: what the collector
frees is the garbage the paused pass kept, printed by type (objects and
shallow bytes).  A second pass runs under :mod:`tracemalloc` and prints
the traced peak, what the pass still holds at its end, and the top
allocation sites by line of what it holds.  These are the tables the
footprint changes were sized from (DESIGN.md §6), and the ones the next
footprint change should start from.

Scenarios that move data (``--scenario fieldio_small``, the flow storms)
additionally get a per-function table of ``network/flow.py`` self time —
calls, microseconds per call and share of the scenario — which is the
table the scalar-kernel collapse started from (DESIGN.md §6) and the one
the next flow-solver change should start from.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import pstats
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
if str(_ROOT) not in sys.path:
    sys.path.insert(0, str(_ROOT))

from benchmarks.e2e import workloads  # noqa: E402
from repro.bench.kernel_perf import SCENARIOS, run_scenario  # noqa: E402
from repro.network.flow import FlowNetwork  # noqa: E402
from repro.simulation.core import Simulator  # noqa: E402


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


def _counted_pass(name: str, seed: int):
    """Run one ledger pass; return its outcomes and its counts: the queue
    entries its simulators dispatched, the instants they advanced through,
    and its flow networks' wake-ups armed and stale and arena entries."""
    sims, nets = [], []
    counts = {"armed": 0, "stale": 0, "released": 0}
    sim_init, net_init = Simulator.__init__, FlowNetwork.__init__
    arm, on_wake = FlowNetwork._refresh_deadlines_and_arm, FlowNetwork._on_wake
    release = FlowNetwork._release_arena

    def recording_sim_init(self, *args, **kwargs):
        sim_init(self, *args, **kwargs)
        sims.append(self)

    def recording_net_init(self, *args, **kwargs):
        net_init(self, *args, **kwargs)
        nets.append(self)

    def counting_arm(self):
        arm(self)
        counts["armed"] += self._wake is not None

    def counting_on_wake(self, wake):
        counts["stale"] += wake is not self._wake
        on_wake(self, wake)

    def counting_release(self):
        # A fresh network empties its arena too, before it is in arena mode.
        counts["released"] += self._vector
        release(self)

    # The wake is bound when armed, so the patched _on_wake is the one it
    # fires while the pass runs.
    Simulator.__init__, FlowNetwork.__init__ = recording_sim_init, recording_net_init
    FlowNetwork._refresh_deadlines_and_arm = counting_arm
    FlowNetwork._on_wake = counting_on_wake
    FlowNetwork._release_arena = counting_release
    try:
        outcomes = workloads.run_pass(name, seed)
    finally:
        Simulator.__init__, FlowNetwork.__init__ = sim_init, net_init
        FlowNetwork._refresh_deadlines_and_arm = arm
        FlowNetwork._on_wake = on_wake
        FlowNetwork._release_arena = release
    counts["queue_entries"] = sum(sim.events_processed for sim in sims)
    counts["instants"] = sum(sim.instants for sim in sims)
    counts["arena_entries"] = sum(net.mode_switches for net in nets)
    return outcomes, counts


def profile_workload(name: str, seed: int, top: int, sort: str) -> None:
    """Profile one ledger pass of ``name``; print its call count, its queue
    and flow wake-up counts (from the unprofiled warm pass) and its digest."""
    warm_outcomes, counts = _counted_pass(name, seed)
    warm = workloads.digest_of(warm_outcomes)
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
    print(f"queue_entries {counts['queue_entries']}")
    print(f"instants {counts['instants']}")
    print(f"flow_wakes armed {counts['armed']} stale {counts['stale']}")
    print(f"arena_entries {counts['arena_entries']}")
    print(f"arena_releases {counts['released']}")
    print(f"digest {digest}")
    if digest != warm:
        print(f"warm pass digest {warm} differs", file=sys.stderr)
        raise SystemExit(1)


def memory_workload(name: str, seed: int, top: int) -> None:
    """Two ledger passes of ``name`` with the collector paused: print the
    first's ``ru_maxrss`` and the garbage it kept by type, then trace the
    second and print its peak, what it holds at the end and the top ``top``
    sites by line."""
    gc.collect()
    gc.disable()
    try:
        workloads.run_pass(name, seed)
        maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        garbage, gc.garbage[:] = list(gc.garbage), []
    finally:
        gc.set_debug(0)
        gc.enable()
    by_type: dict = {}
    for obj in garbage:
        entry = by_type.setdefault(type(obj).__qualname__, [0, 0])
        entry[0] += 1
        entry[1] += sys.getsizeof(obj)
    del garbage
    print(f"== {name} (seed {seed}, collector paused) ==")
    print(f"ru_maxrss {maxrss:.2f} MiB after the first pass")
    n_objects = sum(count for count, _ in by_type.values())
    n_bytes = sum(size for _, size in by_type.values())
    print(f"garbage the paused pass kept: {n_objects} objects, {n_bytes / 2**20:.2f} MiB")
    print(f"  {'KiB':>9} {'objects':>8}  type")
    rows = sorted(by_type.items(), key=lambda item: item[1][1], reverse=True)
    for type_name, (count, size) in rows[:top]:
        print(f"  {size / 1024:9.1f} {count:8d}  {type_name}")
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        outcomes = workloads.run_pass(name, seed)
        held, peak = tracemalloc.get_traced_memory()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
        gc.enable()
    snapshot = snapshot.filter_traces(
        [tracemalloc.Filter(False, tracemalloc.__file__)]
    )
    print(f"tracemalloc peak {peak / 2**20:.2f} MiB, held at pass end {held / 2**20:.2f} MiB")
    print(f"  {'KiB':>9} {'blocks':>8}  site")
    for stat in snapshot.statistics("lineno")[:top]:
        frame = stat.traceback[0]
        print(f"  {stat.size / 1024:9.1f} {stat.count:8d}  {frame.filename}:{frame.lineno}")
    print(f"digest {workloads.digest_of(outcomes)}")


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
        "--memory",
        action="store_true",
        help="with --workload: trace memory (peak and top sites) instead of calls",
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

    if args.memory and not args.workload:
        parser.error("--memory needs --workload")
    if args.workload and len(args.workload) > 1:
        flags = ["--seed", str(args.seed), "--top", str(args.top), "--sort", args.sort]
        if args.memory:
            flags.append("--memory")
        for name in args.workload:
            sys.stdout.flush()
            command = [sys.executable, __file__, "--workload", name, *flags]
            returncode = subprocess.run(command).returncode
            if returncode:
                return returncode
        return 0
    if args.workload:
        (name,) = args.workload
        if args.memory:
            memory_workload(name, args.seed, args.top)
        else:
            profile_workload(name, args.seed, args.top, args.sort)
        return 0
    for name in args.scenario:
        profile_scenario(name, args.quick, args.top, args.sort)
    return 0


if __name__ == "__main__":
    sys.exit(main())
