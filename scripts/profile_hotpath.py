#!/usr/bin/env python
"""The perf harness: exact counts of a ledger pass or a kernel scenario.

A *row* is one pass of an end-to-end ledger workload at a seed
(``benchmarks.e2e.workloads.run_pass``) or one kernel scenario
(``benchmarks.kernel_scenarios``).  It runs once with its simulators and
flow networks counted, then once under :mod:`cProfile`, both with the
cyclic collector paused, and prints as its last line the JSON of its
``digest`` (both runs must agree), ``calls`` (profiled calls into functions
under ``src/repro``, less the ``<listcomp>``/``<dictcomp>``/``<setcomp>``
frames CPython 3.12 inlines, PEP 709), ``total_calls`` (every profiled
call, numpy's too: printed, never recorded), ``queue_entries`` and
``instants`` of its simulators, and its flow networks' wake-ups armed and
stale (superseded by a later solve before they fired), arena entries and
arena releases (an arena-mode network whose last live flow retired).

These repeat exactly where wall time does not.  ``COUNTS.json`` records
every row of :data:`ROWS`; the ``counts`` rail of ``scripts/rails.py``
measures them afresh and fails a row on any field that differs.  Several
rows run in fresh interpreters, two at a time, so a row's counts do not
depend on what ran before it.

Usage::

    PYTHONPATH=src python scripts/profile_hotpath.py
        [--scenario kv_storm rpc_storm] [--top 20] [--sort cumulative|tottime|ncalls]
    PYTHONPATH=src python scripts/profile_hotpath.py
        --workload <ledger workload ...> [--seed N] [--top 0] [--memory]
    PYTHONPATH=src python scripts/profile_hotpath.py --record

``--top N`` prints the cProfile top N and a table of ``network/flow.py``
self time per function (DESIGN.md §6).  ``--record`` measures every row and
rewrites ``COUNTS.json``, keeping ``calls`` per CPython minor version; it
refuses, writing nothing, when a recorded digest moved (a changed
simulated outcome: delete that row first to re-anchor it).  A change that
re-records a count says why in CHANGES.md.

``--memory`` measures memory instead: a first collector-paused pass reads
``ru_maxrss`` (what the ledger's ``peak_rss_mib`` reports) and the garbage
the pass kept, by type; a second runs under :mod:`tracemalloc` and prints
its peak, what it holds at its end and the top allocation sites by line.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pstats
import resource
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from functools import partial
from operator import attrgetter
from pathlib import Path
from typing import Dict, List, Optional, Tuple

_ROOT = Path(__file__).resolve().parents[1]
if str(_ROOT) not in sys.path:
    sys.path.insert(0, str(_ROOT))

import repro  # noqa: E402
from benchmarks.e2e import workloads  # noqa: E402
from benchmarks.kernel_scenarios import SCENARIOS  # noqa: E402
from repro.network.flow import FlowNetwork  # noqa: E402
from repro.simulation.core import Simulator  # noqa: E402

RECORD = _ROOT / "COUNTS.json"

#: Ledger seeds every workload is recorded at.
SEEDS = (0, 7)

#: Fresh interpreters run at once.
JOBS = 2

#: This interpreter's CPython minor version: the key of its recorded calls.
PYTHON = f"{sys.version_info.major}.{sys.version_info.minor}"

_SRC = str(Path(repro.__file__).parent)
_INLINED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})

#: A row: a workload and its ledger seed, or a scenario and ``None``.
Row = Tuple[str, Optional[int]]


def row_id(row: Row) -> str:
    name, seed = row
    return name if seed is None else f"{name}-seed{seed}"


#: The recorded rows, by id.
ROWS: Dict[str, Row] = {
    row_id(row): row
    for row in [(name, seed) for name in workloads.WORKLOADS for seed in SEEDS]
    + [(name, None) for name in SCENARIOS]
}


def _runner(row: Row):
    """``(run, digest_of)``: one pass of ``row`` and its outcome's digest."""
    name, seed = row
    if seed is None:
        return SCENARIOS[name], attrgetter("digest")
    return partial(workloads.run_pass, name, seed), workloads.digest_of


@contextmanager
def _collector_paused():
    """Pause the cyclic collector, as the ledger worker does in a pass.  A
    collection inside a profiled pass would count the finalisers it runs,
    and when one falls follows from every allocation made before it."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _counted_pass(run):
    """Call ``run``; return its outcome and the counts of the simulators and
    flow networks it built: queue entries, instants, flow wake-ups armed and
    stale, arena entries and releases."""
    sims, nets = [], []
    counts = {"flow_wakes_armed": 0, "flow_wakes_stale": 0, "arena_releases": 0}
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
        counts["flow_wakes_armed"] += self._wake is not None

    def counting_on_wake(self, wake):
        counts["flow_wakes_stale"] += wake is not self._wake
        on_wake(self, wake)

    def counting_release(self):
        # A fresh network empties its arena too, before it is in arena mode.
        counts["arena_releases"] += self._vector
        release(self)

    # The wake is bound when armed, so the patched _on_wake is the one it
    # fires while the pass runs.
    Simulator.__init__, FlowNetwork.__init__ = recording_sim_init, recording_net_init
    FlowNetwork._refresh_deadlines_and_arm = counting_arm
    FlowNetwork._on_wake = counting_on_wake
    FlowNetwork._release_arena = counting_release
    try:
        outcome = run()
    finally:
        Simulator.__init__, FlowNetwork.__init__ = sim_init, net_init
        FlowNetwork._refresh_deadlines_and_arm = arm
        FlowNetwork._on_wake = on_wake
        FlowNetwork._release_arena = release
    counts["queue_entries"] = sum(sim.events_processed for sim in sims)
    counts["instants"] = sum(sim.instants for sim in sims)
    counts["arena_entries"] = sum(net.mode_switches for net in nets)
    return outcome, counts


def count_row(row: Row) -> Tuple[dict, pstats.Stats]:
    """One counted and one profiled pass of ``row``: its counts and profile."""
    run, digest_of = _runner(row)
    with _collector_paused():
        warm, counts = _counted_pass(run)
    profiler = cProfile.Profile()
    with _collector_paused():
        profiler.enable()
        outcome = run()
        profiler.disable()
    digest, warm_digest = digest_of(outcome), digest_of(warm)
    if digest != warm_digest:
        raise SystemExit(f"{row_id(row)}: profiled pass digest {digest} differs "
                         f"from the counted pass's {warm_digest}")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    counts["digest"] = digest
    counts["calls"] = sum(
        n_calls
        for (path, _line, func), (_, n_calls, _, _, _) in stats.stats.items()
        if path.startswith(_SRC) and func not in _INLINED
    )
    counts["total_calls"] = stats.total_calls
    return counts, stats


def profile_row(row: Row, top: int, sort: str) -> None:
    """Print ``row``'s profile tables (``top`` rows each) and its counts."""
    counts, stats = count_row(row)
    print(f"== {row_id(row)} ==")
    flow_rows = sorted(
        ((self_s, n_calls, func)
         for (path, _line, func), (_, n_calls, self_s, _, _) in stats.stats.items()
         if path.endswith("network/flow.py")),
        reverse=True,
    )
    if top:
        stats.strip_dirs().sort_stats(sort).print_stats(top)
    if top and flow_rows:
        total, flow_total = stats.total_tt, sum(self_s for self_s, _, _ in flow_rows)
        print(f"network/flow.py self time {flow_total:.3f}s "
              f"({100 * flow_total / total:.0f}% of {total:.3f}s profiled)")
        print(f"  {'self s':>8} {'calls':>8} {'us/call':>9} {'share':>6}  function")
        for self_s, n_calls, func in flow_rows[:top]:
            print(f"  {self_s:8.4f} {n_calls:8d} {1e6 * self_s / n_calls:9.2f} "
                  f"{100 * self_s / total:5.1f}%  {func}")
        print()
    print(json.dumps({row_id(row): counts}, sort_keys=True))


def memory_row(row: Row, top: int) -> None:
    """Two passes of ``row`` with the collector paused: print the first's
    ``ru_maxrss`` and the garbage it kept by type, then trace the second and
    print its peak, what it holds at the end and the top ``top`` sites by
    line."""
    run, digest_of = _runner(row)
    with _collector_paused():
        run()
        maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            garbage, gc.garbage[:] = list(gc.garbage), []
        finally:
            gc.set_debug(0)
    by_type: dict = {}
    for obj in garbage:
        entry = by_type.setdefault(type(obj).__qualname__, [0, 0])
        entry[0] += 1
        entry[1] += sys.getsizeof(obj)
    del garbage
    print(f"== {row_id(row)} (collector paused) ==")
    print(f"ru_maxrss {maxrss:.2f} MiB after the first pass")
    n_objects = sum(count for count, _ in by_type.values())
    n_bytes = sum(size for _, size in by_type.values())
    print(f"garbage the paused pass kept: {n_objects} objects, {n_bytes / 2**20:.2f} MiB")
    print(f"  {'KiB':>9} {'objects':>8}  type")
    rows = sorted(by_type.items(), key=lambda item: item[1][1], reverse=True)
    for type_name, (count, size) in rows[:top]:
        print(f"  {size / 1024:9.1f} {count:8d}  {type_name}")
    with _collector_paused():
        tracemalloc.start()
        try:
            outcome = run()
            held, peak = tracemalloc.get_traced_memory()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
    snapshot = snapshot.filter_traces(
        [tracemalloc.Filter(False, tracemalloc.__file__)]
    )
    print(f"tracemalloc peak {peak / 2**20:.2f} MiB, held at pass end {held / 2**20:.2f} MiB")
    print(f"  {'KiB':>9} {'blocks':>8}  site")
    for stat in snapshot.statistics("lineno")[:top]:
        frame = stat.traceback[0]
        print(f"  {stat.size / 1024:9.1f} {stat.count:8d}  {frame.filename}:{frame.lineno}")
    print(f"digest {digest_of(outcome)}")


def run_fresh(rows: List[Row], flags: List[str]) -> List[subprocess.CompletedProcess]:
    """Run this script once per row, :data:`JOBS` fresh interpreters at a time."""

    def one(row: Row) -> subprocess.CompletedProcess:
        name, seed = row
        select = ["--scenario", name] if seed is None else ["--workload", name, "--seed", str(seed)]
        return subprocess.run([sys.executable, __file__, *select, *flags],
                              capture_output=True, text=True)

    with ThreadPoolExecutor(JOBS) as pool:
        return list(pool.map(one, rows))


def measure(rows: List[Row]) -> Dict[str, dict]:
    """``{row id: counts}`` of ``rows``, each from a fresh interpreter; a row
    whose interpreter failed maps to ``{"error": its last stderr line}``."""
    measured = {}
    for row, proc in zip(rows, run_fresh(rows, ["--top", "0"])):
        if proc.returncode:
            error = (proc.stderr.strip().splitlines() or [f"exit {proc.returncode}"])[-1]
            measured[row_id(row)] = {"error": error}
        else:
            measured.update(json.loads(proc.stdout.splitlines()[-1]))
    return measured


def load_record(path: Path) -> Dict[str, dict]:
    """The rows of a count record, by id."""
    return json.loads(Path(path).read_text())["rows"]


def recorded_calls(entry: dict) -> Tuple[str, int]:
    """The CPython version whose recorded ``calls`` this interpreter is held
    to, and that count: its own version's, else the earliest recorded."""
    calls = entry["calls"]
    version = PYTHON if PYTHON in calls else min(calls)
    return version, calls[version]


def record_row(counts: dict, entry: Optional[dict] = None) -> dict:
    """``counts`` as the record keeps them: ``calls`` per CPython version
    (merged into ``entry``'s), no ``total_calls``."""
    row = {key: value for key, value in counts.items() if key != "total_calls"}
    row["calls"] = {**(entry or {}).get("calls", {}), PYTHON: counts["calls"]}
    return row


def record(measured: Dict[str, dict], path: Path) -> List[str]:
    """Rewrite the record at ``path`` from ``measured``.  Returns, writing
    nothing, one line per recorded row whose digest moved."""
    recorded = load_record(path) if Path(path).exists() else {}
    moved = [
        f"{rid}: {recorded[rid]['digest'][:12]} -> {counts['digest'][:12]}"
        for rid, counts in measured.items()
        if rid in recorded and recorded[rid]["digest"] != counts["digest"]
    ]
    if not moved:
        rows = {rid: record_row(counts, recorded.get(rid)) for rid, counts in measured.items()}
        payload = {"note": "exact counts: scripts/profile_hotpath.py", "rows": rows}
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return moved


def _record() -> int:
    measured = measure(list(ROWS.values()))
    failed = [f"{rid}: {counts['error']}" for rid, counts in measured.items()
              if "error" in counts]
    moved = [] if failed else record(measured, RECORD)
    for line in failed:
        print(f"error: {line}", file=sys.stderr)
    if moved:
        print(f"refusing to rewrite {RECORD}: the digest moved in", file=sys.stderr)
        for line in moved:
            print(f"  {line}", file=sys.stderr)
        print("delete those rows from the record first to re-anchor them", file=sys.stderr)
    if failed or moved:
        return 1
    print(f"wrote {len(measured)} rows to {RECORD}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", nargs="+", default=["kv_storm", "rpc_storm"],
                        choices=sorted(SCENARIOS),
                        help="kernel scenarios to profile (default: the metadata-plane pair)")
    parser.add_argument("--workload", nargs="+", choices=workloads.WORKLOADS,
                        help="profile one pass of these end-to-end ledger workloads instead")
    parser.add_argument("--seed", type=int, default=0, help="ledger pass seed (with --workload)")
    parser.add_argument("--memory", action="store_true",
                        help="trace memory (garbage kept, peak and top sites) instead of calls")
    parser.add_argument("--record", action="store_true",
                        help="measure every recorded row and rewrite COUNTS.json")
    parser.add_argument("--top", type=int, default=20, help="rows of the profile table to print")
    parser.add_argument("--sort", default="cumulative", choices=("cumulative", "tottime", "ncalls"),
                        help="pstats sort key")
    args = parser.parse_args(argv)

    if args.record:
        return _record()
    if args.workload:
        rows = [(name, args.seed) for name in args.workload]
    else:
        rows = [(name, None) for name in args.scenario]
    if len(rows) > 1:
        flags = ["--top", str(args.top), "--sort", args.sort]
        if args.memory:
            flags.append("--memory")
        returncode = 0
        for proc in run_fresh(rows, flags):
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            returncode = returncode or proc.returncode
        return returncode
    (row,) = rows
    if args.memory:
        memory_row(row, args.top)
    else:
        profile_row(row, args.top, args.sort)
    return 0


if __name__ == "__main__":
    sys.exit(main())
