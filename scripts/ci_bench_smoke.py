#!/usr/bin/env python
"""CI gate: quick kernel bench digests are frozen and the solver stays fast.

Runs ``repro bench --quick`` in-process and checks, against the committed
reference (``benchmarks/bench_quick_baseline.json``):

1. every scenario's digest matches — a kernel change that moves any event
   timestamp by one ulp fails here, which is the determinism contract every
   solver optimisation must keep;
2. the timed gate scenarios (``GATED`` below — the ones that exercise the
   batched max-min solver's scalar and array kernels, flow grouping, the
   time-bucket event queue in both its regimes, the metadata-plane RPC
   fast path and the memoised request -> key -> index-entry path) have not
   regressed by more than ``--slack`` (default 25%) against the reference
   wall time, after scaling by a per-run calibration factor measured on the
   untimed scenarios so a slower CI runner does not trip the gate.

Wall times are min-of-``--repeat`` (default 5): the minimum is the only
repeat statistic that converges on a noisy shared runner.

Recalibrate after an intentional kernel change::

    PYTHONPATH=src python scripts/ci_bench_smoke.py --update-reference

This re-records wall times only: it refuses to write when any scenario's
digest differs from the recorded one (delete the reference file first to
re-anchor digests deliberately).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.bench.runner import digest_drift, run_kernel_benchmarks

REFERENCE = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_quick_baseline.json"

#: Scenarios whose wall time gates the solver's performance.
#: ``wide_contention`` holds 160 flows on 96 distinct paths, so its solves
#: have far more than 40 groups in scope: the only scenario that runs (and
#: so the only gate on) the array kernel ``FlowNetwork._solve_vector``; the
#: other flow scenarios coalesce below 40 groups and time the scalar one.
#: ``flow_storm_100k`` runs its trimmed quick shape here (2 waves x 20k
#: flows) — enough to exercise aggregation and to park tens of thousands of
#: events on one instant of the event queue; ``barrier_burst`` is the
#: opposite regime (every completion its own instant, a lone event each).
#: Together they are what notices the queue regress at either end, now that
#: no second scheduler stands behind it.
#: ``rpc_storm`` gates the metadata plane on the op driver (fused delay
#: legs + bare launches that build no Request) on both storage backends.
#: ``serving_storm`` gates the request path: interned requests, memoised
#: expansion and per-key schema split under the serving gateway.
GATED = (
    "many_flow_contention",
    "wide_contention",
    "barrier_burst",
    "flow_storm_5k",
    "flow_storm_100k",
    "rpc_storm",
    "serving_storm",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reference", type=Path, default=REFERENCE)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument(
        "--slack", type=float, default=0.25,
        help="allowed fractional wall regression on gated scenarios",
    )
    parser.add_argument(
        "--update-reference", action="store_true",
        help="rewrite the reference from this run instead of checking",
    )
    args = parser.parse_args(argv)

    payload = run_kernel_benchmarks(quick=True, repeats=args.repeat)
    scenarios = payload["scenarios"]

    if args.update_reference:
        if args.reference.exists():
            recorded = json.loads(args.reference.read_text())["scenarios"]
            drift = digest_drift(recorded, scenarios)
            if drift:
                # Recalibration is for wall times; a moved digest is a
                # changed simulated outcome and must be a deliberate act.
                print(f"refusing to rewrite {args.reference}: digest drift in")
                for line in drift:
                    print(f"  {line}")
                print("delete the file first to re-anchor the digests")
                return 1
        reference = {
            "note": "quick-mode reference for scripts/ci_bench_smoke.py",
            "repeats": args.repeat,
            "scenarios": {
                name: {"digest": entry["digest"], "wall_s": entry["wall_s"]}
                for name, entry in scenarios.items()
            },
        }
        args.reference.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.reference}")
        return 0

    reference = json.loads(args.reference.read_text())["scenarios"]
    failures = []

    for name, entry in sorted(scenarios.items()):
        want = reference.get(name)
        if want is None:
            failures.append(f"{name}: missing from reference (recalibrate?)")
            continue
        if entry["digest"] != want["digest"]:
            failures.append(
                f"{name}: digest drift {want['digest'][:12]} -> {entry['digest'][:12]}"
            )
    for name in reference:
        if name not in scenarios:
            failures.append(f"{name}: in reference but not produced by this run")

    # Per-run speed calibration: the untimed scenarios exercise the same
    # interpreter and event kernel but not the solver under test, so their
    # collective slowdown estimates how much slower this runner is than the
    # machine that recorded the reference.
    calibration_pool = [n for n in scenarios if n not in GATED and n in reference]
    ratios = sorted(
        scenarios[n]["wall_s"] / reference[n]["wall_s"]
        for n in calibration_pool
        if reference[n]["wall_s"] > 0
    )
    # Clamped at 1.0: calibration only ever *loosens* the budget (for a
    # slower runner), never tightens it below the recorded reference —
    # otherwise ordinary run-to-run variance in the pool flakes the gate.
    machine = max(1.0, ratios[len(ratios) // 2]) if ratios else 1.0
    print(f"machine calibration factor: {machine:.2f}x the reference box")

    for name in GATED:
        if name not in scenarios or name not in reference:
            continue
        wall = scenarios[name]["wall_s"]
        budget = reference[name]["wall_s"] * machine * (1.0 + args.slack)
        verdict = "ok" if wall <= budget else "FAIL"
        print(f"{name:24s} {wall:7.3f}s wall  budget {budget:7.3f}s  {verdict}")
        if wall > budget:
            failures.append(
                f"{name}: wall {wall:.3f}s exceeds budget {budget:.3f}s "
                f"(reference {reference[name]['wall_s']:.3f}s, "
                f"calibration {machine:.2f}x, slack {args.slack:.0%})"
            )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(f"ok: {len(scenarios)} quick scenarios digest-stable; solver within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
