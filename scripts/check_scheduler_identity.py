#!/usr/bin/env python
"""Machine-check: heap vs calendar-queue scheduler reports are byte-identical.

Renders every registered experiment at CI scale once per scheduler backend
(``REPRO_SCHEDULER=heap`` and ``wheel``) and fails if any report differs by
a single byte.  The calendar queue replaces the binary heap under storm
load; its admissibility rests on dispatching exactly the heap's
``(time, seq)`` order, and this is the end-to-end gate for that contract —
the unit-level ordering tests live in
``tests/simulation/test_scheduler_identity.py``.

There is no flow-solver pass any more.  ``REPRO_FLAT_SOLVER=1`` used to
swap the scalar kernel every experiment runs on; since the scalar kernels
collapsed into one group-level kernel it only picks between the two
*vector* kernels, which at CI scale run for four solves of ``fig3`` and in
no other experiment — a third full render would gate nothing.  Vector flat
vs vector grouped vs scalar identity is policed where those kernels do run:
``tests/network/test_flow_aggregation.py`` and the ``repro bench`` digests.

Usage::

    PYTHONPATH=src python scripts/check_scheduler_identity.py [--scale ci|paper]
"""

from __future__ import annotations

import argparse
import difflib
import os
import sys
import time

from repro.experiments.registry import EXPERIMENTS, run_experiment

#: (label, environment overrides) for each rendering pass.  The first entry
#: is the reference; every other pass must reproduce it byte for byte.
PASSES = (
    ("heap", {"REPRO_SCHEDULER": "heap"}),
    ("wheel", {"REPRO_SCHEDULER": "wheel"}),
)


def _render(name: str, scale: str, seed: int, env: dict) -> str:
    saved = {key: os.environ.get(key) for key in env}
    os.environ.update(env)
    try:
        return run_experiment(name, scale=scale, seed=seed).render()
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=("ci", "paper"), default="ci")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    failures = []
    for name in sorted(EXPERIMENTS):
        reference = None
        walls = []
        clean = True
        for label, env in PASSES:
            start = time.time()
            report = _render(name, args.scale, args.seed, env)
            walls.append(f"{label} {time.time() - start:5.1f}s")
            if reference is None:
                reference = (label, report)
            elif report != reference[1]:
                clean = False
                failures.append(f"{name}:{label}")
                print(f"FAIL {name}: {label} differs from {reference[0]}")
                diff = difflib.unified_diff(
                    reference[1].splitlines(), report.splitlines(),
                    fromfile=reference[0], tofile=label, lineterm="",
                )
                for line in list(diff)[:40]:
                    print(f"     {line}")
        if clean:
            print(f"ok   {name:16s} {'  '.join(walls)}")

    if failures:
        print(f"\n{len(failures)} pass(es) not byte-identical: {failures}")
        return 1
    print(f"\nall {len(EXPERIMENTS)} experiments byte-identical across {len(PASSES)} passes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
