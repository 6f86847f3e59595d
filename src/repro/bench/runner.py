"""Sweep execution helpers shared by the experiment drivers.

Every paper experiment is a sweep over deployment shapes and benchmark
parameters, repeated a few times, with either the best or the mean
configuration reported.  :func:`build_deployment` assembles one fresh
deployment per grid point and :func:`mean` reduces repetitions (§6.2/Fig
3: "the mean ... across all repetitions for the best performing number of
client processes").

This module also hosts the entry point of the *kernel perf harness*
(``repro bench``): :func:`run_kernel_benchmarks` drives the scenarios of
:mod:`repro.bench.kernel_perf` and assembles the ``BENCH_kernel.json``
payload that tracks the simulator's own speed across PRs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.config import ClusterConfig
from repro.daos.system import DaosSystem
from repro.hardware.topology import Cluster

__all__ = [
    "build_deployment",
    "mean",
    "run_kernel_benchmarks",
    "write_kernel_bench",
]


def build_deployment(
    config: ClusterConfig, backend: str = "daos"
) -> Tuple[Cluster, DaosSystem, object]:
    """Assemble a fresh cluster + storage system + pool for one run.

    ``backend`` selects the storage model from :mod:`repro.backends`; the
    default keeps the historical DAOS deployment bit for bit.
    """
    from repro.backends.registry import build_deployment as _build

    return _build(config, backend=backend)


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean; raises on empty input (silent 0.0 hides bugs)."""
    values = list(values)
    if not values:
        raise ValueError("mean of no values")
    return sum(values) / len(values)


# -- kernel perf harness ------------------------------------------------------------

#: Version tag of the BENCH_kernel.json schema.
KERNEL_BENCH_SCHEMA = "repro-kernel-bench/1"


def run_kernel_benchmarks(
    quick: bool = False,
    repeats: int = 1,
    scenarios: Optional[Sequence[str]] = None,
) -> dict:
    """Run the kernel perf scenarios and return the BENCH_kernel payload.

    ``repeats`` re-runs each scenario and reports the *minimum* wall time
    (the usual micro-benchmark convention: the fastest run is the least
    noise-contaminated).  Digests must agree across repeats — a mismatch
    means the kernel is non-deterministic and is raised as an error.
    """
    from repro.bench.kernel_perf import SCENARIOS, run_scenario

    if repeats < 1:
        raise ValueError("need at least one repeat")
    names = list(scenarios) if scenarios is not None else list(SCENARIOS)
    results: Dict[str, dict] = {}
    for name in names:
        best = None
        digest = None
        for _ in range(repeats):
            result = run_scenario(name, quick=quick)
            if digest is None:
                digest = result.digest
            elif digest != result.digest:
                raise RuntimeError(
                    f"kernel scenario {name!r} is non-deterministic: digest "
                    f"{result.digest[:12]} != {digest[:12]} across repeats"
                )
            if best is None or result.wall_s < best.wall_s:
                best = result
        results[name] = best.as_dict()
    return {
        "schema": KERNEL_BENCH_SCHEMA,
        "quick": quick,
        "repeats": repeats,
        "scenarios": results,
    }


class DigestDriftError(RuntimeError):
    """A re-recording would replace a scenario's recorded digest."""


def digest_drift(recorded: dict, scenarios: dict) -> List[str]:
    """Scenarios whose digest differs from the one ``recorded`` for them."""
    return [
        f"{name}: {recorded[name]['digest'][:12]} -> {entry['digest'][:12]}"
        for name, entry in scenarios.items()
        if name in recorded and recorded[name]["digest"] != entry["digest"]
    ]


def write_kernel_bench(
    payload: dict, path: Path, baseline: Optional[Path] = None
) -> dict:
    """Write ``BENCH_kernel.json``, embedding speedups vs a baseline file.

    Re-recording is for wall times: when ``path`` already holds a payload
    of the same scenario sizes and any scenario's digest would change, the
    simulated outcome moved and :class:`DigestDriftError` is raised instead
    of writing.  Delete the file first to re-anchor digests deliberately.

    ``baseline`` points at a previously written payload (e.g. the pre-PR
    kernel's numbers); per-scenario ``speedup`` is baseline wall time over
    current wall time, so > 1 means the kernel got faster.  Speedups are
    only computed when both payloads used the same scenario sizes (the
    ``quick`` flag matches) — a quick run against a full baseline would
    report nonsense ratios.
    """
    path = Path(path)
    if path.exists():
        recorded = json.loads(path.read_text())
        if recorded.get("quick") == payload["quick"]:
            drift = digest_drift(recorded.get("scenarios", {}), payload["scenarios"])
            if drift:
                raise DigestDriftError(
                    f"refusing to overwrite {path}: digest drift in "
                    + "; ".join(drift)
                )
    if baseline is not None:
        reference = json.loads(Path(baseline).read_text())
        payload = dict(payload)
        payload["baseline"] = {
            "path": str(baseline),
            "scenarios": reference.get("scenarios", {}),
        }
        if reference.get("quick") != payload["quick"]:
            payload["baseline"]["size_mismatch"] = True
        else:
            speedups: Dict[str, float] = {}
            for name, entry in payload["scenarios"].items():
                ref = reference.get("scenarios", {}).get(name)
                if ref and entry["wall_s"] > 0:
                    speedups[name] = round(ref["wall_s"] / entry["wall_s"], 2)
            payload["speedup"] = speedups
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload
