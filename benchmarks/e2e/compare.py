"""Compare two result files written by ``python -m benchmarks.e2e run --out``.

One verdict per (workload, end-to-end metric), by the bounds recorded in
``BENCHMARK.json``:

* ``regressed`` — the second file's value is worse than the first's by
  more than the metric's bound;
* ``unresolved`` — the run-to-run spread of either side (distance between
  the quartiles of its samples, as a share of their median) is wider than
  the bound, so the comparison cannot tell — unless every sample of the
  second file is better than every sample of the first, which is ``ok``;
* ``sim-changed`` — the two files were taken at the same seed and shape,
  where every ``sim`` number repeats exactly, and the digest of the
  simulated outcome, a ``sim`` metric or a ``sim`` counter differs.  A
  change meant only to speed the simulator must never get this verdict; a
  correctness change that moves the model shows exactly which numbers
  moved.  Between different seeds ``sim`` metrics are judged by their
  bounds like the host ones;
* ``ok`` — otherwise.

Every ratio is printed with its base.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

from benchmarks.e2e.metrics import END_TO_END, PER_LAYER

__all__ = ["spread", "verdict", "compare", "EXIT_CODES"]

EXIT_CODES = {"ok": 0, "regressed": 1, "unresolved": 2, "sim-changed": 3}
#: Overall verdict = the most severe one seen.
_SEVERITY = ("ok", "unresolved", "regressed", "sim-changed")
_SIM = {metric.name for metric in END_TO_END + PER_LAYER if metric.kind == "sim"}


def spread(samples: List[float]) -> float:
    """Interquartile distance as a share of the median (0 below 2 samples)."""
    if len(samples) < 2:
        return 0.0
    quartiles = statistics.quantiles(samples, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(samples)


def verdict(base: dict, new: dict, better: str, bound: float) -> Tuple[str, float, float]:
    """``(verdict, worse_by, spread)`` of one metric, ``worse_by`` as a
    share of the base value (negative = improved)."""
    lower = better == "lower"
    delta = new["value"] - base["value"] if lower else base["value"] - new["value"]
    worse_by = delta / base["value"]
    base_samples, new_samples = base.get("samples", []), new.get("samples", [])
    wide = max(spread(base_samples), spread(new_samples))
    if wide > bound:
        if base_samples and new_samples and (
            max(new_samples) < min(base_samples) if lower
            else min(new_samples) > max(base_samples)
        ):
            return "ok", worse_by, wide
        return "unresolved", worse_by, wide
    return ("regressed" if worse_by > bound else "ok"), worse_by, wide


def compare(base: dict, new: dict, manifest: dict) -> Tuple[str, List[str]]:
    """Overall verdict and report lines for two result files."""
    specs: Dict[str, dict] = {metric["name"]: metric for metric in manifest["end_to_end"]}
    lines: List[str] = []
    seen = {"ok"}
    # Same generated inputs: every sim number must repeat to the last bit.
    exact = (base.get("seed"), base.get("shape")) == (new.get("seed"), new.get("shape"))
    for workload, base_result in base["workloads"].items():
        new_result = new["workloads"].get(workload)
        if new_result is None:
            lines.append(f"{workload}: missing from the second file")
            seen.add("unresolved")
            continue
        same = base_result["digest"] == new_result["digest"]
        if exact and not same:
            seen.add("sim-changed")
        lines.append(
            f"{workload} sim-outcome "
            + ("identical" if same else "sim-changed" if exact else "differs (other inputs)")
            + f" (digest {base_result['digest'][:12]} vs {new_result['digest'][:12]})"
        )
        for name, spec in specs.items():
            base_entry = base_result["end_to_end"][name]
            new_entry = new_result["end_to_end"][name]
            result, worse_by, wide = verdict(base_entry, new_entry, spec["better"], spec["bound"])
            if exact and name in _SIM:
                result = "ok" if new_entry["value"] == base_entry["value"] else "sim-changed"
            seen.add(result)
            lines.append(
                f"{workload} {name} {result}: {new_entry['value']:.6g} vs base "
                f"{base_entry['value']:.6g} {spec['unit']} "
                f"(x{new_entry['value'] / base_entry['value']:.4f} of base, "
                f"worse by {worse_by:+.2%}, bound {spec['bound']:.0%}, spread {wide:.2%})"
            )
        base_layers, new_layers = base_result.get("per_layer"), new_result.get("per_layer")
        if exact and base_layers and new_layers:
            moved = [name for name in base_layers
                     if name in _SIM and base_layers[name]["value"] != new_layers[name]["value"]]
            for name in moved:
                seen.add("sim-changed")
                lines.append(
                    f"{workload} {name} sim-changed: {new_layers[name]['value']:.17g} vs base "
                    f"{base_layers[name]['value']:.17g} {base_layers[name]['unit']}"
                )
            if not moved:
                lines.append(f"{workload} sim counters identical")
    overall = max(seen, key=_SEVERITY.index)
    return overall, lines
