#!/usr/bin/env python
"""The rails: labelled checks over the CI-scale experiment results.

Each rail is a row of :data:`RAILS`, a list of ``(label, check)`` pairs.  A
check takes the shared :class:`Renders` and returns ``(ok, detail)``; one
whose input is missing (a series, row, note or golden section) is a FAIL
under its own label, and every check runs whatever failed before it.  Every experiment is
rendered once per ``(experiment, backend, jobs)`` at CI scale, seed 0, and
shared by all the rails that read it.

* ``identity`` — every serial daos report matches the golden results file
  (reproducibility headers, wall-time lines and blank lines excluded), and
  every ``-j4`` report matches the serial one byte for byte: the
  deterministic-merge contract of ``repro.experiments.runner``.
* ``cache`` — fig3 at ``-j4`` through a cold, then the warm persistent
  result cache matches the serial report, and the warm run is served
  >= 90% from cache.
* ``backend`` — ``backend_compare``: DAOS Field I/O scales with clients,
  posixfs collapses past its lock-contention knee, file-per-process IOR
  stays friendly, and posixfs mdtest rates sit below DAOS.
* ``serving`` — ``product_serving``: the cache-hit rate climbs with
  capacity, QoS sheds a 6x overload within its queue depth and beats the
  unprotected p99, replication cuts the rollover p99, hot fields are
  promoted, and both backends are byte-identical at ``-j4``.
* ``cycle`` — ``operational_cycle`` on both backends: product readers
  contend the writers, and vectorized puts and gets are used.

Usage::

    PYTHONPATH=src python scripts/rails.py [RAIL ...]   # no RAIL: all rails
"""

from __future__ import annotations

import difflib
import re
import sys
import tempfile
import time
from functools import lru_cache, partial
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

from repro.experiments.cache import ResultCache
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.experiments.runner import ExecOptions, exec_options

GOLDEN = Path(__file__).resolve().parent.parent / "experiment_results_ci.txt"

#: Worker count of every parallel render.
JOBS = 4

#: Execution-metadata lines excluded from the golden comparison.
_WALL_LINE = re.compile(r"^\[\w+: [0-9.]+s wall\]$")


class Renders:
    """Memoised CI-scale, seed-0 experiment results."""

    def __init__(self) -> None:
        self.count = 0
        self._results: Dict[tuple, object] = {}

    def _run(self, name: str, backend: str, options: ExecOptions):
        self.count += 1
        start = time.time()
        with exec_options(options):
            result = run_experiment(name, scale="ci", seed=0, backend=backend)
        print(f"     render {name} {backend} -j{options.jobs}: {time.time() - start:.1f}s")
        return result

    def __call__(self, name: str, backend: str = "daos", jobs: int = 1):
        key = (name, backend, jobs)
        if key not in self._results:
            self._results[key] = self._run(name, backend, ExecOptions(jobs=jobs))
        return self._results[key]

    def through_cache(self, name: str):
        """``(cold, warm, warm cache)``: two ``-j4`` daos runs over one cache."""
        key = (name, "cache")
        if key not in self._results:
            with tempfile.TemporaryDirectory(prefix="repro-cache-") as root:
                cold = self._run(name, "daos", ExecOptions(JOBS, ResultCache(root)))
                warm_cache = ResultCache(root)
                warm = self._run(name, "daos", ExecOptions(JOBS, warm_cache))
            self._results[key] = cold, warm, warm_cache
        return self._results[key]


Check = Callable[[Renders], Tuple[bool, str]]


def _report_lines(text: str) -> List[str]:
    return [line for line in text.splitlines()
            if line and not line.startswith("# ") and not _WALL_LINE.match(line)]


@lru_cache(maxsize=None)
def golden_sections() -> Dict[str, Tuple[str, ...]]:
    """The golden results file split into per-experiment report bodies."""
    sections: Dict[str, List[str]] = {}
    current = None
    for line in _report_lines(GOLDEN.read_text()):
        if line.startswith("== "):
            current = sections.setdefault(line[3:].split(":", 1)[0], [])
        if current is None:
            raise ValueError(f"{GOLDEN.name} has report text before any '== ': {line!r}")
        current.append(line)
    return {name: tuple(lines) for name, lines in sections.items()}


def _same(expected: Sequence[str], actual: Sequence[str], old: str, new: str):
    """``(ok, detail)`` of two reports' lines; a mismatch carries the diff."""
    if list(expected) == list(actual):
        return True, f"{len(actual)} lines byte-identical"
    diff = difflib.unified_diff(expected, actual, fromfile=old, tofile=new, lineterm="")
    return False, "\n".join([f"{new} differs from {old}", *list(diff)[:40]])


# -- identity and cache ------------------------------------------------------
def _golden(name: str, get: Renders):
    return _same(golden_sections()[name], _report_lines(get(name).render()),
                 "golden", "serial")


def _jobs_identity(name: str, backend: str, get: Renders):
    return _same(get(name, backend).render().splitlines(),
                 get(name, backend, JOBS).render().splitlines(),
                 "serial", f"-j{JOBS}")


def _cache_run(index: int, get: Renders):
    label = ("cold", "warm")[index]
    return _same(get("fig3").render().splitlines(),
                 get.through_cache("fig3")[index].render().splitlines(),
                 "serial", f"{label} -j{JOBS}")


def _cache_served(get: Renders):
    cache = get.through_cache("fig3")[2]
    total = cache.hits + cache.misses
    served = cache.hits / total if total else 0.0
    return served >= 0.90, f"warm run served {served:.0%} from cache ({cache.hits}/{total})"


# -- backend: backend_compare ------------------------------------------------
def _series(get: Renders, name: str):
    return get("backend_compare").series_by_name(name)


def _daos_scales(get: Renders):
    daos = _series(get, "fieldio write daos").ys
    return (daos[-1] > 1.5 * daos[0],
            f"daos fieldio write {daos[0] / 2**30:.2f} -> {daos[-1] / 2**30:.2f} GiB/s")


def _posixfs_collapses(get: Renders):
    posix = _series(get, "fieldio write posixfs").ys
    return (posix[-1] < 0.75 * max(posix),
            f"posixfs fieldio write peaks {max(posix) / 2**30:.2f}, "
            f"ends {posix[-1] / 2**30:.2f} GiB/s")


def _gap_at_scale(get: Renders):
    daos = _series(get, "fieldio write daos").ys
    posix = _series(get, "fieldio write posixfs").ys
    return (posix[-1] < 0.5 * daos[-1],
            f"at max clients posixfs {posix[-1] / 2**30:.2f} vs "
            f"daos {daos[-1] / 2**30:.2f} GiB/s")


def _ior_friendly(get: Renders):
    daos = _series(get, "ior write daos").ys
    posix = _series(get, "ior write posixfs").ys
    worst = min(p / d for p, d in zip(posix, daos))
    return worst > 0.8, f"file-per-process posixfs/daos write ratio >= {worst:.2f}"


def _mdtest_ceiling(get: Renders):
    rates = {row[0]: [float(cell) for cell in row[1:]]
             for row in get("backend_compare").rows}
    return (all(p < d for p, d in zip(rates["posixfs"], rates["daos"])),
            f"posixfs {rates['posixfs']} < daos {rates['daos']} ops/s")


# -- serving: product_serving ------------------------------------------------
def _top_rate_row(result, qos: str):
    return [row for row in result.rows if row[0] == "rate" and row[4] == qos][-1]


def _note(result, text: str) -> str:
    for note in result.notes:
        if text in note:
            return note
    raise KeyError(f"no note with {text!r} in {result.experiment}")


def _hit_climbs(backend: str, get: Renders):
    hit = get("product_serving", backend).series_by_name("hit rate vs cache MiB")
    return (hit.is_nondecreasing() and hit.ys[-1] > hit.ys[0],
            f"hit rate {hit.ys[0]:.3f} -> {hit.ys[-1]:.3f} over cache sizes {hit.xs}")


def _qos_sheds(backend: str, get: Renders):
    top = _top_rate_row(get("product_serving", backend), "on")
    return (int(top[6]) > 0,
            f"{top[6]} of {int(top[5]) + int(top[6])} requests shed at {top[2]} req/s")


def _qos_beats_meltdown(get: Renders):
    result = get("product_serving")
    p99_on = float(_top_rate_row(result, "on")[10])
    p99_off = float(_top_rate_row(result, "off")[10])
    return p99_on < p99_off, f"protected p99 {p99_on:.3f} ms < unprotected {p99_off:.3f} ms"


def _qos_queue_bounded(get: Renders):
    note = _note(get("product_serving"), "max queue")
    depth = re.search(r"max queue (\d+)/(\d+)", note)
    return depth is not None and int(depth.group(1)) <= int(depth.group(2)), note


def _replication_cuts_p99(get: Renders):
    repl = get("product_serving").series_by_name("p99 vs replication")
    strictly_falling = all(a > b for a, b in zip(repl.ys, repl.ys[1:]))
    return (len(repl.ys) >= 3 and strictly_falling,
            "rollover p99 " + " -> ".join(f"{y:.3f}" for y in repl.ys)
            + f" ms over replication {repl.xs}")


def _hot_fields_promoted(get: Renders):
    note = _note(get("product_serving"), "promotions")
    promotions = [int(n) for n in note.rsplit(" ", 1)[-1].split("/")]
    return promotions[0] == 0 and all(n > 0 for n in promotions[1:]), note


# -- cycle: operational_cycle ------------------------------------------------
def _cycle_rows(backend: str, get: Renders):
    rows = [row for row in get("operational_cycle", backend).rows if row[1] == "off"]
    if not rows:
        raise KeyError(f"no rebuild-off rows in operational_cycle on {backend}")
    return rows


def _cycle_sweep(backend: str, get: Renders):
    rows = _cycle_rows(backend, get)
    return len(rows) >= 3, f"{len(rows)} reader counts without rebuild"


def _readers_contend(backend: str, get: Renders):
    rows = _cycle_rows(backend, get)
    bandwidths = [float(row[2]) for row in rows]
    return (bandwidths[0] >= bandwidths[-1],
            f"write bw {bandwidths[0]} -> {bandwidths[-1]} GiB/s under {rows[-1][0]} readers")


def _vector_puts(backend: str, get: Renders):
    rows = _cycle_rows(backend, get)
    return all(row[5] > 0 for row in rows), f"multi puts {[row[5] for row in rows]}"


def _vector_gets(backend: str, get: Renders):
    rows = _cycle_rows(backend, get)
    return all(row[6] > 0 for row in rows[1:]), f"multi gets {[row[6] for row in rows]}"


RAILS: Dict[str, List[Tuple[str, Check]]] = {
    "identity": [
        row
        for name in sorted(EXPERIMENTS)
        for row in ((f"{name}-golden", partial(_golden, name)),
                    (f"{name}-jobs-identity", partial(_jobs_identity, name, "daos")))
    ],
    "cache": [
        ("cold-matches-serial", partial(_cache_run, 0)),
        ("warm-matches-serial", partial(_cache_run, 1)),
        ("warm-served-90pct", _cache_served),
    ],
    "backend": [
        ("daos-scales", _daos_scales),
        ("posixfs-collapses", _posixfs_collapses),
        ("gap-at-scale", _gap_at_scale),
        ("ior-friendly", _ior_friendly),
        ("mdtest-ceiling", _mdtest_ceiling),
    ],
    "serving": [
        ("cache-hit-climbs", partial(_hit_climbs, "daos")),
        ("qos-sheds-overload", partial(_qos_sheds, "daos")),
        ("qos-beats-meltdown", _qos_beats_meltdown),
        ("qos-queue-bounded", _qos_queue_bounded),
        ("replication-cuts-p99", _replication_cuts_p99),
        ("hot-fields-promoted", _hot_fields_promoted),
        ("daos-jobs-identity", partial(_jobs_identity, "product_serving", "daos")),
        ("posixfs-cache-hit-climbs", partial(_hit_climbs, "posixfs")),
        ("posixfs-qos-sheds", partial(_qos_sheds, "posixfs")),
        ("posixfs-jobs-identity", partial(_jobs_identity, "product_serving", "posixfs")),
    ],
    "cycle": [
        (f"{backend}-{label}", partial(check, backend))
        for backend in ("daos", "posixfs")
        for label, check in (("cycle-sweep", _cycle_sweep),
                             ("readers-contend-writers", _readers_contend),
                             ("vector-puts", _vector_puts),
                             ("vector-gets", _vector_gets))
    ],
}


def run_rail(rail: str, get: Renders) -> List[str]:
    """Run and report every check of one rail; returns the failed labels."""
    failed = []
    for label, check in RAILS[rail]:
        try:
            ok, detail = check(get)
        except (LookupError, ValueError, OSError) as exc:  # fails this check only
            ok, detail = False, f"missing input: {type(exc).__name__}: {exc}"
        head, *rest = detail.splitlines() or [""]
        print(f"{'ok  ' if ok else 'FAIL'} {rail} {label}: {head}")
        for line in rest:
            print(f"     {line}")
        if not ok:
            failed.append(f"{rail} {label}")
    return failed


def main(argv: Sequence[str]) -> int:
    rails = list(dict.fromkeys(argv)) or list(RAILS)
    unknown = [name for name in rails if name not in RAILS]
    if unknown:
        print(f"error: unknown rail(s) {unknown}; available: {list(RAILS)}",
              file=sys.stderr)
        return 2
    get, start = Renders(), time.time()
    failed = [label for rail in rails for label in run_rail(rail, get)]
    checks = sum(len(RAILS[rail]) for rail in rails)
    print(f"\n{checks} checks, {get.count} renders, {time.time() - start:.1f}s wall")
    if failed:
        print(f"{len(failed)} check(s) failed: {failed}")
        return 1
    print(f"all {checks} checks passed on rails {rails}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
