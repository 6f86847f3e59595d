"""Parallel grid execution for the experiment drivers.

Every driver's sweep decomposes into independent *work units* — one
``(config, seed, repetition)`` grid point each, executed by a picklable
module-level unit function (:mod:`repro.experiments.units`).  This module
runs a :class:`GridSpec` of units either serially or across a process pool
(``--jobs N``), consults the persistent :class:`~repro.experiments.cache`
first, and always returns results **in grid order**: workers complete in
whatever order the scheduler picks, but results are slotted back by unit
index, so the driver's reduction (and therefore the rendered report) is
byte-identical to a serial run.

Drivers keep their public ``run(scale, seed)`` signature: execution options
(jobs, cache, progress) are ambient, installed by the CLI via
:func:`exec_options`.  Library callers and tests that call a driver
directly get the serial, uncached default.
"""

from __future__ import annotations

import multiprocessing
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.experiments.cache import ResultCache

__all__ = [
    "WorkUnit",
    "GridSpec",
    "ExecOptions",
    "current_options",
    "exec_options",
    "run_grid",
]


@dataclass(frozen=True)
class WorkUnit:
    """One grid point: a picklable unit function plus its keyword arguments.

    ``fn`` must be importable at module level (workers unpickle it by
    reference) and a pure function of its kwargs — the same kwargs must
    always produce the same result, which is what makes both parallel
    execution and caching sound.  Kwarg values are JSON primitives by
    convention; rich objects (providers, object classes, enums) are passed
    by name and resolved inside the unit.
    """

    fn: Callable[..., Any]
    kwargs: Dict[str, Any]


@dataclass
class GridSpec:
    """A named, ordered list of work units (one driver sweep)."""

    label: str
    units: List[WorkUnit] = field(default_factory=list)

    def add(self, fn: Callable[..., Any], **kwargs: Any) -> None:
        self.units.append(WorkUnit(fn, kwargs))

    def __len__(self) -> int:
        return len(self.units)


@dataclass
class ExecOptions:
    """Ambient execution options for :func:`run_grid`."""

    jobs: int = 1
    cache: Optional[ResultCache] = None
    progress: bool = False

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")


_DEFAULT = ExecOptions()
_current: ExecOptions = _DEFAULT


def current_options() -> ExecOptions:
    return _current


@contextmanager
def exec_options(options: ExecOptions):
    """Install ``options`` as the ambient execution options."""
    global _current
    previous = _current
    _current = options
    try:
        yield options
    finally:
        _current = previous


#: Target number of chunks handed to each pool worker.  A few chunks per
#: worker keeps work-stealing effective when unit durations vary, while
#: amortising the per-future submit/result overhead that made tiny grids
#: slower parallel than serial.
_CHUNKS_PER_WORKER = 4

#: Minimum number of uncached units before ``--jobs`` actually spawns a
#: process pool.  Pool spin-up (fork/spawn, imports, pickling) costs tens
#: of milliseconds — on a sub-threshold grid that overhead dwarfs the work
#: itself (``grid_fanout`` measured parallel ~5x *slower* than serial), so
#: small grids short-circuit to the in-process serial path.  The output is
#: byte-identical either way: units are pure and results are slotted back
#: by unit index regardless of execution strategy.
_POOL_MIN_UNITS = 10


def _invoke_chunk(items: List[tuple]) -> List[Any]:
    """Run a chunk of ``(fn, kwargs)`` units in one worker round-trip."""
    return [fn(**kwargs) for fn, kwargs in items]


class _Progress:
    """Single-line stderr progress with an ETA extrapolated from done units."""

    def __init__(self, label: str, total: int, cached: int, enabled: bool) -> None:
        self.label = label
        self.total = total
        self.cached = cached
        self.done = cached
        self.enabled = enabled and total > 0
        self.start = time.monotonic()
        if self.enabled and cached:
            self._render()

    def step(self) -> None:
        self.done += 1
        if self.enabled:
            self._render()

    def _render(self) -> None:
        elapsed = time.monotonic() - self.start
        computed = self.done - self.cached
        remaining = self.total - self.done
        if computed > 0 and remaining > 0:
            eta = f"ETA {elapsed / computed * remaining:4.0f}s"
        elif remaining > 0:
            eta = "ETA   ?s"
        else:
            eta = f"{elapsed:.1f}s"
        sys.stderr.write(
            f"\r[{self.label}] {self.done}/{self.total} units"
            f" ({self.cached} cached) {eta} "
        )
        sys.stderr.flush()

    def finish(self) -> None:
        if self.enabled:
            sys.stderr.write("\n")
            sys.stderr.flush()


def _pool_context():
    # fork keeps worker start-up cheap (no re-import of the package); fall
    # back to the platform default where fork is unavailable.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else methods[0])


def run_grid(
    spec: Union[GridSpec, Sequence[WorkUnit]],
    options: Optional[ExecOptions] = None,
) -> List[Any]:
    """Execute every unit of ``spec``; results are returned in unit order.

    Cached units are served without computing; the rest run serially or on
    a process pool of ``options.jobs`` workers.  Work-stealing order never
    leaks into the output: slot ``i`` of the returned list is always the
    result of unit ``i``.
    """
    if isinstance(spec, GridSpec):
        label, units = spec.label, list(spec.units)
    else:
        label, units = "grid", list(spec)
    opts = options if options is not None else _current
    cache = opts.cache

    results: List[Any] = [None] * len(units)
    pending: List[tuple] = []  # (index, unit, fingerprint-or-None)
    for index, unit in enumerate(units):
        if cache is not None:
            fingerprint = cache.fingerprint(unit.fn, unit.kwargs)
            hit, value = cache.lookup(fingerprint)
            if hit:
                results[index] = value
                continue
            pending.append((index, unit, fingerprint))
        else:
            pending.append((index, unit, None))

    progress = _Progress(
        label, len(units), cached=len(units) - len(pending), enabled=opts.progress
    )
    if opts.jobs > 1 and len(pending) >= _POOL_MIN_UNITS:
        # Small units are chunked so one worker round-trip executes several
        # of them: one future per unit made tiny grids slower parallel than
        # serial on pure pool overhead.  Chunking cannot change the output —
        # units are pure and every result is slotted back by unit index —
        # and each unit is still cached individually.
        workers = min(opts.jobs, len(pending))
        chunk_size = max(1, len(pending) // (workers * _CHUNKS_PER_WORKER))
        chunks = [
            pending[i : i + chunk_size] for i in range(0, len(pending), chunk_size)
        ]
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=_pool_context()
        ) as pool:
            futures = {
                pool.submit(
                    _invoke_chunk, [(unit.fn, unit.kwargs) for _, unit, _ in chunk]
                ): chunk
                for chunk in chunks
            }
            outstanding = set(futures)
            while outstanding:
                finished, outstanding = wait(outstanding, return_when=FIRST_COMPLETED)
                for future in finished:
                    chunk = futures[future]
                    values = future.result()  # re-raises worker exceptions
                    for (index, unit, fingerprint), value in zip(chunk, values):
                        results[index] = value
                        if cache is not None:
                            cache.store(fingerprint, unit.fn, value)
                        progress.step()
    else:
        for index, unit, fingerprint in pending:
            value = unit.fn(**unit.kwargs)
            results[index] = value
            if cache is not None:
                cache.store(fingerprint, unit.fn, value)
            progress.step()
    progress.finish()
    return results
