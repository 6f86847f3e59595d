"""The RPC bookkeeping of the DAOS client: op counts and the fault schedule.

Every op is launched by one method, ``DaosClient._call``: it decides the
op's policy and QoS token count, and launches the op body -- bare, or
inside the client's attempt loop -- on a pooled op driver.  No op builds a
request record; an asynchronous op is the same public generator started
on an event queue (:mod:`repro.daos.eq`), and a multi-op is one op whose
body launches each sub-op.

The client's policy around an op is one loop, ``DaosClient._attempt``,
not a stack of stages: pool-map refresh after a
:class:`~repro.daos.errors.TargetDownError` (health on), retry with
backoff (fault injection on), QoS admission (a serving tenant's) and
fault injection, in that order, around the op body.  Re-running the body
is possible precisely because the loop holds the body function and its
arguments, not a generator instance.  The fault schedule the loop
consults is :func:`fault_fires`, a pure function of the seed, the
client's address, the op and the client's attempt sequence.

Op counts, latencies and ``rpc`` spans are kept by the client's op driver
(``DaosClient._launch`` and ``_FastDriver._finish``), outside the attempt
loop, so an op counts once and its latency and span cover every retry.  A
multi-op's sub-ops and every event-queue launch each run on a driver of
their own, so they are counted and traced the same way.  Counts live in
the system's :class:`OpTable` -- one :class:`OpColumn` per op kind, one
row per client slot -- not in per-client objects.  A row keeps only what
every op writes: ``count`` and ``total_bytes`` (``array('q')``) and the
three times (``array('d')``), 40 bytes; ``errors``, ``retries`` and
``faults_injected`` go to the column's sparse ``{slot: [e, r, f]}`` map,
made on the first one.  ``client.op_metrics`` is a fresh ``{op: OpStats}``
view of the client's rows, ``client.faults_injected`` sums its fault
tallies, and the attempt loop counts retries and injected faults through
``client.tally_op``.  It marks each attempt with ``rpc_retry``,
``rpc_fault`` and ``rpc_map_refresh`` records.

A default client has no policy unless fault injection or health is on,
and tracing adds no simulated events, so the blocking call path stays
bit-identical to the pre-RPC-layer client -- the golden digests in
``tests/bench/test_determinism.py`` are the contract.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass
from typing import Dict, Iterable

__all__ = [
    "DATA_OPS",
    "OpStats",
    "OpColumn",
    "OpTable",
    "fault_fires",
    "merge_op_stats",
]

#: Ops that move bulk field bytes; everything else is a metadata RPC.  The
#: split drives the metadata-vs-data rollup of the RPC breakdown report.
DATA_OPS = frozenset({"array_write", "array_read"})


@dataclass(slots=True)
class OpStats:
    """Latency/count accumulator for one op kind."""

    count: int = 0
    errors: int = 0
    retries: int = 0
    faults_injected: int = 0
    total_time: float = 0.0
    min_time: float = float("inf")
    max_time: float = 0.0
    total_bytes: int = 0

    def observe(self, elapsed: float, nbytes: int, ok: bool) -> None:
        self.count += 1
        if not ok:
            self.errors += 1
        self.total_time += elapsed
        if elapsed < self.min_time:
            self.min_time = elapsed
        if elapsed > self.max_time:
            self.max_time = elapsed
        self.total_bytes += nbytes

    @property
    def mean_time(self) -> float:
        return self.total_time / self.count if self.count else 0.0

    def merge(self, other: "OpStats") -> None:
        self.count += other.count
        self.errors += other.errors
        self.retries += other.retries
        self.faults_injected += other.faults_injected
        self.total_time += other.total_time
        # ``min``/``max`` without the builtin calls: the same results, as
        # ``min(a, b)`` keeps ``a`` unless ``b < a``.
        if other.min_time < self.min_time:
            self.min_time = other.min_time
        if other.max_time > self.max_time:
            self.max_time = other.max_time
        self.total_bytes += other.total_bytes

    def as_dict(self) -> Dict[str, float]:
        """JSON-safe snapshot (``min_time`` of ``inf`` round-trips fine —
        Python's json module emits and parses ``Infinity``)."""
        return {
            "count": self.count,
            "errors": self.errors,
            "retries": self.retries,
            "faults_injected": self.faults_injected,
            "total_time": self.total_time,
            "min_time": self.min_time,
            "max_time": self.max_time,
            "total_bytes": self.total_bytes,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "OpStats":
        return cls(
            count=int(data["count"]),
            errors=int(data["errors"]),
            retries=int(data["retries"]),
            faults_injected=int(data["faults_injected"]),
            total_time=data["total_time"],
            min_time=data["min_time"],
            max_time=data["max_time"],
            total_bytes=int(data["total_bytes"]),
        )


#: The integer fields only a failed, retried or faulted op writes -> their
#: place in an :class:`OpColumn` ``tallies`` entry.
_TALLY_INDEX = {"errors": 0, "retries": 1, "faults_injected": 2}
#: What a slot with no ``tallies`` entry reads: no failure, retry or fault.
_NO_TALLIES = (0, 0, 0)
#: The rows a column starts every slot with: absent (``count`` -1 keeps it
#: out of the slot's view), and ``min_time`` +inf as in a fresh :class:`OpStats`.
_ABSENT_COUNTS = array("q", (-1, 0))
_FRESH_TIMES = array("d", (0.0, float("inf"), 0.0))


class OpColumn:
    """One op kind's accumulators, one row per client slot in ``[base, stop)``.

    ``op`` names the kind (the driver's ``rpc`` span reads it from here).

    Row ``slot - base`` of ``counts`` (``array('q')``, two per row:
    ``count``, ``total_bytes``) and of ``times`` (``array('d')``, three per
    row: ``total_time``, ``min_time``, ``max_time``) holds what every op of
    that slot writes.  ``errors``, ``retries`` and ``faults_injected`` are
    zero for nearly every row, so they live in ``tallies``, a ``{slot:
    [errors, retries, faults_injected]}`` dict made when the column's first
    failure, retry or fault is counted (None until then).  A row whose
    ``count`` is -1 is *absent*: the column covers its slot only because a
    lower and a higher slot use the op, and the slot's view leaves it out.
    """

    __slots__ = ("op", "base", "stop", "counts", "times", "tallies")

    def __init__(self, op: str) -> None:
        self.op = op
        self.base = self.stop = 0
        self.counts = array("q")
        self.times = array("d")
        self.tallies = None

    def open(self, slot: int) -> None:
        """Give ``slot`` a present row (absent rows fill any gap): from here
        on its view shows the op, with ``count`` 0 while the first is in
        flight.  An empty column starts at ``slot``."""
        if not self.counts:
            self.base = self.stop = slot
        if slot >= self.stop:
            # A client newer than every user so far -- the common case, an
            # IOR wave's next rank -- appends one copy of the templates.
            gap = slot + 1 - self.stop
            if gap == 1:
                self.counts += _ABSENT_COUNTS
                self.times += _FRESH_TIMES
            else:
                self.counts += _ABSENT_COUNTS * gap
                self.times += _FRESH_TIMES * gap
            self.stop = slot + 1
        elif slot < self.base:
            gap = self.base - slot
            self.counts[0:0] = _ABSENT_COUNTS * gap
            self.times[0:0] = _FRESH_TIMES * gap
            self.base = slot
        row = (slot - self.base) * 2
        if self.counts[row] < 0:
            self.counts[row] = 0

    def observe(self, slot: int, elapsed: float, nbytes: int, ok: bool) -> None:
        """:meth:`OpStats.observe` on ``slot``'s row: the same floating-point
        operations in the same order (the first ``total_time`` is ``+0.0 +
        elapsed``, which is ``elapsed`` itself for every ``elapsed >= +0.0``)."""
        index = slot - self.base
        counts = self.counts
        row = index * 2
        counts[row] += 1
        if nbytes:  # most metadata ops move none: skip an element read and write
            counts[row + 1] += nbytes
        if not ok:  # inline, not a call: a failed op pays no extra frame
            tallies = self.tallies
            if tallies is None:
                self.tallies = tallies = {}
            if slot in tallies:
                tallies[slot][0] += 1
            else:
                tallies[slot] = [1, 0, 0]
        times = self.times
        row = index * 3
        times[row] += elapsed
        if elapsed < times[row + 1]:
            times[row + 1] = elapsed
        if elapsed > times[row + 2]:
            times[row + 2] = elapsed


class OpTable(dict):
    """Every client's per-op accumulators in one system: ``{op: OpColumn}``.

    Each client takes the next integer slot (``n_slots`` counts them); its
    ``op_metrics`` is a view of its rows.  Looking up an op not seen before
    makes its column, so the op driver finds a column with one subscript.
    """

    __slots__ = ("n_slots",)

    def __init__(self) -> None:
        super().__init__()
        self.n_slots = 0

    def __missing__(self, op: str) -> OpColumn:
        column = self[op] = OpColumn(op)
        return column

    def tally(self, op: str, slot: int, field: str) -> None:
        """Add one to ``field`` (``errors``, ``retries`` or
        ``faults_injected``) of ``slot``'s accumulator for ``op``, a
        launched op: its entry in the column's ``tallies``."""
        column = self[op]
        tallies = column.tallies
        if tallies is None:
            column.tallies = tallies = {}
        if slot in tallies:
            entry = tallies[slot]
        else:
            tallies[slot] = entry = [0, 0, 0]
        entry[_TALLY_INDEX[field]] += 1

    def faults(self, slot: int) -> int:
        """Faults injected into ``slot``'s ops, summed over every op kind."""
        total = 0
        for column in self.values():
            tallies = column.tallies
            if tallies is not None and slot in tallies:
                total += tallies[slot][2]
        return total

    def view(self, slot: int) -> Dict[str, OpStats]:
        """``slot``'s accumulators as a fresh ``{op: OpStats}`` dict, in the
        order the system first used each op; ops the slot never launched are
        left out."""
        stats = {}
        for op, column in self.items():
            base = column.base
            if base <= slot < column.stop:
                counts = column.counts
                row = (slot - base) * 2
                if counts[row] >= 0:
                    times = column.times
                    at = (slot - base) * 3
                    tallies = column.tallies
                    errors, retries, faults = (
                        tallies[slot] if tallies is not None and slot in tallies
                        else _NO_TALLIES
                    )
                    stats[op] = OpStats(
                        counts[row], errors, retries, faults,
                        times[at], times[at + 1], times[at + 2], counts[row + 1],
                    )
        return stats


def merge_op_stats(stats_dicts: Iterable[Dict[str, OpStats]]) -> Dict[str, OpStats]:
    """Merge per-client ``op_metrics`` dicts into one aggregate view."""
    merged: Dict[str, OpStats] = {}
    for stats in stats_dicts:
        for op, entry in stats.items():
            slot = merged.get(op)
            if slot is None:
                merged[op] = slot = OpStats()
            slot.merge(entry)
    return merged


def fault_fires(config, address, op: str, sequence: int) -> bool:
    """Whether attempt ``sequence`` of the client at ``address`` faults on ``op``.

    The seeded fault schedule (§7's instabilities, on demand): a pure
    function of the :class:`~repro.config.FaultInjectionConfig` seed, the
    client's address, the op kind and the client's attempt sequence number,
    independent of wall clock and of every other random stream, so a faulty
    run is exactly reproducible.  ``max_faults`` is the caller's to check.
    """
    if config.ops and op not in config.ops:
        return False
    token = f"{config.seed}/{address.node}.{address.socket}/{op}/{sequence}"
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    fraction = int.from_bytes(digest[:8], "little") / float(1 << 64)
    return fraction < config.rate
