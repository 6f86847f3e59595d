"""Per-I/O event timestamps (§5.5).

The paper's benchmarks record, per client node / process / iteration:
execution start, I/O start, object open start/end, data transfer start/end,
object close start/end, I/O end, and execution end.  :class:`IoRecord`
carries one I/O's timestamps; :class:`TimestampLog` collects them across all
processes of a run and offers the groupings the §5.5 metrics need.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["IoEvent", "IoRecord", "TimestampLog"]


class IoEvent(Enum):
    """The §5.5 event vocabulary."""

    EXECUTION_START = "execution_start"
    IO_START = "io_start"
    OPEN_START = "open_start"
    OPEN_END = "open_end"
    TRANSFER_START = "transfer_start"
    TRANSFER_END = "transfer_end"
    CLOSE_START = "close_start"
    CLOSE_END = "close_end"
    IO_END = "io_end"
    EXECUTION_END = "execution_end"


@dataclass(slots=True)
class IoRecord:
    """Timestamps of one I/O operation by one process.

    ``io_start``/``io_end`` are always present; the inner events are filled
    by benchmarks that expose them (IOR does, Field I/O treats the whole
    field function as the I/O — §5.5: "In Field I/O, I/O start is recorded
    immediately before calling the field write or read functions").
    """

    node: int
    rank: int
    iteration: int
    op: str  # "write" | "read"
    size: int
    io_start: float
    io_end: float
    open_start: Optional[float] = None
    open_end: Optional[float] = None
    transfer_start: Optional[float] = None
    transfer_end: Optional[float] = None
    close_start: Optional[float] = None
    close_end: Optional[float] = None

    @property
    def duration(self) -> float:
        return self.io_end - self.io_start

    def validate(self) -> None:
        """Check the event ordering invariants."""
        sequence = [
            ("io_start", self.io_start),
            ("open_start", self.open_start),
            ("open_end", self.open_end),
            ("transfer_start", self.transfer_start),
            ("transfer_end", self.transfer_end),
            ("close_start", self.close_start),
            ("close_end", self.close_end),
            ("io_end", self.io_end),
        ]
        previous_name, previous_time = None, None
        for name, time in sequence:
            if time is None:
                continue
            if previous_time is not None and time < previous_time:
                raise ValueError(
                    f"event {name} at {time} precedes {previous_name} at "
                    f"{previous_time} (rank {self.rank}, iter {self.iteration})"
                )
            previous_name, previous_time = name, time


@dataclass
class TimestampLog:
    """All I/O records of one benchmark run plus run-level timestamps."""

    records: List[IoRecord] = field(default_factory=list)
    execution_start: Optional[float] = None
    execution_end: Optional[float] = None

    def add(self, record: IoRecord) -> None:
        self.records.append(record)

    def extend(self, records: List[IoRecord]) -> None:
        self.records.extend(records)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[IoRecord]:
        return iter(self.records)

    # -- groupings used by the metrics ------------------------------------------
    def by_op(self, op: str) -> "TimestampLog":
        """Sub-log of the given operation kind ('write' or 'read')."""
        sub = TimestampLog(
            records=[r for r in self.records if r.op == op],
            execution_start=self.execution_start,
            execution_end=self.execution_end,
        )
        return sub

    def by_iteration(self) -> Dict[int, List[IoRecord]]:
        """Records grouped by iteration index."""
        groups: Dict[int, List[IoRecord]] = {}
        for record in self.records:
            groups.setdefault(record.iteration, []).append(record)
        return groups

    @property
    def total_bytes(self) -> int:
        return sum(r.size for r in self.records)

    @property
    def span(self) -> Tuple[float, float]:
        """(min io_start, max io_end) across all records."""
        if not self.records:
            raise ValueError("empty timestamp log has no span")
        return (
            min(r.io_start for r in self.records),
            max(r.io_end for r in self.records),
        )

    def validate(self) -> None:
        for record in self.records:
            record.validate()

    def digest(self) -> str:
        """Bit-exact SHA-256 fingerprint of the whole log.

        Every timestamp is rendered with ``float.hex()`` so two logs share a
        digest if and only if they are bit-identical (record order included).
        Used by the determinism regression tests to guard kernel changes.
        """

        def fmt(value: Optional[float]) -> str:
            return "-" if value is None else float(value).hex()

        # One rendered line and one ``update`` per record.  Joining the whole
        # log into one buffer first hashes no faster and, at the end of an
        # IOR wave, holds a second copy of the log at the pass's peak memory.
        hasher = hashlib.sha256()
        update = hasher.update
        update(f"{fmt(self.execution_start)}|{fmt(self.execution_end)}\n".encode())
        for r in self.records:
            update(
                f"{r.node}|{r.rank}|{r.iteration}|{r.op}|{r.size}|"
                f"{fmt(r.io_start)}|{fmt(r.io_end)}|"
                f"{fmt(r.open_start)}|{fmt(r.open_end)}|"
                f"{fmt(r.transfer_start)}|{fmt(r.transfer_end)}|"
                f"{fmt(r.close_start)}|{fmt(r.close_end)}\n".encode()
            )
        return hasher.hexdigest()
