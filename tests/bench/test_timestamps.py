"""IoRecord / TimestampLog invariants."""

import hashlib

import pytest

from repro.bench.timestamps import IoEvent, IoRecord, TimestampLog


def record(rank=0, iteration=0, op="write", start=0.0, end=1.0, size=100):
    return IoRecord(
        node=0, rank=rank, iteration=iteration, op=op, size=size,
        io_start=start, io_end=end,
    )


def test_duration():
    assert record(start=1.0, end=3.5).duration == 2.5


def test_event_vocabulary_is_complete():
    names = {e.value for e in IoEvent}
    assert names == {
        "execution_start", "io_start", "open_start", "open_end",
        "transfer_start", "transfer_end", "close_start", "close_end",
        "io_end", "execution_end",
    }


def test_validate_accepts_ordered_events():
    full = IoRecord(
        node=0, rank=0, iteration=0, op="write", size=10,
        io_start=0.0, open_start=0.0, open_end=0.1,
        transfer_start=0.1, transfer_end=0.8,
        close_start=0.8, close_end=0.9, io_end=0.9,
    )
    full.validate()


def test_validate_rejects_out_of_order():
    bad = IoRecord(
        node=0, rank=0, iteration=0, op="write", size=10,
        io_start=1.0, io_end=0.5,
    )
    with pytest.raises(ValueError, match="precedes"):
        bad.validate()


def test_validate_skips_absent_inner_events():
    record(start=0.0, end=1.0).validate()


def test_log_grouping_and_totals():
    log = TimestampLog()
    log.add(record(rank=0, iteration=0, size=10))
    log.add(record(rank=1, iteration=0, size=20))
    log.add(record(rank=0, iteration=1, op="read", size=30))
    assert len(log) == 3
    assert log.total_bytes == 60
    groups = log.by_iteration()
    assert sorted(groups) == [0, 1]
    assert len(groups[0]) == 2
    writes = log.by_op("write")
    assert len(writes) == 2
    assert writes.total_bytes == 30


def test_span():
    log = TimestampLog()
    log.add(record(start=1.0, end=2.0))
    log.add(record(start=0.5, end=1.5))
    assert log.span == (0.5, 2.0)
    with pytest.raises(ValueError):
        TimestampLog().span


def test_extend_and_iter():
    log = TimestampLog()
    records = [record(rank=r) for r in range(3)]
    log.extend(records)
    assert list(log) == records


def _reference_digest(log):
    """The renderer ``TimestampLog.digest`` replaced, kept as its oracle."""

    def fmt(value):
        return "-" if value is None else float(value).hex()

    hasher = hashlib.sha256()
    hasher.update(f"{fmt(log.execution_start)}|{fmt(log.execution_end)}\n".encode())
    for r in log.records:
        hasher.update(
            f"{r.node}|{r.rank}|{r.iteration}|{r.op}|{r.size}|"
            f"{fmt(r.io_start)}|{fmt(r.io_end)}|"
            f"{fmt(r.open_start)}|{fmt(r.open_end)}|"
            f"{fmt(r.transfer_start)}|{fmt(r.transfer_end)}|"
            f"{fmt(r.close_start)}|{fmt(r.close_end)}\n".encode()
        )
    return hasher.hexdigest()


@pytest.mark.parametrize("bounds", [(None, None), (0.0, 7), (0.25, None)])
def test_digest_bytes_are_pinned(bounds):
    """Inline rendering keeps every byte: ``None`` renders "-", an ``int``
    timestamp renders as its float."""
    full = IoRecord(
        node=1, rank=3, iteration=2, op="read", size=4096,
        io_start=0.5, io_end=2.75, open_start=0.5, open_end=0.625,
        transfer_start=0.625, transfer_end=2.5, close_start=2.5, close_end=2.75,
    )
    partial = IoRecord(
        node=0, rank=7, iteration=0, op="write", size=10,
        io_start=1, io_end=1.0000000000000002, transfer_start=1.0,
    )
    log = TimestampLog(
        records=[full, partial, record(start=-0.0, end=1e-300)],
        execution_start=bounds[0], execution_end=bounds[1],
    )
    assert log.digest() == _reference_digest(log)
    assert TimestampLog().digest() == _reference_digest(TimestampLog())
