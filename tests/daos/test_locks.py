"""Readers-writer lock: sharing, exclusion, FIFO fairness."""

import pytest

from repro.daos.locks import RWLock


def reader(sim, lock, name, hold, log):
    yield lock.acquire_read()
    log.append(("r-in", name, sim.now))
    yield sim.timeout(hold)
    lock.release_read()
    log.append(("r-out", name, sim.now))


def writer(sim, lock, name, hold, log):
    yield lock.acquire_write()
    log.append(("w-in", name, sim.now))
    yield sim.timeout(hold)
    lock.release_write()
    log.append(("w-out", name, sim.now))


def test_readers_share(sim):
    lock = RWLock(sim)
    log = []
    for name in ("a", "b", "c"):
        sim.process(reader(sim, lock, name, 1.0, log))
    sim.run()
    entries = [e for e in log if e[0] == "r-in"]
    assert all(t == 0.0 for _, _, t in entries)
    assert sim.now == 1.0


def test_writer_excludes_readers(sim):
    lock = RWLock(sim)
    log = []
    sim.process(writer(sim, lock, "w", 2.0, log))
    sim.process(reader(sim, lock, "r", 1.0, log))
    sim.run()
    assert ("w-in", "w", 0.0) in log
    assert ("r-in", "r", 2.0) in log


def test_writers_exclude_each_other(sim):
    lock = RWLock(sim)
    log = []
    sim.process(writer(sim, lock, "w1", 1.0, log))
    sim.process(writer(sim, lock, "w2", 1.0, log))
    sim.run()
    ins = [t for kind, _, t in log if kind == "w-in"]
    assert ins == [0.0, 1.0]


def test_queued_writer_blocks_later_readers():
    """FIFO: a writer queued behind readers is serviced before readers that
    arrive after it (no writer starvation)."""
    from repro.simulation import Simulator

    sim = Simulator()
    lock = RWLock(sim)
    log = []

    def scenario(sim):
        sim.process(reader(sim, lock, "r1", 2.0, log))
        yield sim.timeout(0.5)
        sim.process(writer(sim, lock, "w", 2.0, log))
        yield sim.timeout(0.5)
        sim.process(reader(sim, lock, "r2", 1.0, log))

    sim.process(scenario(sim))
    sim.run()
    w_in = next(t for kind, _, t in log if kind == "w-in")
    r2_in = next(t for kind, name, t in log if kind == "r-in" and name == "r2")
    assert w_in == 2.0  # after r1 releases
    assert r2_in == 4.0  # after the writer


def test_reader_batch_admitted_together():
    from repro.simulation import Simulator

    sim = Simulator()
    lock = RWLock(sim)
    log = []

    def scenario(sim):
        sim.process(writer(sim, lock, "w", 1.0, log))
        yield sim.timeout(0.1)
        for name in ("r1", "r2", "r3"):
            sim.process(reader(sim, lock, name, 1.0, log))

    sim.process(scenario(sim))
    sim.run()
    reader_ins = [t for kind, _, t in log if kind == "r-in"]
    assert reader_ins == [1.0, 1.0, 1.0]


def test_release_without_hold_rejected(sim):
    lock = RWLock(sim)
    with pytest.raises(RuntimeError):
        lock.release_read()
    with pytest.raises(RuntimeError):
        lock.release_write()


def test_state_inspection(sim):
    lock = RWLock(sim)
    grant = lock.acquire_write()
    assert grant.triggered
    assert lock.write_locked
    assert lock.readers == 0
    lock.acquire_read()  # queued
    assert lock.queue_length == 1
    lock.release_write()
    assert not lock.write_locked
    assert lock.readers == 1


def _idle(sim):
    return RWLock(sim)


def _read_held(sim):
    lock = RWLock(sim)
    lock.acquire_read()
    return lock


def _write_held(sim):
    lock = RWLock(sim)
    lock.acquire_write()
    return lock


def _read_held_writer_queued(sim):
    lock = _read_held(sim)
    lock.acquire_write()
    return lock


def _write_held_reader_queued(sim):
    lock = _write_held(sim)
    lock.acquire_read()
    return lock


def _drained(sim):
    """Idle again after a waiter queued and was granted: the queue exists."""
    lock = _write_held_reader_queued(sim)
    lock.release_write()
    lock.release_read()
    return lock


LOCK_STATES = [_idle, _read_held, _write_held, _read_held_writer_queued,
               _write_held_reader_queued, _drained]


def _state(lock):
    return lock.readers, lock.write_locked, lock.queue_length


@pytest.mark.parametrize("make", LOCK_STATES, ids=lambda make: make.__name__.strip("_"))
def test_try_acquire_read_grants_exactly_when_acquire_read_does(sim, make):
    tried, acquired = make(sim), make(sim)
    before = _state(tried)
    granted = tried.try_acquire_read()
    grant = acquired.acquire_read()
    assert granted == grant.triggered
    if granted:
        assert _state(tried) == _state(acquired) == (before[0] + 1, False, before[2])
        tried.release_read()
        assert _state(tried) == before
    else:
        # A refused try leaves the lock untouched; acquire_read queued.
        assert _state(tried) == before
        assert _state(acquired) == (before[0], before[1], before[2] + 1)


def test_never_contended_lock_holds_no_queue(sim):
    lock = RWLock(sim)
    for _ in range(3):
        lock.acquire_write()
        lock.release_write()
        assert lock.try_acquire_read() and lock.try_acquire_write() is False
        lock.acquire_read()
        lock.release_read()
        lock.release_read()
    assert lock._queue is None and lock.queue_length == 0
    lock.acquire_write()
    lock.acquire_read()  # the first waiter makes the queue
    assert lock._queue is not None and lock.queue_length == 1


def test_name_is_rendered_only_when_read(sim):
    from repro.daos.oid import ObjectId

    oid = ObjectId(1, 2)
    lock = RWLock(sim, name=oid)
    assert lock.name == str(oid)
    with pytest.raises(RuntimeError, match=str(oid)):
        lock.release_write()
