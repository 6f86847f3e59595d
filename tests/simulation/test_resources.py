"""Resource and Store semantics."""

import pytest

from repro.simulation import Resource, Store
from repro.simulation.events import Wake
from tests.conftest import claim


def holder(sim, resource, name, hold, log):
    yield resource.slot
    log.append(("acquired", name, sim.now))
    yield hold
    resource.release()
    log.append(("released", name, sim.now))


def test_capacity_must_be_positive(sim):
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_fifo_granting(sim):
    resource = Resource(sim, capacity=1)
    log = []
    for name in ("a", "b", "c"):
        sim.process(holder(sim, resource, name, 1.0, log))
    sim.run()
    acquisitions = [entry for entry in log if entry[0] == "acquired"]
    assert acquisitions == [
        ("acquired", "a", 0.0),
        ("acquired", "b", 1.0),
        ("acquired", "c", 2.0),
    ]


def test_multi_slot_concurrency(sim):
    resource = Resource(sim, capacity=2)
    log = []
    for name in ("a", "b", "c"):
        sim.process(holder(sim, resource, name, 1.0, log))
    sim.run()
    acquired_at = {name: t for kind, name, t in log if kind == "acquired"}
    assert acquired_at["a"] == 0.0
    assert acquired_at["b"] == 0.0
    assert acquired_at["c"] == 1.0


def test_in_use_and_queue_length(sim):
    resource = Resource(sim, capacity=1)
    second = Wake(lambda wake: None)
    assert claim(resource.slot)
    assert claim(resource.slot, second) is False
    assert resource.in_use == 1
    assert resource.queue_length == 1
    assert second not in sim._live
    resource.release()
    # The slot passes straight to the waiter, whose wake is now due.
    assert resource.in_use == 1 and resource.queue_length == 0
    assert list(sim._live) == [second]


def test_never_contended_resource_holds_no_queue(sim):
    resource = Resource(sim, capacity=1)
    assert claim(resource.slot)
    assert resource._waiters is None and resource.queue_length == 0
    resource.release()
    assert resource._waiters is None and resource.in_use == 0
    assert claim(resource.slot) and not claim(resource.slot)
    assert resource._waiters is not None and resource.queue_length == 1
    resource.release()
    assert resource.queue_length == 0 and len(sim._live) == 1


def test_release_idle_resource_rejected(sim):
    resource = Resource(sim, capacity=1)
    assert claim(resource.slot)
    resource.release()
    with pytest.raises(RuntimeError, match="idle"):
        resource.release()


def test_unsettled_free_claim_resumes_after_the_entry_already_due(sim):
    """A free slot claimed while another entry is due at the same instant
    is granted behind that entry, where a grant event was appended."""
    resource = Resource(sim, capacity=1)
    log = []

    def claimant():
        yield 1.0
        sim.timeout(0.0).add_callback(lambda event: log.append("already due"))
        yield resource.slot
        log.append("granted")
        resource.release()

    sim.process(claimant())
    sim.run()
    assert log == ["already due", "granted"]


def test_released_waiter_resumes_before_later_entries(sim):
    """The waiter a release hands the slot to resumes ahead of everything
    scheduled at that instant after the release."""
    resource = Resource(sim, capacity=1)
    log = []

    def first():
        yield resource.slot
        yield 1.0
        resource.release()
        sim.timeout(0.0).add_callback(lambda event: log.append(("after release", sim.now)))

    def waiter():
        yield resource.slot
        log.append(("waiter", sim.now))
        resource.release()

    sim.process(first())
    sim.process(waiter())
    sim.run()
    assert log == [("waiter", 1.0), ("after release", 1.0)]


def test_store_put_then_get(sim):
    store = Store(sim)
    store.put("item")
    assert len(store) == 1
    got = store.get()
    assert got.triggered and got.value == "item"
    assert len(store) == 0


def test_store_get_blocks_until_put(sim):
    store = Store(sim)
    results = []

    def consumer(sim, store):
        item = yield store.get()
        results.append((item, sim.now))

    def producer(sim, store):
        yield sim.timeout(3.0)
        store.put("late")

    sim.process(consumer(sim, store))
    sim.process(producer(sim, store))
    sim.run()
    assert results == [("late", 3.0)]


def test_store_fifo_order(sim):
    store = Store(sim)
    for i in range(3):
        store.put(i)
    got = [store.get().value for _ in range(3)]
    assert got == [0, 1, 2]


def test_store_fifo_getters(sim):
    store = Store(sim)
    first = store.get()
    second = store.get()
    store.put("x")
    assert first.triggered and first.value == "x"
    assert not second.triggered
