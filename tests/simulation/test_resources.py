"""Resource and Store semantics."""

import pytest

from repro.simulation import Resource, Store


def holder(sim, resource, name, hold, log):
    request = resource.request()
    yield request
    log.append(("acquired", name, sim.now))
    yield sim.timeout(hold)
    resource.release(request)
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
    first = resource.request()
    second = resource.request()
    assert resource.in_use == 1
    assert resource.queue_length == 1
    assert first.triggered and not second.triggered
    resource.release(first)
    assert second.triggered


def test_never_contended_resource_holds_no_queue(sim):
    resource = Resource(sim, capacity=1)
    granted = resource.request()
    assert resource._waiters is None and resource.queue_length == 0
    resource.release(granted)
    assert resource.try_acquire()
    resource.release_direct()
    assert resource._waiters is None and resource.in_use == 0
    held, queued = resource.request(), resource.request()
    assert resource._waiters is not None and resource.queue_length == 1
    resource.release(held)
    assert queued.triggered and resource.queue_length == 0


def test_release_idle_resource_rejected(sim):
    resource = Resource(sim, capacity=1)
    granted = resource.request()
    resource.release(granted)
    with pytest.raises(RuntimeError, match="idle"):
        resource.release(granted)


def test_cancel_queued_request(sim):
    resource = Resource(sim, capacity=1)
    held = resource.request()
    queued = resource.request()
    resource.release(queued)  # cancel while still queued
    assert resource.queue_length == 0
    resource.release(held)
    assert resource.in_use == 0


def test_cancel_foreign_request_rejected(sim):
    resource = Resource(sim, capacity=1)
    resource.request()
    foreign = sim.event()
    with pytest.raises(RuntimeError, match="not issued here"):
        resource.release(foreign)


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
