"""Event lifecycle and composite conditions."""

import pytest

from repro.simulation import AllOf, ConditionValue


def test_event_lifecycle(sim):
    event = sim.event()
    assert not event.triggered and not event.processed
    event.succeed(41)
    assert event.triggered and not event.processed
    sim.run()
    assert event.processed
    assert event.value == 41


def test_value_before_trigger_raises(sim):
    with pytest.raises(RuntimeError, match="not yet available"):
        sim.event().value


def test_double_trigger_rejected(sim):
    event = sim.event()
    event.succeed(1)
    with pytest.raises(RuntimeError, match="already been triggered"):
        event.succeed(2)
    with pytest.raises(RuntimeError, match="already been triggered"):
        event.fail(ValueError())


def test_fail_requires_exception(sim):
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")


def test_callback_after_processed_runs_immediately(sim):
    event = sim.event()
    event.succeed("x")
    sim.run()
    seen = []
    event.add_callback(lambda e: seen.append(e.value))
    assert seen == ["x"]


def test_timeout_carries_value(sim):
    timeout = sim.timeout(1.0, value="payload")
    sim.run()
    assert timeout.value == "payload"


def test_all_of_waits_for_every_event(sim):
    t1, t2 = sim.timeout(1.0, value="a"), sim.timeout(2.0, value="b")
    combo = AllOf(sim, [t1, t2])
    sim.run()
    assert combo.processed
    value = combo.value
    assert isinstance(value, ConditionValue)
    assert value[t1] == "a" and value[t2] == "b"
    assert value.values() == ["a", "b"]


def test_empty_all_of_triggers_immediately(sim):
    combo = AllOf(sim, [])
    assert combo.triggered
    sim.run()
    assert combo.value.todict() == {}


def test_all_of_fails_when_member_fails(sim):
    ok = sim.timeout(2.0)
    failing = sim.event()
    combo = AllOf(sim, [ok, failing])
    combo.defuse()
    failing.fail(ValueError("member"))
    sim.run()
    assert combo.triggered and not combo.ok
    assert isinstance(combo.value, ValueError)


def test_condition_rejects_foreign_events(sim):
    from repro.simulation import Simulator

    other = Simulator()
    with pytest.raises(ValueError, match="share a simulator"):
        AllOf(sim, [sim.event(), other.event()])


def test_condition_value_mapping_protocol(sim):
    t1 = sim.timeout(1.0, value=10)
    combo = AllOf(sim, [t1])
    sim.run()
    value = combo.value
    assert len(value) == 1
    assert list(value) == [t1]
    assert value.keys() == [t1]
    assert value.items() == [(t1, 10)]
    assert value == {t1: 10}
    with pytest.raises(KeyError):
        value[sim.event()]
