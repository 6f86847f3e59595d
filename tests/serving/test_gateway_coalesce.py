"""Gateway miss coalescing."""

import dataclasses

from repro.serving import GatewayConfig
from repro.units import MiB
from repro.workloads.generator import serving_request

from tests.serving.test_gateway import N_FIELDS, deploy, serve


def test_new_knob_validation():
    """Six settable fields; coalescing is the only serve-path switch, on
    by default (the other fields are validated in ``test_gateway``)."""
    assert [f.name for f in dataclasses.fields(GatewayConfig)] == [
        "cache_capacity",
        "cache_ttl",
        "replication",
        "promote_threshold",
        "workers_per_tenant",
        "coalesce",
    ]
    assert GatewayConfig().coalesce and not GatewayConfig(coalesce=False).coalesce


def _concurrent_same_field(coalesce):
    cluster, gateway = deploy(
        GatewayConfig(cache_capacity=1 * MiB, coalesce=coalesce)
    )
    gateway.add_tenant("ops")
    sim = cluster.sim
    outcomes = []

    def _user():
        outcome = yield from gateway.serve("ops", serving_request(0, N_FIELDS))
        outcomes.append(outcome)

    for _ in range(3):
        sim.process(_user())
    sim.run()
    return gateway, outcomes


def test_concurrent_misses_coalesce_into_one_storage_read():
    gateway, outcomes = _concurrent_same_field(coalesce=True)
    # All three count the field as a miss (it was not cached when asked),
    # but only the leader touched storage: one cold read = 3 kv_gets
    # (catalogue, forecast index, entry).
    assert [o["misses"] for o in outcomes] == [1, 1, 1]
    assert gateway.coalesced == 2
    worker = gateway._tenants["ops"].workers[0]
    assert worker.client.stats["kv_get"] == 3
    assert gateway.stats()["coalesced"] == 2
    # The field is cached; a repeat is a pure hit.
    repeat = serve(gateway, "ops", serving_request(0, N_FIELDS))
    assert repeat == {"fields": 1, "hits": 1, "misses": 0, "shed": False}


def test_coalescing_off_reads_storage_per_request():
    gateway, outcomes = _concurrent_same_field(coalesce=False)
    assert [o["misses"] for o in outcomes] == [1, 1, 1]
    assert gateway.coalesced == 0
    worker = gateway._tenants["ops"].workers[0]
    assert worker.client.stats["kv_get"] > 3
