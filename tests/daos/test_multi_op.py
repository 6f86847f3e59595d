"""Vectorized multi-op submission: stats, timeline and QoS metering.

``submit_multi`` batches N sub-requests into one launch and one traversal
of the middleware stages.  On the default stages the simulated timeline is
contractually identical to
submitting the ops one by one, per-op stats land in the same slots, and a
QoS middleware covering the sub-ops meters the same token count — batching
saves bookkeeping, never accounting.
"""

import pytest

from repro.backends.registry import BACKENDS, build_deployment
from repro.config import ClusterConfig
from repro.daos.errors import ServiceBusyError
from repro.daos.objclass import OC_SX
from repro.daos.oid import ObjectId
from repro.daos.rpc import TracingMiddleware
from repro.serving.qos import QosAdmissionMiddleware, QosPolicy
from tests.conftest import run_process

KV_OID = ObjectId.from_user(0, 0x51)
N_KEYS = 12


def make_env(backend="daos", **config_kwargs):
    config_kwargs.setdefault("n_server_nodes", 1)
    config_kwargs.setdefault("n_client_nodes", 1)
    config_kwargs.setdefault("seed", 7)
    cluster, system, pool = build_deployment(
        ClusterConfig(**config_kwargs), backend=backend
    )
    client = system.make_client(cluster.client_addresses(1)[0])
    return cluster, system, pool, client


def _items(n=N_KEYS):
    return [(b"k%03d" % i, b"value-%03d" % i) for i in range(n)]


@pytest.mark.parametrize("backend", BACKENDS)
def test_kv_put_get_many_roundtrip(backend):
    cluster, _system, pool, client = make_env(backend)

    def flow():
        container = yield from client.container_create(pool, label="c")
        kv = yield from client.kv_open(container, KV_OID, OC_SX)
        yield from client.kv_put_many(kv, _items())
        keys = [key for key, _value in _items()]
        values = yield from client.kv_get_many(kv, keys + [b"absent"])
        return values

    values = run_process(cluster, flow())
    assert values == [value for _key, value in _items()] + [None]


def test_multi_op_preserves_per_op_stats():
    cluster, _system, pool, client = make_env()

    def flow():
        container = yield from client.container_create(pool, label="c")
        kv = yield from client.kv_open(container, KV_OID, OC_SX)
        yield from client.kv_put_many(kv, _items())
        yield from client.kv_get_many(kv, [key for key, _ in _items()])

    run_process(cluster, flow())
    # Sub-ops counted individually, the wrapper once under its own op.
    assert client.stats["kv_put"] == N_KEYS
    assert client.stats["kv_get"] == N_KEYS
    assert client.stats["kv_put_multi"] == 1
    assert client.stats["kv_get_multi"] == 1
    assert client.op_metrics["kv_put"].count == N_KEYS
    assert client.op_metrics["kv_get"].count == N_KEYS


def test_multi_op_timeline_identical_to_sequential():
    def run(batched):
        cluster, _system, pool, client = make_env()

        def flow():
            container = yield from client.container_create(pool, label="c")
            kv = yield from client.kv_open(container, KV_OID, OC_SX)
            if batched:
                yield from client.kv_put_many(kv, _items())
                values = yield from client.kv_get_many(
                    kv, [key for key, _ in _items()]
                )
            else:
                for key, value in _items():
                    yield from client.kv_put(kv, key, value)
                values = []
                for key, _value in _items():
                    values.append((yield from client.kv_get_or_none(kv, key)))
            return cluster.sim.now, values

        return run_process(cluster, flow())

    assert run(True) == run(False)


def test_empty_multi_submit():
    cluster, _system, _pool, client = make_env()

    def flow():
        results = yield from client.submit_multi([], op="noop_multi")
        return results

    assert run_process(cluster, flow()) == []
    assert client.stats["noop_multi"] == 1


def _qos_client(rate=4.0, burst=2.0, max_queue_depth=0):
    cluster, system, pool = build_deployment(
        ClusterConfig(n_server_nodes=1, n_client_nodes=1, seed=7)
    )
    qos = QosAdmissionMiddleware(
        "tenant",
        QosPolicy(rate=rate, burst=burst, max_queue_depth=max_queue_depth),
        ops=("kv_put",),
    )
    client = system.make_client(
        cluster.client_addresses(1)[0],
        middleware=[qos, TracingMiddleware()],
    )
    return cluster, pool, client, qos


def test_qos_meters_one_token_per_covered_sub_op():
    cluster, pool, client, qos = _qos_client(burst=float(N_KEYS))

    def flow():
        container = yield from client.container_create(pool, label="c")
        kv = yield from client.kv_open(container, KV_OID, OC_SX)
        yield from client.kv_put_many(kv, _items())
        # Gets are uncovered: the batch passes through unmetered.
        yield from client.kv_get_many(kv, [key for key, _ in _items()])

    run_process(cluster, flow())
    assert qos.admitted == N_KEYS


def test_qos_sheds_whole_batch_and_refunds_all_tokens():
    cluster, pool, client, qos = _qos_client(rate=1.0, burst=2.0)

    def flow():
        container = yield from client.container_create(pool, label="c")
        kv = yield from client.kv_open(container, KV_OID, OC_SX)
        try:
            yield from client.kv_put_many(kv, _items())
        except ServiceBusyError:
            pass
        else:
            raise AssertionError("expected the over-burst batch to shed")
        # The shed refunded every reserved token: a batch the burst can
        # cover is admitted immediately afterwards.
        yield from client.kv_put_many(kv, _items(2))

    run_process(cluster, flow())
    assert qos.shed == 1
    assert qos.admitted == 2
    assert qos.bucket.waiting_debt == 0
