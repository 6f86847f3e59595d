"""Vectorized multi-ops: stats, timeline and QoS metering.

``kv_put_many`` / ``kv_get_many`` batch N sub-ops, over any number of KVs,
into one launch and one pass of the client's policy.  With no policy the
simulated timeline is contractually identical to launching the ops one by
one, per-op stats land in the same slots, and a QoS admission covering the
sub-ops meters the same token count -- batching saves bookkeeping, never
accounting.
"""

import pytest

from repro.backends.registry import BACKENDS, build_deployment
from repro.config import ClusterConfig
from repro.daos.errors import ServiceBusyError
from repro.daos.objclass import OC_SX
from repro.daos.client import DaosClient
from repro.daos.oid import ObjectId
from repro.serving.qos import QosAdmission, QosPolicy
from tests.conftest import run_process
from tests.daos.test_fast_path import _assert_pooled

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


def _items(kv, n=N_KEYS):
    """``kv_put_many`` entries: ``n`` keys of ``kv``."""
    return [(kv, b"k%03d" % i, b"value-%03d" % i) for i in range(n)]


def _lookups(kv, n=N_KEYS):
    """``kv_get_many`` entries for the keys of :func:`_items`."""
    return [(kv, key) for _, key, _ in _items(kv, n)]


@pytest.mark.parametrize("backend", BACKENDS)
def test_kv_put_get_many_roundtrip(backend):
    cluster, _system, pool, client = make_env(backend)

    def flow():
        container = yield from client.container_create(pool, label="c")
        kv = yield from client.kv_open(container, KV_OID, OC_SX)
        other = yield from client.kv_open(container, ObjectId.from_user(0, 0x52), OC_SX)
        # One batch may span several KVs, as FieldIO's span forecasts.
        yield from client.kv_put_many(_items(kv) + [(other, b"k000", b"other")])
        values = yield from client.kv_get_many(
            _lookups(kv) + [(kv, b"absent"), (other, b"k000")]
        )
        return values

    values = run_process(cluster, flow())
    assert values == [value for _kv, _key, value in _items(None)] + [None, b"other"]


def test_multi_op_preserves_per_op_stats():
    cluster, _system, pool, client = make_env()

    def flow():
        container = yield from client.container_create(pool, label="c")
        kv = yield from client.kv_open(container, KV_OID, OC_SX)
        yield from client.kv_put_many(_items(kv))
        yield from client.kv_get_many(_lookups(kv))

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
                yield from client.kv_put_many(_items(kv))
                values = yield from client.kv_get_many(_lookups(kv))
            else:
                for entry in _items(kv):
                    yield from client.kv_put(*entry)
                values = []
                for entry in _lookups(kv):
                    values.append((yield from client.kv_get_or_none(*entry)))
            return cluster.sim.now, values

        return run_process(cluster, flow())

    assert run(True) == run(False)


def test_empty_multi_submit():
    cluster, _system, _pool, client = make_env()

    def flow():
        results = yield from client.kv_put_many([])
        return results

    assert run_process(cluster, flow()) == []
    assert client.stats["kv_put_multi"] == 1


class Boom(RuntimeError):
    pass


def _boom_after_first_leg():
    yield 1e-6
    raise Boom("after the first leg")


def _boom_before_first_wait():
    raise Boom("before the first wait")
    yield  # pragma: no cover - makes this a generator


@pytest.mark.parametrize("body", [_boom_after_first_leg, _boom_before_first_wait])
def test_failed_sub_op_accounting(body, monkeypatch):
    """A sub-op failing mid-batch: what ran is counted, what did not is not,
    and every driver the batch launched is handed back."""
    cluster, system, pool, client = make_env()
    put = DaosClient._do_kv_put

    def failing_put(self, kv, key, value):
        return body() if key == b"boom" else put(self, kv, key, value)

    monkeypatch.setattr(DaosClient, "_do_kv_put", failing_put)

    def flow():
        container = yield from client.container_create(pool, label="c")
        kv = yield from client.kv_open(container, KV_OID, OC_SX)
        batch = [(kv, b"first", b"1"), (kv, b"boom", b"2"), (kv, b"third", b"3")]
        with pytest.raises(Boom):
            yield from client.kv_put_many(batch)
        return kv

    kv = run_process(cluster, flow())
    assert list(kv.keys()) == [b"first"]
    metrics = client.op_metrics
    assert client.stats["kv_put"] == metrics["kv_put"].count == 2
    assert metrics["kv_put"].errors == 1
    assert metrics["kv_put_multi"].count == metrics["kv_put_multi"].errors == 1
    _assert_pooled(system)


def _qos_client(rate=4.0, burst=2.0, max_queue_depth=0):
    cluster, system, pool = build_deployment(
        ClusterConfig(n_server_nodes=1, n_client_nodes=1, seed=7)
    )
    qos = QosAdmission(
        "tenant",
        QosPolicy(rate=rate, burst=burst, max_queue_depth=max_queue_depth),
        ops=("kv_put",),
    )
    client = system.make_client(cluster.client_addresses(1)[0], middleware=qos)
    return cluster, pool, client, qos


def test_qos_meters_one_token_per_covered_sub_op():
    cluster, pool, client, qos = _qos_client(burst=float(N_KEYS))

    def flow():
        container = yield from client.container_create(pool, label="c")
        kv = yield from client.kv_open(container, KV_OID, OC_SX)
        yield from client.kv_put_many(_items(kv))
        # Gets are uncovered: the batch passes through unmetered.
        yield from client.kv_get_many(_lookups(kv))

    run_process(cluster, flow())
    assert qos.admitted == N_KEYS


def test_qos_sheds_whole_batch_and_refunds_all_tokens():
    cluster, pool, client, qos = _qos_client(rate=1.0, burst=2.0)

    def flow():
        container = yield from client.container_create(pool, label="c")
        kv = yield from client.kv_open(container, KV_OID, OC_SX)
        try:
            yield from client.kv_put_many(_items(kv))
        except ServiceBusyError:
            pass
        else:
            raise AssertionError("expected the over-burst batch to shed")
        # The shed refunded every reserved token: a batch the burst can
        # cover is admitted immediately afterwards.
        yield from client.kv_put_many(_items(kv, 2))

    run_process(cluster, flow())
    assert qos.shed == 1
    assert qos.admitted == 2
    assert qos.bucket.waiting_debt == 0


@pytest.mark.parametrize("batched", [True, False])
def test_all_ops_admission_meters_every_sub_op(batched):
    """An admission covering every op (``ops=None``) meters a batch's
    sub-ops, not the batch: twelve puts pay twelve tokens, batched or not."""
    cluster, system, pool = build_deployment(
        ClusterConfig(n_server_nodes=1, n_client_nodes=1, seed=7)
    )
    qos = QosAdmission("tenant", QosPolicy(rate=1e12, burst=1e12))
    client = system.make_client(cluster.client_addresses(1)[0], middleware=qos)

    def flow():
        container = yield from client.container_create(pool, label="c")
        kv = yield from client.kv_open(container, KV_OID, OC_SX)
        before = qos.admitted
        if batched:
            yield from client.kv_put_many(_items(kv))
        else:
            for entry in _items(kv):
                yield from client.kv_put(*entry)
        return qos.admitted - before

    assert run_process(cluster, flow()) == N_KEYS
