"""The RPC layer: requests, middleware, fault injection, retry, event queues."""

import dataclasses

import pytest

from repro.bench.report import format_rpc_breakdown
from repro.bench.runner import build_deployment
from repro.config import ClusterConfig, FaultInjectionConfig
from repro.daos.client import DaosClient, default_middleware
from repro.daos.eq import EventQueue
from repro.daos.errors import SimulatedFaultError
from repro.daos.kv import KeyValueObject
from repro.daos.rpc import (
    DATA_OPS,
    Middleware,
    OpStats,
    Request,
    merge_op_stats,
)
from repro.fdb.fieldio import FieldIO
from repro.fdb.key import FieldKey
from repro.workloads.fields import field_payload
from tests.conftest import run_process


def _faulty_config(rate=1.0, max_faults=None, max_attempts=3, ops=()):
    """A 1-server deployment with fault injection dialled in."""
    base = ClusterConfig(n_server_nodes=1, n_client_nodes=1, seed=7)
    daos = dataclasses.replace(
        base.daos,
        fault_injection=FaultInjectionConfig(
            enabled=True, rate=rate, seed=13, ops=tuple(ops), max_faults=max_faults
        ),
        retry=dataclasses.replace(base.daos.retry, max_attempts=max_attempts),
    )
    return dataclasses.replace(base, daos=daos)


@pytest.fixture
def faulty_deployment():
    return build_deployment(_faulty_config(rate=0.3))


def _open_kv(cluster, client, pool) -> KeyValueObject:
    def setup():
        container = yield from client.container_create(pool, label="c")
        kv = yield from client.kv_open(container, container.oid_allocator.allocate(1))
        return kv

    return run_process(cluster, setup())


# -- request plumbing ---------------------------------------------------------


def test_ops_flow_through_metrics_middleware(deployment, client):
    cluster, _system, pool = deployment
    kv = _open_kv(cluster, client, pool)
    run_process(cluster, client.kv_put(kv, b"k", b"v"))
    assert run_process(cluster, client.kv_get(kv, b"k")) == b"v"
    assert client.stats["kv_put"] == 1 and client.stats["kv_get"] == 1
    put = client.op_metrics["kv_put"]
    assert put.count == 1 and put.errors == 0
    assert put.total_bytes == 1  # payload size of b"v"
    assert 0 < put.min_time <= put.mean_time <= put.max_time


def test_request_kind_taxonomy():
    req = Request(op="array_write", body=lambda: iter(()))
    assert req.is_data and req.kind == "data"
    req = Request(op="kv_put", body=lambda: iter(()))
    assert not req.is_data and req.kind == "metadata"
    assert "array_read" in DATA_OPS


def test_custom_middleware_sees_every_request(deployment):
    cluster, system, pool = deployment

    class Recorder(Middleware):
        def __init__(self):
            self.ops = []

        def handle(self, client, request, call):
            self.ops.append(request.op)
            result = yield from call(client, request)
            return result

    recorder = Recorder()
    chain = [recorder] + default_middleware(system.config)
    client = DaosClient(system, cluster.client_addresses(1)[0], middleware=chain)
    kv = _open_kv(cluster, client, pool)
    run_process(cluster, client.kv_put(kv, b"k", b"v"))
    assert recorder.ops == ["container_create", "kv_open", "kv_put"]


def test_failed_op_counts_as_error(deployment, client):
    cluster, _system, pool = deployment
    kv = _open_kv(cluster, client, pool)
    from repro.daos.errors import KeyNotFoundError

    with pytest.raises(KeyNotFoundError):
        run_process(cluster, client.kv_remove(kv, b"missing"))
    assert client.op_metrics["kv_remove"].errors == 1


# -- tracing ------------------------------------------------------------------


def test_tracing_spans_cover_rpcs(small_config):
    from repro.simulation.trace import Tracer

    cluster, system, pool = build_deployment(small_config)
    cluster.sim.tracer = Tracer()
    client = DaosClient(system, cluster.client_addresses(1)[0])
    kv = _open_kv(cluster, client, pool)
    run_process(cluster, client.kv_put(kv, b"k", b"v"))
    spans = cluster.sim.tracer.filter("rpc")
    assert [s["op"] for s in spans] == ["container_create", "kv_open", "kv_put"]
    put = spans[-1]
    assert put["status"] == "ok" and put["op_kind"] == "metadata"
    assert put["end"] >= put["start"]


def test_tracer_dump_jsonl_roundtrip(tmp_path):
    import json

    from repro.simulation.trace import Tracer

    tracer = Tracer()
    tracer.record(0.5, "rpc", {"op": "kv_put", "weird": object()})
    path = tmp_path / "trace.jsonl"
    assert tracer.dump_jsonl(str(path)) == 1
    row = json.loads(path.read_text().splitlines()[0])
    assert row["time"] == 0.5 and row["op"] == "kv_put"
    assert isinstance(row["weird"], str)  # non-JSON values are stringified


# -- fault injection + retry --------------------------------------------------


def test_fault_schedule_is_deterministic():
    results = []
    for _attempt in range(2):
        cluster, system, pool = build_deployment(
            _faulty_config(rate=0.3, max_attempts=8)
        )
        client = DaosClient(system, cluster.client_addresses(1)[0])
        kv = _open_kv(cluster, client, pool)
        for i in range(50):
            run_process(cluster, client.kv_put(kv, b"k%d" % i, b"v"))
        retries = sum(s.retries for s in client.op_metrics.values())
        results.append((client.faults_injected, retries, cluster.sim.now))
    assert results[0] == results[1]
    assert results[0][0] > 0  # the schedule actually fired at rate=0.3


def test_injected_fault_surfaces_when_retries_exhausted():
    cluster, system, pool = build_deployment(_faulty_config(rate=1.0, max_attempts=2))
    client = DaosClient(system, cluster.client_addresses(1)[0])
    with pytest.raises(SimulatedFaultError):
        run_process(cluster, client.container_create(pool, label="c"))
    entry = client.op_metrics["container_create"]
    assert entry.errors == 1 and entry.retries == 1  # one retry, then gave up
    assert client.faults_injected == 2  # both attempts faulted


def test_max_faults_caps_the_schedule():
    cluster, system, pool = build_deployment(
        _faulty_config(rate=1.0, max_faults=2, max_attempts=5)
    )
    client = DaosClient(system, cluster.client_addresses(1)[0])
    run_process(cluster, client.container_create(pool, label="c"))
    assert client.faults_injected == 2  # third attempt ran clean


def test_fault_ops_filter_targets_specific_ops():
    cluster, system, pool = build_deployment(
        _faulty_config(rate=1.0, ops=("kv_put",), max_attempts=4, max_faults=1)
    )
    client = DaosClient(system, cluster.client_addresses(1)[0])
    kv = _open_kv(cluster, client, pool)  # unaffected ops: no faults
    assert client.faults_injected == 0
    run_process(cluster, client.kv_put(kv, b"k", b"v"))
    assert client.faults_injected == 1
    assert client.op_metrics["kv_put"].retries == 1
    assert run_process(cluster, client.kv_get(kv, b"k")) == b"v"


def test_retry_recovers_a_fieldio_write():
    """The satellite claim: a faulted Field I/O write completes via retry."""
    cluster, system, pool = build_deployment(
        _faulty_config(rate=1.0, max_faults=3, max_attempts=5)
    )
    client = DaosClient(system, cluster.client_addresses(1)[0])
    run_process(cluster, FieldIO.bootstrap(client, pool))
    fieldio = FieldIO(client, pool)
    key = FieldKey({
        "class": "od", "stream": "oper", "expver": "0001",
        "date": "20210101", "time": "00", "type": "fc",
        "levtype": "pl", "levelist": "500", "param": "t", "step": "0",
    })
    payload = field_payload(key, 4096)
    run_process(cluster, fieldio.write(key, payload))  # no exception: recovered
    assert client.faults_injected == 3
    assert sum(s.retries for s in client.op_metrics.values()) == 3
    read_back = run_process(cluster, fieldio.read(key))
    assert read_back.to_bytes() == payload.to_bytes()


def test_default_chain_skips_fault_machinery(deployment):
    _cluster, system, _pool = deployment
    names = [type(m).__name__ for m in default_middleware(system.config)]
    assert names == ["TracingMiddleware"]
    faulty = _faulty_config()
    names = [type(m).__name__ for m in default_middleware(faulty.daos)]
    assert names == [
        "RetryMiddleware",
        "TracingMiddleware",
        "FaultInjectionMiddleware",
    ]


# -- event queue --------------------------------------------------------------


def test_event_queue_overlaps_operations(deployment, client):
    cluster, _system, pool = deployment
    kv = _open_kv(cluster, client, pool)

    def sequential():
        yield from client.kv_put(kv, b"a", b"1")
        yield from client.kv_put(kv, b"b", b"2")

    t0 = cluster.sim.now
    run_process(cluster, sequential())
    sequential_elapsed = cluster.sim.now - t0

    def pipelined():
        eq = client.eq_create()
        eq.submit(client, client.request_kv_put(kv, b"c", b"3"))
        eq.submit(client, client.request_kv_put(kv, b"d", b"4"))
        completions = yield from eq.wait_all()
        return completions

    t0 = cluster.sim.now
    completions = run_process(cluster, pipelined())
    pipelined_elapsed = cluster.sim.now - t0
    assert len(completions) == 2
    assert all(c.ok and c.op == "kv_put" for c in completions)
    assert all(c.latency > 0 for c in completions)
    # The puts overlap their RPC latency even though the KV serialises them.
    assert pipelined_elapsed < sequential_elapsed
    assert run_process(cluster, client.kv_get(kv, b"c")) == b"3"


def test_event_queue_parks_errors_until_reaped(deployment, client):
    cluster, _system, pool = deployment
    kv = _open_kv(cluster, client, pool)

    def failing():
        eq = client.eq_create()
        eq.launch(client.kv_get(kv, b"missing"), op="kv_get")
        completions = yield from eq.poll()
        return completions

    completions = run_process(cluster, failing())
    assert len(completions) == 1 and not completions[0].ok
    with pytest.raises(Exception):
        completions[0].result()
    with pytest.raises(Exception):
        EventQueue.raise_first_error(completions)


def test_event_queue_poll_and_test(deployment, client):
    cluster, _system, pool = deployment
    kv = _open_kv(cluster, client, pool)

    def driver():
        eq = client.eq_create()
        assert eq.test() == []  # nothing in flight
        for i in range(3):
            eq.submit(client, client.request_kv_put(kv, b"k%d" % i, b"v"))
        assert eq.n_inflight == 3 and len(eq) == 3
        first = yield from eq.poll(min_completions=1)
        assert len(first) >= 1
        rest = yield from eq.wait_all()
        assert len(first) + len(rest) == 3
        assert eq.n_inflight == 0 and eq.n_ready == 0

    run_process(cluster, driver())


# -- aggregation + report -----------------------------------------------------


def test_merge_op_stats_and_breakdown_render():
    a = OpStats()
    a.observe(0.5, 100, ok=True)
    b = OpStats()
    b.observe(1.5, 200, ok=False)
    merged = merge_op_stats([{"array_write": a}, {"array_write": b, "kv_put": a}])
    aw = merged["array_write"]
    assert aw.count == 2 and aw.errors == 1
    assert aw.min_time == 0.5 and aw.max_time == 1.5 and aw.mean_time == 1.0
    assert aw.total_bytes == 300
    text = format_rpc_breakdown(merged)
    assert "array_write" in text and "[data]" in text and "[metadata]" in text
    # rollups: array_write under data, kv_put under metadata
    data_row = next(line for line in text.splitlines() if line.startswith("[data]"))
    assert " 2 " in data_row
