"""Field I/O: Algorithms 1 & 2 across all modes, races, layout invariants."""

import pytest

from repro.bench.runner import build_deployment
from repro.config import ClusterConfig
from repro.daos.client import DaosClient
from repro.daos.payload import BytesPayload
from repro.fdb.fieldio import (
    FORECAST_KV_OID,
    MAIN_CONTAINER_LABEL,
    FieldIO,
    FieldNotFoundError,
    _decode_field_ref,
    _encode_field_ref,
)
from repro.fdb.key import FieldKey
from repro.fdb.modes import FieldIOMode
from tests.conftest import run_process


def full_key(**overrides):
    base = {
        "class": "od", "stream": "oper", "expver": "0001",
        "date": "20201224", "time": "12", "type": "fc",
        "levtype": "pl", "levelist": "500", "param": "t", "step": "6",
    }
    base.update(overrides)
    return FieldKey(base)


def make_fieldio(mode, config=None):
    cluster, system, pool = build_deployment(
        config or ClusterConfig(n_server_nodes=1, n_client_nodes=1)
    )
    client = DaosClient(system, cluster.client_addresses(1)[0])
    run_process(cluster, FieldIO.bootstrap(client, pool))
    return cluster, pool, FieldIO(client, pool, mode=mode)


@pytest.mark.parametrize("mode", list(FieldIOMode))
def test_write_read_roundtrip(mode):
    cluster, _, fieldio = make_fieldio(mode)
    data = BytesPayload(b"field-bytes" * 100)
    run_process(cluster, fieldio.write(full_key(), data))
    back = run_process(cluster, fieldio.read(full_key()))
    assert back == data


@pytest.mark.parametrize("mode", list(FieldIOMode))
def test_read_missing_field_fails(mode):
    cluster, _, fieldio = make_fieldio(mode)
    run_process(cluster, fieldio.write(full_key(), BytesPayload(b"x")))
    missing = full_key(step="12")
    with pytest.raises(Exception) as info:
        run_process(cluster, fieldio.read(missing))
    assert isinstance(info.value, (FieldNotFoundError, Exception))


def test_read_missing_forecast_fails_at_first_index():
    cluster, _, fieldio = make_fieldio(FieldIOMode.FULL)
    with pytest.raises(FieldNotFoundError, match="no forecast indexed"):
        run_process(cluster, fieldio.read(full_key()))


def test_schema_violations_rejected():
    cluster, _, fieldio = make_fieldio(FieldIOMode.FULL)
    bad = FieldKey({"class": "od"})
    with pytest.raises(Exception):
        run_process(cluster, fieldio.write(bad, BytesPayload(b"x")))


@pytest.mark.parametrize("mode", list(FieldIOMode))
def test_overwrite_returns_new_data(mode):
    cluster, _, fieldio = make_fieldio(mode)
    key = full_key()
    run_process(cluster, fieldio.write(key, BytesPayload(b"a" * 500)))
    run_process(cluster, fieldio.write(key, BytesPayload(b"b" * 300)))
    assert run_process(cluster, fieldio.read(key)).to_bytes() == b"b" * 300


def test_overwrite_creates_new_array_and_keeps_old_one():
    """§4: no read-modify-write; de-referenced objects are not deleted."""
    cluster, pool, fieldio = make_fieldio(FieldIOMode.FULL)
    key = full_key()
    run_process(cluster, fieldio.write(key, BytesPayload(b"v1" * 100)))
    store = fieldio._forecasts[fieldio.schema.msk(key)].store_container
    objects_before = len(store)
    run_process(cluster, fieldio.write(key, BytesPayload(b"v2" * 100)))
    assert len(store) == objects_before + 1  # old array still there
    used_before = pool.used
    assert used_before >= 400  # both versions' bytes remain charged


def test_full_mode_container_layout():
    cluster, pool, fieldio = make_fieldio(FieldIOMode.FULL)
    run_process(cluster, fieldio.write(full_key(), BytesPayload(b"x")))
    # main + forecast index + forecast store.
    assert pool.n_containers == 3
    msk = fieldio.schema.msk(full_key())
    assert pool.has_container(msk.container_uuid("index"))
    assert pool.has_container(msk.container_uuid("store"))


def test_no_containers_mode_uses_only_main():
    cluster, pool, fieldio = make_fieldio(FieldIOMode.NO_CONTAINERS)
    run_process(cluster, fieldio.write(full_key(), BytesPayload(b"x")))
    assert pool.n_containers == 1
    main = pool.open_container(MAIN_CONTAINER_LABEL)
    # main KV + forecast KV + the field array all live in main.
    assert len(main) == 3


def test_no_index_mode_creates_no_kvs():
    cluster, pool, fieldio = make_fieldio(FieldIOMode.NO_INDEX)
    run_process(cluster, fieldio.write(full_key(), BytesPayload(b"x")))
    assert pool.n_containers == 1
    main = pool.open_container(MAIN_CONTAINER_LABEL)
    assert len(main) == 1  # just the array
    assert fieldio.client.stats.get("kv_put") is None


def test_two_writers_same_forecast_share_containers():
    """Concurrent creators of the same forecast converge via md5 IDs (§4)."""
    cluster, system, pool = build_deployment(
        ClusterConfig(n_server_nodes=1, n_client_nodes=1)
    )
    addr = cluster.client_addresses(1)[0]
    bootstrap_client = DaosClient(system, addr)
    run_process(cluster, FieldIO.bootstrap(bootstrap_client, pool))
    fieldio_a = FieldIO(DaosClient(system, addr), pool)
    fieldio_b = FieldIO(DaosClient(system, addr), pool)
    key_a = full_key(step="0")
    key_b = full_key(step="6")

    processes = [
        cluster.sim.process(fieldio_a.write(key_a, BytesPayload(b"a"))),
        cluster.sim.process(fieldio_b.write(key_b, BytesPayload(b"b"))),
    ]
    cluster.sim.run(until=cluster.sim.all_of(processes))
    assert pool.n_containers == 3  # single shared forecast pair + main
    # Both fields retrievable through either process's handles.
    assert run_process(cluster, fieldio_a.read(key_b)).to_bytes() == b"b"
    assert run_process(cluster, fieldio_b.read(key_a)).to_bytes() == b"a"


def test_exists():
    cluster, _, fieldio = make_fieldio(FieldIOMode.FULL)
    key = full_key()
    assert run_process(cluster, fieldio.exists(key)) is False
    run_process(cluster, fieldio.write(key, BytesPayload(b"x")))
    assert run_process(cluster, fieldio.exists(key)) is True
    assert run_process(cluster, fieldio.exists(full_key(step="99"))) is False


def test_list_fields():
    cluster, _, fieldio = make_fieldio(FieldIOMode.FULL)
    keys = [full_key(step=str(s)) for s in (0, 6, 12)]
    for key in keys:
        run_process(cluster, fieldio.write(key, BytesPayload(b"x")))
    msk = fieldio.schema.msk(keys[0])
    listed = run_process(cluster, fieldio.list_fields(msk))
    assert sorted(k.canonical() for k in listed) == sorted(
        k.canonical() for k in keys
    )


def test_list_fields_unsupported_in_no_index():
    cluster, _, fieldio = make_fieldio(FieldIOMode.NO_INDEX)
    with pytest.raises(FieldNotFoundError, match="requires an index"):
        run_process(
            cluster, fieldio.list_fields(fieldio.schema.msk(full_key()))
        )


def test_field_ref_encoding_roundtrip():
    import uuid

    from repro.daos.oid import ObjectId

    store_uuid = uuid.uuid4()
    oid = ObjectId.from_user(0xDEAD, 0xBEEF, oclass_id=31)
    blob = _encode_field_ref(store_uuid.bytes, oid, 123456)
    assert _decode_field_ref(blob) == (store_uuid.bytes, oid, 123456)
    with pytest.raises(ValueError, match="malformed"):
        _decode_field_ref(blob[:-1])


def test_forecast_kv_uses_configured_class():
    """Non-default object classes propagate into the created KV objects."""
    from repro.daos.objclass import OC_S1

    cluster, system, pool = build_deployment(
        ClusterConfig(n_server_nodes=1, n_client_nodes=1)
    )
    client = DaosClient(system, cluster.client_addresses(1)[0])
    run_process(cluster, FieldIO.bootstrap(client, pool))
    fieldio = FieldIO(client, pool, kv_oclass=OC_S1, array_oclass=OC_S1)
    run_process(cluster, fieldio.write(full_key(), BytesPayload(b"x")))
    index_container = fieldio._forecasts[
        fieldio.schema.msk(full_key())
    ].index_container
    kv = index_container.get_object(FORECAST_KV_OID)
    assert kv.oclass is OC_S1
    assert len(kv.layout) == 1


@pytest.mark.parametrize("mode", list(FieldIOMode))
def test_async_write_read_roundtrip(mode):
    """The pipelined write path stores exactly what the blocking path would."""
    cluster, pool, fieldio = make_fieldio(mode)
    fieldio.async_io = True
    data = BytesPayload(b"pipelined-bytes" * 64)
    run_process(cluster, fieldio.write(full_key(), data))
    back = run_process(cluster, fieldio.read(full_key()))
    assert back == data
    if mode.uses_index:
        # Both halves of the pipeline ran: the bulk transfer and the index put.
        assert fieldio.client.stats["array_write"] == 1
        assert fieldio.client.stats["kv_put"] >= 1


def test_async_write_is_not_slower_than_blocking():
    elapsed = {}
    for async_io in (False, True):
        cluster, pool, fieldio = make_fieldio(FieldIOMode.FULL)
        fieldio.async_io = async_io
        t0 = cluster.sim.now
        run_process(cluster, fieldio.write(full_key(), BytesPayload(b"x" * 4096)))
        elapsed[async_io] = cluster.sim.now - t0
    assert elapsed[True] <= elapsed[False]
