"""Weather-field write/read over DAOS: Algorithms 1 and 2 of the paper.

The object layout follows Fig 2: a *main* Key-Value (in the main container)
maps the most-significant part of a field key to a per-forecast *index*
container; the *forecast index* KV inside it maps the least-significant part
to a store container and an Array holding the field bytes.  Container IDs
derive from md5 sums of the most-significant key so concurrent creators
converge (§4).  Overwrites allocate a *new* array and re-point the index —
no read-modify-write, and de-referenced arrays are not deleted, by design.

All methods are generators driven inside simulation processes, like the
:class:`~repro.backends.protocol.StorageClient` they build on — any
storage backend implementing the protocol (DAOS or posixfs) works.
"""

from __future__ import annotations

import hashlib
import uuid as uuid_module
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.backends.protocol import StorageClient
from repro.daos.container import Container
from repro.daos.eq import EventQueue
from repro.daos.errors import ContainerExistsError, DaosError
from repro.daos.kv import KeyValueObject
from repro.daos.objclass import OC_S1, OC_SX, ObjectClass
from repro.daos.oid import ObjectId
from repro.daos.payload import BytesPayload, Payload
from repro.daos.pool import Pool
from repro.fdb.key import FieldKey
from repro.fdb.modes import FieldIOMode
from repro.fdb.schema import DEFAULT_SCHEMA, KeySchema

__all__ = ["FieldIO", "FieldNotFoundError", "MAIN_CONTAINER_LABEL"]

#: Label of the root ("main") container holding the main index KV.
MAIN_CONTAINER_LABEL = "fdb_main"
#: Well-known OID of the main index KV within the main container.
MAIN_KV_OID = ObjectId.from_user(0, 1)
#: Well-known OID of a forecast index KV within its own container (FULL mode).
FORECAST_KV_OID = ObjectId.from_user(0, 2)
#: Special forecast-KV entry holding the store container reference (§4).
STORE_REF_KEY = b"\x00:store"


class FieldNotFoundError(DaosError):
    """The requested field key is not present in the store (Algorithm 2)."""

    code = -1005


def _encode_field_ref(store_uuid: uuid_module.UUID, oid: ObjectId, size: int) -> bytes:
    """Index entry: store container uuid + array OID + field length.

    FDB5 keeps the field length in the index so retrieval knows how much to
    read without an extra size query.
    """
    return (
        store_uuid.bytes
        + oid.hi.to_bytes(8, "big")
        + oid.lo.to_bytes(8, "big")
        + size.to_bytes(8, "big")
    )


def _decode_field_ref(data: bytes) -> Tuple[uuid_module.UUID, ObjectId, int]:
    if len(data) != 40:
        raise ValueError(f"malformed field reference of {len(data)} bytes")
    store_uuid = uuid_module.UUID(bytes=data[:16])
    oid = ObjectId(
        hi=int.from_bytes(data[16:24], "big"), lo=int.from_bytes(data[24:32], "big")
    )
    size = int.from_bytes(data[32:40], "big")
    return store_uuid, oid, size


def _kv_oid_for_forecast(msk: FieldKey) -> ObjectId:
    """Forecast-KV OID in NO_CONTAINERS mode (md5 of the msk)."""
    return ObjectId.from_digest(hashlib.md5(msk.encode() + b"/fkv").digest())


def _array_oid_for_field(key: FieldKey) -> ObjectId:
    """Array OID in NO_INDEX mode: md5 of the full field identifier (§5.2)."""
    return ObjectId.from_digest(hashlib.md5(key.encode()).digest())


@dataclass
class _ForecastHandles:
    """Cached per-forecast state: containers and the index KV."""

    index_container: Container
    store_container: Container
    index_kv: KeyValueObject


class FieldIO:
    """Per-process field write/read functions (the paper's C functions).

    Parameters mirror the paper's benchmark configuration (§5.2/§6.3):
    ``kv_oclass`` defaults to striping across all targets (OC_SX) and
    ``array_oclass`` to no striping (OC_S1) — the configuration used for
    Figs 4 and 5, which Fig 6 then varies.

    ``async_io`` enables the pipelined write path of the authors' follow-up
    work (arXiv:2404.03107): the array transfer/close is overlapped with the
    forecast-index ``kv_put``, both reaped from an event queue.  The field
    reference is computable as soon as the array is created (store uuid +
    OID + size), which is what makes the overlap legal — the index entry
    never depends on the transfer having finished.  Off by default; the
    blocking path is the paper's Algorithm 1, bit for bit.
    """

    def __init__(
        self,
        client: StorageClient,
        pool: Pool,
        mode: FieldIOMode = FieldIOMode.FULL,
        schema: KeySchema = DEFAULT_SCHEMA,
        kv_oclass: ObjectClass = OC_SX,
        array_oclass: ObjectClass = OC_S1,
        async_io: bool = False,
    ) -> None:
        self.client = client
        self.pool = pool
        self.mode = mode
        self.schema = schema
        self.kv_oclass = kv_oclass
        self.array_oclass = array_oclass
        self.async_io = async_io
        self._main_container: Optional[Container] = None
        self._main_kv: Optional[KeyValueObject] = None
        self._forecasts: Dict[FieldKey, _ForecastHandles] = {}
        self._eq: Optional[EventQueue] = None

    # -- bootstrap -----------------------------------------------------------------
    @staticmethod
    def bootstrap(client: StorageClient, pool: Pool):
        """Create the main container (run once per deployment, before I/O).

        Idempotent under races: a concurrent creator losing the race opens
        the existing container instead.
        """
        try:
            container = yield from client.container_create(
                pool, label=MAIN_CONTAINER_LABEL, is_default=True
            )
        except ContainerExistsError:
            container = yield from client.container_open(pool, MAIN_CONTAINER_LABEL)
        return container

    def _open_main(self):
        if self._main_container is None:
            self._main_container = yield from self.client.container_open(
                self.pool, MAIN_CONTAINER_LABEL
            )
        if self._main_kv is None and self.mode.uses_index:
            self._main_kv = yield from self.client.kv_open(
                self._main_container, MAIN_KV_OID, self.kv_oclass
            )
        return self._main_container

    # -- forecast resolution (the container/index plumbing of Algorithm 1/2) --------
    def _forecast_for_write(self, msk: FieldKey):
        """Resolve (creating if needed) the forecast handles for ``msk``."""
        cached = self._forecasts.get(msk)
        if cached is not None:
            return cached
        main = yield from self._open_main()
        ref = yield from self.client.kv_get_or_none(self._main_kv, msk.encode())
        if ref is None:
            handles = yield from self._create_forecast(main, msk)
        else:
            handles = yield from self._open_forecast(main, msk, ref)
        self._forecasts[msk] = handles
        return handles

    def _forecast_for_read(self, msk: FieldKey):
        """Resolve the forecast handles for ``msk``; fail if absent."""
        cached = self._forecasts.get(msk)
        if cached is not None:
            return cached
        main = yield from self._open_main()
        ref = yield from self.client.kv_get_or_none(self._main_kv, msk.encode())
        if ref is None:
            raise FieldNotFoundError(f"no forecast indexed for {msk.canonical()!r}")
        handles = yield from self._open_forecast(main, msk, ref)
        self._forecasts[msk] = handles
        return handles

    def _create_forecast(self, main: Container, msk: FieldKey):
        client = self.client
        if self.mode.uses_containers:
            index_uuid = msk.container_uuid("index")
            store_uuid = msk.container_uuid("store")
            # md5-derived IDs: concurrent creators race benignly (§4).
            try:
                index_cont = yield from client.container_create(self.pool, uuid=index_uuid)
            except ContainerExistsError:
                index_cont = yield from client.container_open(self.pool, index_uuid)
            try:
                store_cont = yield from client.container_create(self.pool, uuid=store_uuid)
            except ContainerExistsError:
                store_cont = yield from client.container_open(self.pool, store_uuid)
            index_kv = yield from client.kv_open(index_cont, FORECAST_KV_OID, self.kv_oclass)
            # Register the store container in the new index KV, then the
            # index container in the main KV (creation order of Algorithm 1).
            yield from client.kv_put(index_kv, STORE_REF_KEY, store_uuid.bytes)
            yield from client.kv_put(self._main_kv, msk.encode(), index_uuid.bytes)
            return _ForecastHandles(index_cont, store_cont, index_kv)
        # NO_CONTAINERS: the index KV lives in the main container under an
        # md5-derived OID; fields also store into the main container.
        kv_oid = _kv_oid_for_forecast(msk)
        index_kv = yield from client.kv_open(main, kv_oid, self.kv_oclass)
        yield from client.kv_put(self._main_kv, msk.encode(), b"\x01")
        return _ForecastHandles(main, main, index_kv)

    def _open_forecast(self, main: Container, msk: FieldKey, ref: bytes):
        client = self.client
        if self.mode.uses_containers:
            index_uuid = uuid_module.UUID(bytes=ref)
            index_cont = yield from client.container_open(self.pool, index_uuid)
            index_kv = yield from client.kv_open(index_cont, FORECAST_KV_OID, self.kv_oclass)
            store_ref = yield from client.kv_get(index_kv, STORE_REF_KEY)
            store_cont = yield from client.container_open(
                self.pool, uuid_module.UUID(bytes=store_ref)
            )
            return _ForecastHandles(index_cont, store_cont, index_kv)
        index_kv = yield from client.kv_open(main, _kv_oid_for_forecast(msk), self.kv_oclass)
        return _ForecastHandles(main, main, index_kv)

    # -- Algorithm 1: field write ---------------------------------------------------
    def write(self, key: FieldKey, payload: Payload):
        """Store a field under ``key`` (Algorithm 1).

        Overwrites allocate a fresh array and re-point the index entry; the
        previous array is de-referenced but never deleted (§4).
        """
        msk, lsk = self.schema.split(key)
        if not isinstance(payload, Payload):
            payload = BytesPayload(bytes(payload))
        client = self.client
        if self.mode is FieldIOMode.NO_INDEX:
            main = yield from self._open_main()
            array = yield from client.array_create(
                main, self.array_oclass, oid=_array_oid_for_field(key)
            )
            if array.size > payload.size:
                # Overwrite-in-place: a shrinking re-write must truncate or
                # the previous field's tail would survive past the new end.
                yield from client.array_set_size(array, payload.size, pool=self.pool)
            yield from client.array_write(array, 0, payload, pool=self.pool)
            yield from client.array_close(array)
            return
        handles = yield from self._forecast_for_write(msk)
        array = yield from client.array_create(handles.store_container, self.array_oclass)
        ref = _encode_field_ref(handles.store_container.uuid, array.oid, payload.size)
        if self.async_io:
            # Pipelined path: overlap the bulk transfer (+ close) with the
            # index update; reap both from the event queue and surface the
            # first failure, like checking ``daos_event_t.ev_error``.
            eq = self._eq
            if eq is None:
                self._eq = eq = client.eq_create("fieldio")
            eq.launch(self._write_and_close(array, payload), op="array_write_close")
            eq.submit(client, client.request_kv_put(handles.index_kv, lsk.encode(), ref))
            completions = yield from eq.wait_all()
            EventQueue.raise_first_error(completions)
            return
        yield from client.array_write(array, 0, payload, pool=self.pool)
        yield from client.array_close(array)
        yield from client.kv_put(handles.index_kv, lsk.encode(), ref)

    def _write_and_close(self, array, payload: Payload):
        """The array half of a pipelined write: bulk transfer, then close."""
        yield from self.client.array_write(array, 0, payload, pool=self.pool)
        yield from self.client.array_close(array)

    def write_many(self, items):
        """Store many fields, batching all index updates into one multi-op.

        ``items`` is an iterable of ``(key, payload)`` pairs.  Each field's
        array is created, written and closed exactly as :meth:`write` would
        (same simulated timeline), but the forecast-index ``kv_put``\\ s are
        accumulated and submitted as a single vectorized
        ``kv_put_multi`` — one chain traversal for the whole wave instead of
        one per field, which is where an ensemble flush's index-update storm
        spends its client-side overhead.  In NO_INDEX mode there are no
        index entries, so this degrades to a plain loop over :meth:`write`.
        """
        items = list(items)
        if self.mode is FieldIOMode.NO_INDEX:
            for key, payload in items:
                yield from self.write(key, payload)
            return
        client = self.client
        puts = []
        for key, payload in items:
            msk, lsk = self.schema.split(key)
            if not isinstance(payload, Payload):
                payload = BytesPayload(bytes(payload))
            handles = yield from self._forecast_for_write(msk)
            array = yield from client.array_create(
                handles.store_container, self.array_oclass
            )
            ref = _encode_field_ref(
                handles.store_container.uuid, array.oid, payload.size
            )
            yield from client.array_write(array, 0, payload, pool=self.pool)
            yield from client.array_close(array)
            puts.append(client.request_kv_put(handles.index_kv, lsk.encode(), ref))
        if puts:
            yield from client.submit_multi(puts, op="kv_put_multi")

    # -- Algorithm 2: field read ------------------------------------------------------
    def read(self, key: FieldKey):
        """Retrieve the field stored under ``key`` (Algorithm 2).

        Raises :class:`FieldNotFoundError` at either index level if the key
        was never written.
        """
        msk, lsk = self.schema.split(key)
        client = self.client
        if self.mode is FieldIOMode.NO_INDEX:
            main = yield from self._open_main()
            array = yield from client.array_open(main, _array_oid_for_field(key))
            size = yield from client.array_get_size(array)
            payload = yield from client.array_read(array, 0, size)
            yield from client.array_close(array)
            return payload
        handles = yield from self._forecast_for_read(msk)
        ref = yield from client.kv_get_or_none(handles.index_kv, lsk.encode())
        if ref is None:
            raise FieldNotFoundError(f"field {key.canonical()!r} not found")
        store_uuid, oid, size = _decode_field_ref(ref)
        if store_uuid != handles.store_container.uuid:
            # A field may have been archived into a different store container
            # (not produced by this layout, but the reference is authoritative).
            store = yield from client.container_open(self.pool, store_uuid)
        else:
            store = handles.store_container
        array = yield from client.array_open(store, oid)
        payload = yield from client.array_read(array, 0, size)
        yield from client.array_close(array)
        return payload

    def read_many(self, keys):
        """Retrieve many fields, batching all index lookups into one multi-op.

        Returns the payloads in key order.  The forecast-index ``kv_get``\\ s
        for the whole batch go out as a single vectorized ``kv_get_multi``
        (one chain traversal; QoS still meters one token per lookup), then
        each field's array is opened, read and closed exactly as
        :meth:`read` would.  Raises :class:`FieldNotFoundError` on the first
        missing field.  NO_INDEX mode has no index lookups to batch and
        degrades to a plain loop over :meth:`read`.
        """
        keys = list(keys)
        if self.mode is FieldIOMode.NO_INDEX:
            payloads = []
            for key in keys:
                payload = yield from self.read(key)
                payloads.append(payload)
            return payloads
        client = self.client
        gets = []
        per_key = []
        for key in keys:
            msk, lsk = self.schema.split(key)
            handles = yield from self._forecast_for_read(msk)
            gets.append(client.request_kv_get(handles.index_kv, lsk.encode()))
            per_key.append(handles)
        refs = []
        if gets:
            refs = yield from client.submit_multi(gets, op="kv_get_multi")
        payloads = []
        for key, handles, ref in zip(keys, per_key, refs):
            if ref is None:
                raise FieldNotFoundError(f"field {key.canonical()!r} not found")
            store_uuid, oid, size = _decode_field_ref(ref)
            if store_uuid != handles.store_container.uuid:
                store = yield from client.container_open(self.pool, store_uuid)
            else:
                store = handles.store_container
            array = yield from client.array_open(store, oid)
            payload = yield from client.array_read(array, 0, size)
            yield from client.array_close(array)
            payloads.append(payload)
        return payloads

    def read_request(self, request):
        """Retrieve every field a :class:`~repro.fdb.request.Request` covers.

        Returns an ordered ``{FieldKey: Payload}`` dict; raises
        :class:`FieldNotFoundError` on the first missing field.
        """
        results = {}
        for key in request.expand(self.schema):
            results[key] = yield from self.read(key)
        return results

    def wipe(self, msk: FieldKey):
        """Delete every field of a forecast: punch arrays, drop index entries.

        An administrative operation (the paper's I/O functions never delete,
        §4 — this is the equivalent of ECMWF's ``fdb-wipe`` tool).  Returns
        the number of fields removed.  Not supported in NO_INDEX mode, which
        has no index to enumerate.
        """
        if self.mode is FieldIOMode.NO_INDEX:
            raise FieldNotFoundError("wipe requires an index to enumerate fields")
        client = self.client
        handles = yield from self._forecast_for_read(msk)
        raw_keys = yield from client.kv_list(handles.index_kv)
        removed = 0
        for raw in raw_keys:
            if raw == STORE_REF_KEY:
                continue
            ref = yield from client.kv_get(handles.index_kv, raw)
            store_uuid, oid, _size = _decode_field_ref(ref)
            if store_uuid == handles.store_container.uuid:
                store = handles.store_container
            else:
                store = yield from client.container_open(self.pool, store_uuid)
            if store.has_object(oid):
                array = store.get_object(oid)
                yield from client.array_punch(store, array, pool=self.pool)
            yield from client.kv_remove(handles.index_kv, raw)
            removed += 1
        yield from client.kv_remove(self._main_kv, msk.encode())
        self._forecasts.pop(msk, None)
        return removed

    def list_fields(self, msk: FieldKey):
        """Field keys indexed for a forecast (not supported in NO_INDEX mode)."""
        if self.mode is FieldIOMode.NO_INDEX:
            raise FieldNotFoundError(
                "listing requires an index; the NO_INDEX mode has none"
            )
        handles = yield from self._forecast_for_read(msk)
        raw_keys = yield from self.client.kv_list(handles.index_kv)
        fields = []
        for raw in raw_keys:
            if raw == STORE_REF_KEY:
                continue
            fields.append(msk.merged(FieldKey.decode(raw)))
        return fields

    # -- introspection -------------------------------------------------------------------
    def exists(self, key: FieldKey):
        """Whether ``key`` resolves to a stored field (index probes only)."""
        msk, lsk = self.schema.split(key)
        if self.mode is FieldIOMode.NO_INDEX:
            main = yield from self._open_main()
            return main.has_object(_array_oid_for_field(key))
        try:
            handles = yield from self._forecast_for_read(msk)
        except FieldNotFoundError:
            return False
        ref = yield from self.client.kv_get_or_none(handles.index_kv, lsk.encode())
        return ref is not None
