"""The per-process POSIX (Lustre-style) client.

Implements the same ``StorageClient`` protocol as
:class:`~repro.daos.client.DaosClient` — same middleware chain, same
functional semantics, same error taxonomy — but re-times every operation
through Lustre's architecture:

- **Namespace ops go through the MDS.**  Pool/container/object open,
  create, stat, and unlink funnel through the system's single metadata
  server resource instead of DAOS's pool service + per-target metadata.
- **KV objects are directories of small files.**  A put is a whole-file
  write under an exclusive flock held *across* the MDS update (the convoy
  a shared write log forms on Lustre); a get is a shared flock plus an MDS
  getattr.  The shared forecast index that DAOS absorbs at ~14k updates/s
  per object becomes the posixfs bottleneck.
- **Array I/O takes extent locks per stripe cell.**  Data then moves over
  the *same* striped OST/fabric path as DAOS (inherited ``_shard_io``), so
  bandwidth differences are attributable to locking and metadata alone.

Implemented as an override of the DAOS client's ``_do_*`` op bodies and
nothing else: each body is written once, in the leg dialect (``yield
<float>`` a delay, ``yield <Event>`` a wait; see :mod:`repro.daos.client`),
and the inherited public methods and ``request_*`` builders close over
``self``, so the op driver that runs every body (bare or inside the
middleware stages), the event-queue async path and the op bookkeeping are
shared verbatim rather than forked.
"""

from __future__ import annotations

import uuid as uuid_module
from typing import List, Optional

from repro.daos.array_object import ArrayObject
from repro.daos.client import ContainerRef, DaosClient
from repro.daos.container import Container
from repro.daos.errors import MetadataOverloadError
from repro.daos.kv import KeyValueObject
from repro.daos.placement import shard_layout
from repro.daos.pool import Pool
from repro.daos.rpc import Middleware
from repro.daos.system import DaosSystem
from repro.network.fabric import NodeSocket
from repro.posixfs.locks import ExtentLock

__all__ = ["PosixClient"]


class PosixClient(DaosClient):
    """A Lustre-style client process bound to one client socket."""

    def __init__(
        self,
        system: DaosSystem,
        address: NodeSocket,
        middleware: Optional[List[Middleware]] = None,
    ) -> None:
        super().__init__(system, address, middleware=middleware)
        self.posix = system.posix
        self.mds = system.mds
        self.locks = system.locks
        #: Deterministic LDLM owner token (lock-cache identity).
        self._owner = system.next_client_id()

    # -- MDS ---------------------------------------------------------------------
    def _mds_leg(self, service_time: float):
        """Leg: occupy an MDS service thread for ``service_time``.

        Rejects the request up front when the MDS queue exceeds the
        configured overload depth — the retry middleware backs off and
        re-submits, which is what a Lustre client's RPC resend does.
        """
        limit = self.posix.mds_overload_queue
        if limit is not None and self.mds.queue_length >= limit:
            raise MetadataOverloadError(
                f"MDS request queue at {self.mds.queue_length} (limit {limit})"
            )
        return self._service_leg(self.mds, service_time)

    # -- extent locking ----------------------------------------------------------
    def _extent_locks(self, array: ArrayObject, size: int) -> List[ExtentLock]:
        """The extent locks covering ``size`` bytes, in stripe-cell order.

        Acquiring in ascending shard order gives every writer the same
        total order, so concurrent multi-extent writers convoy instead of
        deadlocking.  Extents are stripe-cell granular: byte ranges that
        merely share a cell conflict (false sharing), as on real Lustre.
        """
        stripes = array.oclass.resolve_stripes(self.system.n_targets)
        shards = shard_layout(size, stripes, self.config.stripe_cell_size)
        return [self.locks.lock(array.oid, shard_index) for shard_index, _, _ in shards]

    # -- pool / container --------------------------------------------------------
    def _do_pool_connect(self, pool: Pool):
        yield self._message_latency
        yield from self._mds_leg(self.posix.mds_open_service)
        yield self._message_latency
        return pool

    def _do_container_create(
        self,
        pool: Pool,
        uuid: Optional[uuid_module.UUID],
        label: str,
        is_default: bool,
    ):
        yield self._message_latency
        yield from self._mds_leg(self.posix.mds_create_service)
        container = pool.create_container(uuid=uuid, label=label, is_default=is_default)
        yield self._message_latency
        self._container_cache[(pool.label, str(container.uuid))] = container
        if label:
            self._container_cache[(pool.label, label)] = container
        return container

    def _do_container_open(self, pool: Pool, ref: ContainerRef, cache_key):
        yield self._message_latency
        yield from self._mds_leg(self.posix.mds_open_service)
        container = pool.open_container(ref)
        yield self._message_latency
        self._container_cache[cache_key] = container
        self._container_cache[(pool.label, str(container.uuid))] = container
        return container

    def _do_container_exists(self, pool: Pool, ref: ContainerRef):
        yield self._message_latency
        yield from self._mds_leg(self.posix.mds_getattr_service)
        yield self._message_latency
        return pool.has_container(ref)

    def _do_container_destroy(self, pool: Pool, ref: ContainerRef):
        yield self._message_latency
        request = self.mds.request()
        yield request
        try:
            container = pool.destroy_container(ref)
            objects = list(container.objects())
            # Recursive unlink: the directory plus one entry per object.
            yield self.posix.mds_unlink_service * (1 + len(objects))
            for obj in objects:
                if isinstance(obj, ArrayObject):
                    self._refund_stored(pool, obj)
        finally:
            self.mds.release(request)
        yield self._message_latency
        self._container_cache.pop((pool.label, str(container.uuid)), None)
        if container.label:
            self._container_cache.pop((pool.label, container.label), None)

    def _container_touch(self, container: Container):
        # Path-component lookup at the MDS for objects outside the root
        # (default) directory — posixfs's analogue of the per-container
        # metadata traffic that separates "full" from "no containers".
        if container.is_default:
            return
        yield from self._mds_leg(self.posix.mds_getattr_service)

    # -- KV (directory of small files) -------------------------------------------
    def _do_kv_open(self, kv: KeyValueObject):
        yield self._message_latency
        yield from self._mds_leg(self.posix.mds_open_service)
        yield self._message_latency
        return kv

    def _do_kv_put(self, kv: KeyValueObject, key: bytes, value: bytes):
        bulk = self._kv_bulk_size(value)
        yield self._message_latency
        lock = self.locks.lock(kv.oid)
        yield from lock.acquire_write(self._owner)
        try:
            # The flock is held across the MDS update: writers convoy behind
            # both the lock *and* the metadata server.
            yield from self._mds_leg(self.posix.mds_update_service)
            target = self._key_target(kv, key)
            yield from self._target_leg(target, self.config.kv_put_service_time)
            if bulk:
                yield from self._kv_bulk(target, bulk, write=True)
            kv.put(key, value)
        finally:
            lock.release_write()
        yield self._message_latency

    def _do_kv_get_or_none(self, kv: KeyValueObject, key: bytes):
        yield self._message_latency
        lock = self.locks.lock(kv.oid)
        yield from lock.acquire_read(self._owner)
        try:
            yield from self._mds_leg(self.posix.mds_getattr_service)
            yield from self._target_leg(
                self._key_target(kv, key), self.config.kv_get_service_time
            )
            value = kv.get_or_none(key)
        finally:
            lock.release_read()
        bulk = self._kv_bulk_size(value)
        if bulk:
            yield from self._kv_bulk(self._key_target(kv, key), bulk, write=False)
        yield self._message_latency
        return value

    def _do_kv_list(self, kv: KeyValueObject):
        page_size = self.config.kv_list_page_size
        keys = list(kv.keys())
        yield self._message_latency
        lock = self.locks.lock(kv.oid)
        yield from lock.acquire_read(self._owner)
        try:
            # readdir: one MDS round per page of directory entries.
            pages = max(1, -(-len(keys) // page_size))
            yield from self._mds_leg(self.posix.mds_getattr_service * pages)
        finally:
            lock.release_read()
        yield self._message_latency
        return keys

    def _do_kv_remove(self, kv: KeyValueObject, key: bytes):
        yield self._message_latency
        lock = self.locks.lock(kv.oid)
        yield from lock.acquire_write(self._owner)
        try:
            yield from self._mds_leg(self.posix.mds_unlink_service)
            yield from self._target_leg(
                self._key_target(kv, key), self.config.kv_put_service_time
            )
            kv.remove(key)
        finally:
            lock.release_write()
        yield self._message_latency

    # -- arrays (striped files) --------------------------------------------------
    def _do_array_create(self, container: Container, array: ArrayObject):
        yield self._message_latency
        yield from self._container_touch(container)
        yield from self._mds_leg(self.posix.mds_create_service)
        yield self._message_latency
        return array

    def _do_array_open(self, container: Container, array: ArrayObject):
        yield self._message_latency
        yield from self._container_touch(container)
        yield from self._mds_leg(self.posix.mds_open_service)
        yield self._message_latency
        return array

    def _do_array_close(self, array: ArrayObject):
        yield from self._mds_leg(self.posix.mds_close_service)
        yield self._message_latency

    def _do_array_get_size(self, array: ArrayObject):
        # stat: MDS getattr plus a size glimpse at the lead OST (Lustre asks
        # the OSTs for object sizes — the part of stat that scales badly).
        yield self._message_latency
        yield from self._mds_leg(self.posix.mds_getattr_service)
        yield from self._target_leg(
            self._lead_target(array), self.config.rpc_service_time
        )
        yield self._message_latency
        return array.size

    def _do_array_punch(
        self, container: Container, array: ArrayObject, pool: Optional[Pool]
    ):
        yield self._message_latency
        lock = self.locks.lock(array.oid)
        yield from lock.acquire_write(self._owner)
        try:
            yield from self._mds_leg(self.posix.mds_unlink_service)
            container.remove_object(array.oid)
            if pool is not None:
                self._refund_stored(pool, array)
        finally:
            lock.release_write()
        yield self._message_latency

    def _do_array_set_size(self, array: ArrayObject, size: int, pool: Optional[Pool]):
        yield self._message_latency
        lock = self.locks.lock(array.oid)
        yield from lock.acquire_write(self._owner)
        try:
            yield from self._mds_leg(self.posix.mds_update_service)
            before = array.nbytes_stored
            array.truncate(size)
            if pool is not None:
                freed = before - array.nbytes_stored
                if freed > 0:
                    lead = self._lead_target(array)
                    pool.refund(lead, min(freed, pool.target_used(lead)))
        finally:
            lock.release_write()
        yield self._message_latency

    def _do_array_write(
        self, array: ArrayObject, offset: int, payload, pool: Optional[Pool]
    ):
        yield self._message_latency
        held: List[ExtentLock] = []
        try:
            for lock in self._extent_locks(array, payload.size):
                yield from lock.acquire_write(self._owner)
                held.append(lock)
            # Data path: identical striped scatter over the OSTs/fabric as
            # the DAOS backend (inherited) — replicas==1 and health-off are
            # guaranteed by PosixSystem, so no degraded branches trigger.
            yield from self._array_transfer(array, offset, payload.size, pool, write=True)
            array.write(offset, payload)
        finally:
            for lock in reversed(held):
                lock.release_write()
        yield self._message_latency

    def _do_array_read(self, array: ArrayObject, offset: int, length: int):
        yield self._message_latency
        held: List[ExtentLock] = []
        try:
            for lock in self._extent_locks(array, length):
                yield from lock.acquire_read(self._owner)
                held.append(lock)
            payload = array.read(offset, length)  # validate range before moving data
            yield from self._array_transfer(array, offset, length, None, write=False)
        finally:
            for lock in reversed(held):
                lock.release_read()
        yield self._message_latency
        return payload
