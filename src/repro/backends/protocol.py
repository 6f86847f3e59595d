"""The ``StorageBackend`` protocol every storage model implements.

Two structural interfaces define what a backend must provide:

:class:`StorageSystem`
    One deployment: owns pools, object placement, and a ``make_client``
    factory.  Built over a :class:`~repro.hardware.topology.Cluster` by
    :func:`repro.backends.registry.build_system`.

:class:`StorageClient`
    One simulated process's handle onto a system.  Every operation is a
    *generator* driven with ``yield from`` inside a simulation process; it
    charges the backend's latency/service/bandwidth costs and returns the
    functional result.  The same generators run asynchronously when started
    on an event queue (``eq.launch(client.kv_put(...), op="kv_put")``), and
    ``kv_put_many`` / ``kv_get_many`` batch index updates and lookups, over
    any number of KVs, into one multi-op.

Consumers (``FieldIO``, the IOR/mdtest/FieldIO benches, the I/O-server
workload, ``FDB``) are written against these protocols only — they never
name a concrete client class.  The contract each implementation must keep:

- *functional semantics* are identical across backends (same values
  returned, same error taxonomy from :mod:`repro.daos.errors`); only the
  *timing* — where latency, serialisation, and contention accrue — differs;
- every op, blocking, asynchronous or batched, is launched by the
  client's one launcher onto its op driver and under its one attempt
  loop, so metrics, tracing, seeded fault injection, retry, map refresh
  and QoS admission behave identically on every backend;
- determinism: two same-seed runs of the same workload on the same backend
  produce bit-identical event streams.

The protocols are ``runtime_checkable`` so the conformance suite
(``tests/backends/test_protocol_conformance.py``) can assert structural
compliance, but they are intentionally method-presence checks only —
generator signatures are enforced by the shared behavioural tests, not by
``isinstance``.
"""

from __future__ import annotations

from typing import Any, Dict, Protocol, runtime_checkable

__all__ = ["StorageClient", "StorageSystem"]


@runtime_checkable
class StorageSystem(Protocol):
    """One storage deployment over a simulated cluster."""

    #: Registry name ("daos", "posixfs", ...).
    backend_name: str

    def make_client(self, address, middleware=None) -> "StorageClient":
        """A per-process client bound to ``address``; ``middleware`` is a
        serving tenant's QoS admission or ``None``."""
        ...

    def create_pool(self, label: str = "pool0", scm_bytes_per_target=None):
        """Create a pool spanning every target of every engine."""
        ...

    def register_object(self, obj, oclass, container_salt: int = 0) -> None:
        """Compute placement for a fresh object and attach its lock."""
        ...

    def target(self, global_index: int):
        """The target at a global index."""
        ...

    def engine_of_target(self, global_index: int):
        """Engine address that owns a target."""
        ...

    @property
    def n_targets(self) -> int: ...

    def arm_failure_schedule(self) -> None:
        """Start the health monitor (health-capable backends only)."""
        ...


@runtime_checkable
class StorageClient(Protocol):
    """One simulated process's handle onto a :class:`StorageSystem`.

    All ``*_open``/``*_put``/``*_read``-style methods are generators; see
    the module docstring for the contract.
    """

    system: Any
    stats: Dict[str, int]

    @property
    def op_metrics(self) -> Dict[str, Any]:
        """Per-op accumulators, read-only: each read returns a fresh
        ``{op: OpStats}`` dict (a view of the system's op table), so writing
        to it changes nothing."""
        ...

    # -- pool / container ---------------------------------------------------------
    def pool_connect(self, pool): ...

    def container_create(self, pool, uuid=None, label="", is_default=False): ...

    def container_open(self, pool, ref): ...

    def container_exists(self, pool, ref): ...

    def container_destroy(self, pool, ref): ...

    # -- key-value ---------------------------------------------------------------
    def kv_open(self, container, oid, oclass): ...

    def kv_put(self, kv, key, value): ...

    def kv_get(self, kv, key): ...

    def kv_get_or_none(self, kv, key): ...

    def kv_list(self, kv): ...

    def kv_remove(self, kv, key): ...

    # -- arrays ------------------------------------------------------------------
    def array_create(self, container, oclass, oid=None): ...

    def array_open(self, container, oid): ...

    def array_close(self, array): ...

    def array_get_size(self, array): ...

    def array_set_size(self, array, size, pool=None): ...

    def array_punch(self, container, array, pool=None): ...

    def array_write(self, array, offset, payload, pool=None): ...

    def array_read(self, array, offset, length): ...

    # -- async and multi-op submission ------------------------------------------
    def eq_create(self, name: str = "eq"): ...

    def kv_put_many(self, entries): ...

    def kv_get_many(self, entries): ...
