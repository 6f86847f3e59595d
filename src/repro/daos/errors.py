"""Storage error hierarchy, shared by every backend.

Mirrors the DER_* error space of the real DAOS client library closely enough
for the field I/O layer to make the same control-flow decisions (e.g. create
races resolving via "already exists", lookups failing via "nonexistent").

The hierarchy is deliberately backend-agnostic: POSIX-model failures map
onto the same tree (lock timeout and MDS overload are
:class:`SimulatedFaultError` subclasses the client's retry already
handles; a full OST surfaces as :class:`NoSpaceError`, exactly like an
exhausted SCM pool), so ``FieldIO`` and the benchmarks never branch on the
backend in their error paths.
"""

from __future__ import annotations

__all__ = [
    "DaosError",
    "ContainerExistsError",
    "ContainerNotFoundError",
    "ObjectNotFoundError",
    "KeyNotFoundError",
    "NoSpaceError",
    "InvalidArgumentError",
    "SimulatedFaultError",
    "LockTimeoutError",
    "MetadataOverloadError",
    "ServiceBusyError",
    "TargetDownError",
]


class DaosError(Exception):
    """Base class for all simulated DAOS errors."""

    #: Numeric code loosely mirroring DER_* values.
    code: int = -1000

    def __init__(self, message: str = "") -> None:
        super().__init__(message or type(self).__doc__)


class ContainerExistsError(DaosError):
    """Container with this label/uuid already exists (DER_EXIST)."""

    code = -1004


class ContainerNotFoundError(DaosError):
    """No such container (DER_NONEXIST)."""

    code = -1005


class ObjectNotFoundError(DaosError):
    """No such object in the container (DER_NONEXIST)."""

    code = -1005


class KeyNotFoundError(DaosError):
    """Key absent from Key-Value object (DER_NONEXIST)."""

    code = -1005


class NoSpaceError(DaosError):
    """Pool out of SCM space (DER_NOSPACE)."""

    code = -1007


class InvalidArgumentError(DaosError):
    """Malformed argument to a DAOS call (DER_INVAL)."""

    code = -1003


class SimulatedFaultError(DaosError):
    """Injected fault reproducing an instability the paper reports (§7)."""

    code = -1026


class LockTimeoutError(SimulatedFaultError):
    """Distributed lock request timed out under contention.

    Raised by the posixfs backend when an extent/flock request joins a
    conflict queue that already exceeds the configured depth — the Lustre
    LDLM ``-ETIMEDOUT``/evicted-client failure mode.  Subclassing
    :class:`SimulatedFaultError` keeps the taxonomy backend-agnostic: the
    client's retry backs off and re-requests, so ``FieldIO`` and
    the benches need no backend branching.
    """


class MetadataOverloadError(SimulatedFaultError):
    """Metadata server request queue overflowed (server overload).

    The posixfs analogue of a Lustre MDS dropping/abandoning requests under
    load (client sees ``-ENODEV``/timeout and retries).  Mapped onto
    :class:`SimulatedFaultError` so the existing retry-with-backoff
    of the client's attempt loop handles it identically to an injected RPC
    fault.
    """


class ServiceBusyError(SimulatedFaultError):
    """Request shed by admission control: the service is over capacity.

    Raised by the serving tier's QoS admission when a tenant is out of
    rate-limit tokens *and* its wait queue is already at the configured
    depth — the DER_BUSY/overload answer a gateway returns instead of
    letting queues grow without bound.  Subclassing
    :class:`SimulatedFaultError` makes the shed *retryable*: a client with
    the standard retry on backs off and re-offers the request (admission
    sits inside retry, so each re-offer pays a fresh token), while
    open-loop load generators may equally count the shed and move on.
    """

    code = -1012


class TargetDownError(DaosError):
    """Addressed target is DOWN/REBUILDING/EXCLUDED (DER_TGT_DOWN).

    Raised server-side before any functional state is touched, so the
    client's pool-map-refresh retry can safely re-route the op to a
    surviving replica (degraded read/write) — or surface the loss when the
    object has no surviving replica.
    """

    code = -1037
