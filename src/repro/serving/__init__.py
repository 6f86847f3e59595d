"""Product-serving tier: a MARS-style gateway over the field store.

The dissemination side of the NWP workflow (ROADMAP: "millions of users"):
users address freshly archived fields through MARS-style
:class:`~repro.fdb.request.Request` objects, which a :class:`Gateway`
expands and fans out to field reads.  Three mechanisms keep tail latency
bounded under zipf-skewed read traffic:

* a gateway-side :class:`FieldCache` keyed by field key (LRU in bytes,
  per-entry TTL for cycle rollover);
* per-tenant QoS admission (:class:`QosAdmissionMiddleware`) in the
  standard RPC middleware chain — token-bucket rate limits with
  queue-depth shedding via
  :class:`~repro.daos.errors.ServiceBusyError`;
* hot-object replication: fields hotter than a promotion threshold are
  re-archived under a replicated object class so storage reads spread
  across engines.
"""

from repro.serving.cache import FieldCache
from repro.serving.gateway import Gateway, GatewayConfig
from repro.serving.qos import QosAdmissionMiddleware, QosPolicy, TokenBucket

__all__ = [
    "FieldCache",
    "Gateway",
    "GatewayConfig",
    "QosAdmissionMiddleware",
    "QosPolicy",
    "TokenBucket",
]
