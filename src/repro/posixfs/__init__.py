"""Lustre-style shared POSIX file system backend.

A second storage model behind the ``StorageBackend`` protocol
(:mod:`repro.backends`), for A/B comparison against DAOS on the same
workloads (arXiv 2211.09162).  Three architectural differences carry the
comparison paper's story:

- **Single metadata server.** Every namespace operation (create, open,
  stat, unlink — and every KV op, which posixfs models as small files)
  funnels through one MDS resource with a handful of service threads,
  instead of DAOS's per-target distributed metadata.
- **Distributed lock manager.** Shared-file writes take server-granted
  extent locks (one per stripe cell) with Lustre LDLM client-side lock
  caching: re-acquiring a lock you already hold is free, but a conflicting
  acquire pays a revocation round trip per caching client plus conflict-
  queue churn — which is what collapses shared-file bandwidth at high
  client counts while file-per-process stays competitive.
- **OST striping.** Array data still stripes over the same simulated
  targets (now playing OSTs) and moves over the same fabric model, so the
  data-path hardware is held constant and only the semantics differ.

The backend reuses the DAOS client's op driver and middleware stages
unchanged: op metrics, tracing, seeded fault injection, retry and QoS
admission behave identically, and posixfs failure modes (lock timeout, MDS
overload) surface as :class:`~repro.daos.errors.SimulatedFaultError`
subclasses the retry middleware already understands.
"""

from repro.posixfs.config import PosixServiceConfig
from repro.posixfs.system import PosixSystem

__all__ = ["PosixServiceConfig", "PosixSystem"]
