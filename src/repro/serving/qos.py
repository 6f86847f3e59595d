"""Per-tenant QoS admission for the serving tier's RPC chains.

A :class:`QosAdmissionMiddleware` slots into the :mod:`repro.daos.rpc`
middleware stages of every storage client working for one tenant.
Admission is a deterministic token bucket over *simulated* time: each
covered op reserves one token; when the bucket is empty the op waits
exactly until its reserved token accrues (a virtual-clock reservation, so
concurrent waiters are spaced ``1/rate`` apart with no randomness), and
when the wait queue is already at the configured depth the op is shed with
a retryable :class:`~repro.daos.errors.ServiceBusyError` instead — bounded
queues, the gateway answer to overload.  Like every stage, the wait is a
leg (``yield <float>``) of the op's driver.

The middleware holds no reference to a simulator; like the other stages it
reads time from the client it is handling, so one instance can be shared
by all of a tenant's worker clients — which is precisely what makes the
limit *per tenant* rather than per connection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.daos.errors import ServiceBusyError
from repro.daos.rpc import Middleware, Request

__all__ = ["QosPolicy", "TokenBucket", "QosAdmissionMiddleware"]


@dataclass(frozen=True)
class QosPolicy:
    """Admission limits for one tenant."""

    #: Sustained admitted ops per simulated second.
    rate: float
    #: Bucket capacity: ops admitted back-to-back after an idle spell.
    burst: float = 1.0
    #: Waiters tolerated before further ops are shed (0 = shed immediately
    #: whenever the bucket is empty).
    max_queue_depth: int = 8

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {self.burst}")
        if self.max_queue_depth < 0:
            raise ValueError(
                f"max_queue_depth must be >= 0, got {self.max_queue_depth}"
            )


class TokenBucket:
    """Deterministic sim-time token bucket with virtual-clock reservations.

    ``reserve(now)`` always succeeds and returns the wait until the
    reserved token is available (0.0 when the bucket holds one).  The level
    may go negative — each unit of debt is one outstanding reservation —
    which is what spaces concurrent waiters ``1/rate`` apart without any
    shared queue structure.  ``cancel(now)`` returns a token when a
    reservation is abandoned (the shed path), so sheds do not consume
    future capacity.
    """

    __slots__ = ("rate", "burst", "_level", "_last")

    def __init__(self, rate: float, burst: float = 1.0) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = rate
        self.burst = burst
        self._level = burst
        self._last = 0.0

    def _refill(self, now: float) -> None:
        if now > self._last:
            self._level = min(self.burst, self._level + (now - self._last) * self.rate)
            self._last = now

    def reserve(self, now: float) -> float:
        """Take one token; returns seconds to wait until it is available."""
        self._refill(now)
        self._level -= 1.0
        if self._level >= 0.0:
            return 0.0
        return -self._level / self.rate

    def cancel(self, now: float) -> None:
        """Return an abandoned reservation's token."""
        self._refill(now)
        self._level = min(self.burst, self._level + 1.0)

    @property
    def level(self) -> float:
        return self._level

    @property
    def waiting_debt(self) -> int:
        """Outstanding reservations not yet due (negative level, rounded up)."""
        return max(0, -int(self._level // 1.0)) if self._level < 0 else 0


class QosAdmissionMiddleware(Middleware):
    """Token-bucket admission + queue-depth shedding for one tenant.

    Installed in front of tracing in each worker client's stages;
    ops outside ``ops`` (when given) pass through untouched, so the
    gateway meters one token per *field read* by covering only the index
    lookup (``kv_get``) — shedding happens before any bulk array work.
    """

    def __init__(
        self,
        tenant: str,
        policy: QosPolicy,
        ops: Optional[Iterable[str]] = None,
    ) -> None:
        self.tenant = tenant
        self.policy = policy
        self.ops = frozenset(ops) if ops is not None else None
        self.bucket = TokenBucket(policy.rate, policy.burst)
        #: Ops currently parked on the bucket (the shed threshold input).
        self.waiting = 0
        self.admitted = 0
        self.delayed = 0
        self.shed = 0
        self.max_waiting = 0

    def _tokens_for(self, request: Request) -> int:
        """Tokens the request must reserve: 0 = pass through unmetered.

        A vectorized multi-op submit carries its sub-requests on the
        wrapper (``request.subrequests``); each covered sub-op costs one
        token, so batching N index lookups into one RPC still pays the N
        tokens the sequential path would — the per-field-read limit cannot
        be laundered through batching.
        """
        ops = self.ops
        if ops is None or request.op in ops:
            return 1
        subs = request.subrequests
        if subs:
            return sum(1 for sub in subs if sub.op in ops)
        return 0

    def handle(self, client, request: Request, call):
        tokens = self._tokens_for(request)
        if tokens == 0:
            result = yield from call(client, request)
            return result
        now = client.sim.now
        bucket = self.bucket
        wait = bucket.reserve(now)
        for _ in range(tokens - 1):
            # Later reservations are strictly later on the virtual clock,
            # so the last one bounds the whole batch's wait.
            wait = bucket.reserve(now)
        if wait > 0.0:
            if self.waiting >= self.policy.max_queue_depth:
                self.shed += 1
                for _ in range(tokens):
                    bucket.cancel(now)
                client.sim.record(
                    "qos_shed", tenant=self.tenant, op=request.op, wait=wait
                )
                raise ServiceBusyError(
                    f"tenant {self.tenant!r} over rate limit "
                    f"({self.waiting} already queued)"
                )
            self.delayed += 1
            self.waiting += 1
            if self.waiting > self.max_waiting:
                self.max_waiting = self.waiting
            try:
                yield wait
            finally:
                self.waiting -= 1
        self.admitted += tokens
        result = yield from call(client, request)
        return result
