"""Pool health: the versioned pool map and the engine-failure monitor.

Real DAOS maintains a *pool map* — a versioned description of every target's
health — replicated to clients and bumped on each state transition.  Clients
stamp I/O with the map version they hold; a server that has moved on rejects
the RPC and the client refetches the map before retrying.  This module
models that machinery:

* :class:`TargetState` / :class:`PoolMap` — per-target UP / DOWN /
  REBUILDING / EXCLUDED states with a monotonically increasing version;
* :class:`PoolMapView` — the immutable snapshot a client caches;
* :func:`health_monitor` — the background process applying a deterministic
  :class:`~repro.config.EngineFailureEvent` schedule (engine loss and
  reintegration) and kicking the rebuild service;
* :func:`seeded_failure_schedule` — derive a reproducible schedule from a
  seed, so "random" failures replay identically across runs.

The state machine per target follows real rebuild closely enough for the
benchmarks: UP --fail--> DOWN --rebuild starts--> REBUILDING --rebuild
done--> EXCLUDED --reintegrate--> UP.  Every transition bumps the map
version exactly once per event, however many targets it covers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, FrozenSet, Iterable, List, Optional, Tuple

from repro.config import EngineFailureEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.daos.system import DaosSystem

__all__ = [
    "TargetState",
    "PoolMap",
    "PoolMapView",
    "health_monitor",
    "seeded_failure_schedule",
]


class TargetState(Enum):
    """Health of one pool target (mirrors DAOS pool-map component states)."""

    UP = "up"
    DOWN = "down"
    REBUILDING = "rebuilding"
    EXCLUDED = "excluded"

    @property
    def available(self) -> bool:
        """Whether the target can service I/O in this state."""
        return self is TargetState.UP


@dataclass(frozen=True)
class PoolMapView:
    """The immutable pool-map snapshot a client caches.

    ``unavailable`` is every target not currently UP; clients route reads to
    surviving replicas and skip down replicas on write using exactly this
    set, and compare ``version`` against the authoritative map to decide
    whether a refresh can help after a :class:`~repro.daos.errors.TargetDownError`.
    """

    version: int
    unavailable: FrozenSet[int]

    def is_up(self, target_index: int) -> bool:
        return target_index not in self.unavailable


#: The view held by clients of a health-disabled system: version 1, all up.
HEALTHY_VIEW = PoolMapView(version=1, unavailable=frozenset())


class PoolMap:
    """Versioned per-target health states (the authoritative server copy)."""

    def __init__(self, n_targets: int) -> None:
        if n_targets < 1:
            raise ValueError(f"pool map needs >= 1 target, got {n_targets}")
        self.n_targets = n_targets
        self.version = 1
        self._states: List[TargetState] = [TargetState.UP] * n_targets
        self._view: Optional[PoolMapView] = PoolMapView(1, frozenset())

    def state(self, target_index: int) -> TargetState:
        return self._states[target_index]

    def is_up(self, target_index: int) -> bool:
        return self._states[target_index] is TargetState.UP

    @property
    def unavailable(self) -> FrozenSet[int]:
        """Targets that cannot service I/O (anything not UP)."""
        return self.snapshot().unavailable

    def snapshot(self) -> PoolMapView:
        """The current immutable view (cached between version bumps)."""
        view = self._view
        if view is None:
            self._view = view = PoolMapView(
                self.version,
                frozenset(
                    i
                    for i, state in enumerate(self._states)
                    if state is not TargetState.UP
                ),
            )
        return view

    def set_state(self, targets: Iterable[int], state: TargetState) -> int:
        """Transition ``targets`` to ``state``; one version bump per call.

        Returns the new map version.  No-op transitions still bump the
        version — real pool-map updates are events, not diffs.
        """
        for target in targets:
            self._states[target] = state
        self.version += 1
        self._view = None
        return self.version

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        down = [i for i, s in enumerate(self._states) if s is not TargetState.UP]
        return f"<PoolMap v{self.version} {self.n_targets} targets, not-up={down}>"


def seeded_failure_schedule(
    seed: int,
    n_engines: int,
    n_failures: int = 1,
    window: Tuple[float, float] = (0.0, 1.0),
    reintegrate_after: Optional[float] = None,
) -> Tuple[EngineFailureEvent, ...]:
    """Derive a deterministic failure schedule from a seed.

    Failure times land uniformly in ``window`` and engines are picked
    without repetition (until every engine has failed once) — both via
    SHA-256 over the seed, so the schedule is independent of every other
    random stream and replays identically across processes.  When
    ``reintegrate_after`` is given, each failed engine comes back that many
    seconds after its failure.
    """
    if n_engines < 1:
        raise ValueError("need at least one engine")
    if n_failures < 0:
        raise ValueError("n_failures must be non-negative")
    lo, hi = window
    if hi < lo:
        raise ValueError(f"window must be ordered, got {window}")
    events: List[EngineFailureEvent] = []
    failed: List[int] = []
    for index in range(n_failures):
        digest = hashlib.sha256(f"health/{seed}/{index}".encode("utf-8")).digest()
        fraction = int.from_bytes(digest[:8], "little") / float(1 << 64)
        at = lo + fraction * (hi - lo)
        candidates = [e for e in range(n_engines) if e not in failed] or list(
            range(n_engines)
        )
        engine = candidates[int.from_bytes(digest[8:16], "little") % len(candidates)]
        failed.append(engine)
        events.append(EngineFailureEvent(at=at, engine=engine, kind="fail"))
        if reintegrate_after is not None:
            events.append(
                EngineFailureEvent(
                    at=at + reintegrate_after, engine=engine, kind="reintegrate"
                )
            )
    events.sort(key=lambda e: (e.at, e.engine, e.kind))
    return tuple(events)


def health_monitor(system: "DaosSystem"):
    """The background process applying the failure schedule.

    Drives each :class:`~repro.config.EngineFailureEvent` at its scheduled
    time (relative to when the schedule was armed): engine failure marks the
    engine's targets DOWN, bumps the map version, and hands the down set to
    the rebuild service; reintegration brings the targets back UP.  All
    transitions are trace-recorded so ``--trace-out`` runs show the health
    timeline alongside the RPC spans.
    """
    sim = system.cluster.sim
    armed_at = sim.now
    for event in sorted(system.config.health.events, key=lambda e: (e.at, e.engine)):
        due = armed_at + event.at
        if due > sim.now:
            yield due - sim.now
        if event.engine >= len(system.engines):
            raise ValueError(
                f"failure schedule names engine {event.engine}, but the "
                f"deployment has {len(system.engines)}"
            )
        engine = system.engines[event.engine]
        targets = [target.global_index for target in engine.targets]
        if event.kind == "fail":
            engine.fail()
            version = system.pool_map.set_state(targets, TargetState.DOWN)
            sim.record(
                "engine_fail",
                engine=event.engine,
                targets=targets,
                map_version=version,
            )
            if system.rebuild is not None:
                system.rebuild.on_engine_failure(event.engine, targets)
        else:
            engine.reintegrate()
            version = system.pool_map.set_state(targets, TargetState.UP)
            sim.record(
                "engine_reintegrate",
                engine=event.engine,
                targets=targets,
                map_version=version,
            )
