"""Link-utilisation telemetry: find the binding constraint of a workload.

A :class:`LinkSampler` runs as a simulation process, periodically recording
every link's instantaneous utilisation and flow count.  After (or during) a
run, :meth:`report` ranks links by mean utilisation — the saturated ones are
the workload's bottleneck, which is how the experiments' "who binds where"
claims can be inspected rather than guessed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.network.flow import FlowNetwork
from repro.simulation.core import Simulator

__all__ = ["LinkUtilisation", "LinkSampler"]


@dataclass
class LinkUtilisation:
    """Aggregated samples for one link."""

    name: str
    samples: int = 0
    total_utilisation: float = 0.0
    max_utilisation: float = 0.0
    max_flows: int = 0

    @property
    def mean_utilisation(self) -> float:
        if self.samples == 0:
            return 0.0
        return self.total_utilisation / self.samples

    def record(self, utilisation: float, flows: int) -> None:
        self.samples += 1
        self.total_utilisation += utilisation
        self.max_utilisation = max(self.max_utilisation, utilisation)
        self.max_flows = max(self.max_flows, flows)


class LinkSampler:
    """Periodic sampler over all links of a flow network.

    Start before the workload; the sampling process wakes every
    ``interval`` simulated seconds while the simulation runs.  Samples taken
    when a link is idle still count toward the mean (idle time is real), but
    a run's leading dead time can be skipped by starting the sampler when
    the workload starts.
    """

    def __init__(self, sim: Simulator, net: FlowNetwork, interval: float = 0.002):
        if interval <= 0:
            raise ValueError(f"sampling interval must be positive, got {interval}")
        self.sim = sim
        self.net = net
        self.interval = interval
        self.stats: Dict[str, LinkUtilisation] = {}
        self._running = False

    def start(self) -> None:
        """Begin sampling (idempotent)."""
        if self._running:
            return
        self._running = True
        self.sim.process(self._sample_loop(), name="link-sampler")

    def stop(self) -> None:
        """Stop sampling at the next wake-up."""
        self._running = False

    def _sample_loop(self):
        while self._running:
            for name, link in self.net.links.items():
                stat = self.stats.get(name)
                if stat is None:
                    stat = self.stats[name] = LinkUtilisation(name)
                stat.record(link.utilisation, link.n_flows)
            yield self.sim.timeout(self.interval)

    # -- reporting --------------------------------------------------------------
    def report(self, top: int = 10, prefix: Optional[str] = None) -> List[LinkUtilisation]:
        """The ``top`` links by mean utilisation (optionally name-filtered)."""
        candidates = [
            stat
            for stat in self.stats.values()
            if prefix is None or stat.name.startswith(prefix)
        ]
        candidates.sort(key=lambda s: s.mean_utilisation, reverse=True)
        return candidates[:top]

    def bottleneck(self) -> Optional[LinkUtilisation]:
        """The most-utilised link overall, or None before any samples."""
        ranked = self.report(top=1)
        return ranked[0] if ranked else None
