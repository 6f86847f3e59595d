"""Max-min fair fluid-flow bandwidth sharing.

Every bulk data movement in the simulation is a :class:`Flow` across a path
of :class:`Link` objects.  Concurrent flows share link capacity according to
*max-min fairness* computed by progressive filling (water-filling), the
classical model of how congestion-controlled transports divide a network.
Per-flow rate caps model single-stream transport limits (e.g. a single OFI
TCP stream saturating at ~3.1 GiB/s regardless of link capacity).

Whenever a flow starts or finishes, rates are recomputed and every active
flow's completion time is rescheduled.  Between recomputations rates are
constant, so progress is exact (no per-packet events), which keeps the event
count proportional to the number of transfers rather than the number of
bytes.

Performance notes (the kernel fast path).  Two kernels
compute the same allocation — :meth:`FlowNetwork._solve_scalar` over
(path, cap) groups in pure Python, :meth:`FlowNetwork._solve_vector` over
flows in numpy — and the network picks between them from what it can
observe (the live groups and the flows in a solve's scope), never from a
setting:

* **Same-instant batching.**  All flow-set changes at one simulated
  timestamp — a synchronised wave of arrivals, a batch of completions, and
  the replacement flows those completions trigger — are coalesced into one
  dirty set, and the solver runs **once per instant** via the simulator's
  end-of-instant flush hook (:meth:`Simulator.request_flush`).  The
  zero-duration intermediate rate states a change-by-change solver would
  produce are unobservable (no time passes between them), so completion
  times are bit-identical while synchronised waves cost O(1) solves instead
  of O(flows-per-wave).  ``solver_runs`` vs ``flow_changes`` measures this.
* **Scoped recomputation.**  A batch of changes only perturbs the connected
  component of links/flows it touches; rates outside that component are
  left untouched.  Within a component the arithmetic is the exact
  water-filling recurrence — results are bit-identical to the reference
  algorithm (see ``tests/network/test_flow_reference.py``).
* **Flow groups.**  Flows sharing an identical link path and rate cap form
  one :class:`FlowGroup`: the IOR pattern — N synchronised writers on the
  same client→engine path — is O(distinct paths) rows to the scalar kernel
  instead of O(N).  The coalescing is exact, not approximate.  Same-group
  flows have bitwise-identical per-round bounds (the same minimum over the
  same link shares and cap), so the textbook per-flow pass fixes them in
  the same round at the same rate; a group-level pass fixes the group once
  and replays each link's per-member capacity debits as the identical
  subtract/clamp chain.  That pass interleaves the steps of different
  groups, but every step of a round subtracts the same non-negative round
  minimum, so a link's result depends only on its step *count* — and once
  a clamp fires the value is pinned at 0.0 for the rest of the round
  (0.0 - m clamps back to 0.0).
* **The scalar kernel, link-driven.**  It serves every solve outside the
  arena, and every arena solve with fewer than ``_VEC_SOLVE_MIN`` live
  groups or fewer than ``_VEC_SOLVE_MIN`` flows in scope.  In the paper's
  Field I/O regime (~6 flows in ~6 groups over ~29 links, 2–3 filling
  rounds) and in every synchronised storm (100k flows on 20 paths) that
  is every solve.
  Two incrementally maintained aggregates make it cheap: ``Link.groups``
  (group -> multiplicity, touched only when a group appears or disappears)
  lets one traversal discover the perturbed component *and* initialise its
  links, and ``Link.n_occ`` (path occurrences on the link) is each link's
  initial divisor.  A link only one group crosses cannot change its share
  before that group fixes, so it is divided once and folded into the
  group's effective cap; rounds then visit only the *shared* links.  Per
  round the minimum is the least shared-link share or unfixed effective
  cap, and exactly the groups on a link at or under the tie threshold,
  plus those capped at or under it, fix — the same set the per-group scan
  ``min(shares along path, cap) <= threshold`` selects, since a minimum is
  at or under the threshold iff one of its operands is.  Every quotient is
  the same ``cap_left / n_unfixed`` division, every minimum is a pure
  (order-independent) minimum, and every surviving link takes the same
  number of debit steps, so the result equals the per-flow reference bit
  for bit; the only work skipped is debits nobody reads (links emptied
  this round, the final round).
* **The arena and the vector kernel.**  At the first flush that sees
  ``_VEC_ON`` live flows the network moves its hot state into a compact
  numpy arena, and keeps it there for the rest of its life (a one-way
  switch of *mode*; its storage is not kept: when the last live flow
  retires the arena drops its arrays, scratch and membership dicts, and
  the next wave regrows them): per-flow remaining/rate arrays are kept
  dense by
  swap-deleting completed flows, and each flow's path lives in one column
  of a fixed-stride incidence matrix padded with a sentinel "link" whose
  fair share is pinned to +inf.  Progress debits, completion scans and
  component discovery are then a handful of whole-array operations each —
  no per-flow Python.  An arena solve with at least ``_VEC_SOLVE_MIN``
  live groups *and* at least ``_VEC_SOLVE_MIN`` flows in scope (the wide
  Field I/O regime: hundreds of processes on *distinct* client→engine
  paths) runs ``_solve_vector``, the textbook per-flow pass as array
  operations; any other stays on the scalar kernel, which then writes a
  rate per group row (``_g_rate``) for ``_fan_out`` to scatter over the
  flow columns.  The vector scoper keeps no topology of its own: it
  expands the dirty seeds through the incidence matrix itself, so the
  arena holds nothing the membership bookkeeping must keep in step.
  Every floating-point operation matches the scalar kernel bit for bit
  (``tests/network/test_flow_vector.py``); DESIGN.md §6 has the
  measurements behind the thresholds and behind one array kernel, not two.
* **One wake-up per solve, a bare entry.**  Each flush arms a
  :class:`~repro.simulation.events.Wake` for the earliest projected
  completion through ``sim._schedule`` (the queue slot a ``Timeout`` of
  that delay would take, with no callback list); a wake a later solve
  superseded still fires, and is dropped by one identity test.

Determinism is a hard constraint: identical seeds produce bit-identical
timestamp logs, guarded by golden digests in
``tests/bench/test_determinism.py``.
"""

from __future__ import annotations

import math
from itertools import count
from operator import attrgetter
from sys import intern as _sintern
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.simulation.core import Simulator
from repro.simulation.events import Event, Wake

__all__ = ["Link", "Flow", "FlowGroup", "FlowNetwork"]

#: Flows with fewer remaining bytes than this are considered complete.
#: Well below one byte, comfortably above double-precision noise for the
#: byte counts (<= 2**50) and rates used here.
_EPSILON_BYTES = 1e-3

_INF = math.inf

#: Active-flow population at whose first flush the network moves its hot
#: state into the numpy arena, where it stays: a population that drains
#: keeps the arena mode (and its array scans; only the storage goes), so
#: nothing hovering around the boundary can thrash between representations.
_VEC_ON = 96

#: Minimum size for a vectorized pass to beat scalar Python: solves with
#: fewer rows (live groups, or flows in scope) stay on the scalar kernel
#: even while the arena is active, and it folds debit chains this long in
#: numpy.
_VEC_SOLVE_MIN = 40


#: The arrays a drained (or fresh) arena points at: size 0, so nothing
#: ever writes into them, and each is replaced when it is grown.
_NO_FLOATS = np.zeros(0)
_NO_INTS = np.zeros(0, dtype=np.int64)
_NO_BOOLS = np.zeros(0, dtype=bool)

#: C-level sort key for completion ordering (hot at 100k-flow batches).
_fid_of = attrgetter("fid")

#: C-level sort key ordering a scalar solve's groups by effective cap.
_bound_of = attrgetter("_bound")


class Link:
    """A unidirectional capacity-limited network element.

    ``capacity`` is in bytes/second.  A link knows the aggregation groups
    currently crossing it (``groups``, mapped to their path multiplicity)
    and how many path occurrences share it (``n_occ``); the
    :class:`FlowNetwork` maintains both and solves from them.  The per-flow
    view ``flows`` is derived from the groups on demand.

    ``capacity_fn``, if given, makes the capacity depend on the number of
    concurrent flows: ``effective = min(capacity, capacity_fn(n_flows))``.
    This models transports whose aggregate throughput varies with stream
    count (e.g. kernel TCP over a fast fabric, Table 2 of the paper).
    """

    __slots__ = (
        "name",
        "capacity",
        "capacity_fn",
        "groups",
        "n_occ",
        "n_amplified",
        "idx",
        # Memoised capacity_fn evaluations (the provider curves are pure
        # functions of the stream count, which repeats heavily).
        "_fn_cache",
        # Water-filling working state, valid within one scalar solve
        # (_epoch stamps which solve initialised it as a *shared* link).
        "_cap_left",
        "_n_unfixed",
        "_share",
        "_epoch",
    )

    def __init__(
        self, name: str, capacity: float, capacity_fn=None, idx: int = -1
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"link capacity must be positive, got {capacity}")
        self.name = name
        self.capacity = float(capacity)
        self.capacity_fn = capacity_fn
        self.idx = idx
        # Built only for a link with a curve: a plain link never reads it.
        self._fn_cache: Optional[Dict[int, float]] = (
            None if capacity_fn is None else {}
        )
        #: Live aggregation groups crossing this link -> occurrences of the
        #: link in their path (write amplification); touched only when a
        #: group appears or disappears.
        self.groups: Dict["FlowGroup", int] = {}
        #: Path occurrences sharing the link — the sum of ``flows``' values,
        #: i.e. water-filling's initial divisor — kept per member flow.
        self.n_occ = 0
        #: How many of ``groups`` list the link more than once; while zero,
        #: every flow occupies it once and the flow count equals ``n_occ``.
        self.n_amplified = 0
        self._cap_left = 0.0
        self._n_unfixed = 0
        self._share = 0.0
        self._epoch = -1

    @property
    def n_flows(self) -> int:
        """Number of distinct flows currently crossing the link."""
        if not self.n_amplified:
            return self.n_occ
        return sum(group.n for group in self.groups)

    @property
    def flows(self) -> Dict["Flow", int]:
        """Flows crossing the link -> their path multiplicity.

        A snapshot in admission order (fids are assigned at admission), so
        iteration is reproducible run to run.
        """
        pairs = [
            (flow, mult)
            for group, mult in self.groups.items()
            for flow in group.members
        ]
        pairs.sort(key=lambda pair: pair[0].fid)
        return dict(pairs)

    def effective_capacity(self, n_flows: Optional[int] = None) -> float:
        """Capacity given ``n_flows`` concurrent streams (default: current)."""
        if self.capacity_fn is None:
            return self.capacity
        if n_flows is None:
            n_flows = self.n_flows
        cached = self._fn_cache.get(n_flows)
        if cached is None:
            cached = min(self.capacity, float(self.capacity_fn(n_flows)))
            self._fn_cache[n_flows] = cached
        return cached

    @property
    def utilisation(self) -> float:
        """Instantaneous utilisation in [0, 1] given current flow rates.

        A flow listing this link more than once (write amplification)
        consumes capacity per occurrence, and is counted accordingly.
        """
        if not self.groups:
            return 0.0
        consumed = sum(f.rate * mult for f, mult in self.flows.items())
        return min(1.0, consumed / self.effective_capacity())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link {self.name!r} cap={self.capacity:.3g} B/s {self.n_flows} flows>"


class FlowGroup:
    """All in-flight flows sharing one exact (path, rate_cap) signature.

    Same-group flows are indistinguishable to the water-filling solver —
    each round they see the same link shares and the same cap, so they
    carry bitwise-identical bounds and always fix together at the round
    minimum.  The scalar kernel therefore works on groups (one row, weight
    ``n``) and fans the result back out to the members.

    The grouping key is the exact tuple of link indices, multiplicity and
    order included; path-less (rate-cap-only) flows get a singleton group
    each, because they are isolated components that may be solved in
    different scopes and so cannot be assumed to share a rate.

    ``gid`` is the group's row in the group arena (where the scalar kernel
    leaves its rate) while the arena is active, -1 otherwise.
    """

    __slots__ = (
        "key",
        "path",
        "occ_items",
        "rate_cap",
        "members",
        "n",
        "gid",
        # Scalar-solve scratch: which solve discovered the group, whether
        # it is still unfixed there, and its effective cap (rate cap folded
        # with the shares of the links no other group crosses).
        "_epoch",
        "_unfixed",
        "_bound",
    )

    def __init__(self, key, path: Tuple["Link", ...], rate_cap: float) -> None:
        self.key = key
        self.path = path
        #: Distinct links of the path with their multiplicities, computed
        #: once per group so member admission/retirement does per-link dict
        #: writes without re-deriving multiplicity per flow.
        counts: Dict["Link", int] = {}
        for link in path:
            counts[link] = counts.get(link, 0) + 1
        self.occ_items: Tuple[Tuple["Link", int], ...] = tuple(counts.items())
        self.rate_cap = rate_cap
        #: Active member flows (insertion-ordered); the scalar kernel fans
        #: a fixed group's rate out through this set.
        self.members: Dict["Flow", None] = {}
        #: ``len(members)``, kept as a plain int for the solver's hot reads.
        self.n = 0
        self.gid = -1
        self._epoch = -1
        self._unfixed = False
        self._bound = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FlowGroup n={self.n} cap={self.rate_cap:.3g} key={self.key!r}>"


class Flow:
    """One in-flight bulk transfer.

    Attributes of interest once finished: ``start_time``, ``end_time`` and
    ``mean_rate`` (bytes/second averaged over the flow's lifetime).

    While in flight, ``remaining``/``rate`` read through to wherever the
    owning network keeps its hot state (plain attributes in scalar mode, the
    numpy arena in vector mode).
    """

    __slots__ = (
        "fid",
        "name",
        "path",
        "size",
        "rate_cap",
        "start_time",
        "end_time",
        # Completion event; cleared (None) once it fires so a finished
        # flow and its event are not a reference cycle (see _on_wake).
        "done",
        # The (path, rate_cap) aggregation group this flow belongs to while
        # active; None before start and after completion.
        "group",
        # Arena row while the vector arena holds this flow; -1 when the
        # scalar attributes are authoritative.
        "pos",
        "_net",
        # Scalar-mode hot state (authoritative while ``pos`` is -1).
        "_rem",
        "_rate",
    )

    def __init__(
        self,
        fid: int,
        path: Tuple[Link, ...],
        size: float,
        rate_cap: float,
        done: Event,
        name: str = "",
    ) -> None:
        self.fid = fid
        self.name = name
        self.path = path
        self.size = float(size)
        self.rate_cap = float(rate_cap)
        self.start_time: float = math.nan
        self.end_time: Optional[float] = None
        self.done = done
        self.group: Optional[FlowGroup] = None
        self.pos = -1
        self._net: Optional["FlowNetwork"] = None
        self._rem = float(size)
        self._rate = 0.0

    @property
    def remaining(self) -> float:
        """Bytes left to move (as of the owning network's last advance)."""
        if self.pos >= 0:
            return float(self._net._rem_v[self.pos])
        return self._rem

    @property
    def rate(self) -> float:
        """Current allocated rate in bytes/second."""
        if self.pos >= 0:
            return float(self._net._rate_v[self.pos])
        return self._rate

    @property
    def mean_rate(self) -> float:
        """Average transfer rate over the flow lifetime (bytes/second)."""
        if self.end_time is None:
            raise RuntimeError("flow has not finished")
        elapsed = self.end_time - self.start_time
        if elapsed <= 0.0:
            return math.inf
        return self.size / elapsed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Flow #{self.fid} {self.name!r} {self.remaining:.0f}/{self.size:.0f} B "
            f"@ {self.rate:.3g} B/s>"
        )


class FlowNetwork:
    """Tracks active flows over a set of links and advances them in time.

    One instance serves the whole simulated cluster.  Links are created via
    :meth:`add_link`; transfers are started with :meth:`transfer`, which
    returns an event that succeeds (with the finished :class:`Flow`) once
    the last byte has moved.

    Nothing about the solver is settable: the flow population decides where
    the hot state lives (the arena from the first flush with ``_VEC_ON``
    live flows on, for good), and the smaller of the live groups and the
    flows in a solve's scope decides which of the two bit-identical kernels
    runs it (``_VEC_SOLVE_MIN``); see the module docstring.
    """

    #: Flows cancelled mid-flight.  Nothing cancels a flow, so this is the
    #: constant 0; the name stays readable because the end-to-end ledger
    #: reports it.
    evicted_flows = 0

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        #: Live path-less (rate-cap-only) flows; while zero, the vector
        #: scoper may prove full coverage from the link count alone.
        self._pathless_active = 0
        #: Links crossed by at least one live group; with no path-less flow
        #: alive, a component covering this many links covers every flow.
        self._n_occupied = 0
        self.links: Dict[str, Link] = {}
        self._link_list: List[Link] = []
        self._fn_links: List[Link] = []
        self._fid = count()
        self._last_advance: float = sim.now
        #: Links whose flow set changed since the last solve; their
        #: connected component is what the next solve rescopes to.
        self._dirty: Dict[Link, None] = {}
        #: Flows that arrived since the last solve.  Usually redundant
        #: with the dirty links, but a path-less (rate-cap-only) flow forms
        #: its own component and is only reachable through this seed set.
        self._dirty_flows: Dict[Flow, None] = {}
        #: The currently armed wake-up; one from a superseded solve is no
        #: longer this one and is dropped.
        self._wake: Optional[Wake] = None
        #: Monotonic stamp marking which scalar solve discovered a group or
        #: initialised a shared link's water-filling working state.
        self._epoch = 0
        #: Whether this instant's solve is already queued with the
        #: simulator's end-of-instant flush.  All flow-set changes at one
        #: timestamp — however many generations of same-instant events they
        #: span — fold into that single solve.
        self._recompute_pending = False
        #: Statistics: total completed flows and bytes moved.
        self.completed_flows = 0
        self.completed_bytes = 0.0
        #: Instrumentation: water-filling solver invocations and flow-set
        #: changes (arrivals + departures).  ``solver_runs`` well below
        #: ``flow_changes`` is the same-instant batching at work.
        self.solver_runs = 0
        self.vector_solves = 0
        self.flow_changes = 0
        self.mode_switches = 0
        # -- static link capacities (indexed by Link.idx) ------------------
        self._cap_a = np.zeros(0)
        # -- flow arena (compact; columns [0, _n_live) are the live flows) -
        self._vector = False
        self._n_live = 0
        self._stride = 4
        self._pad = 0
        self._release_arena()  # a fresh network holds an empty arena

    # -- topology ------------------------------------------------------------
    def add_link(self, name: str, capacity: float, capacity_fn=None) -> Link:
        """Create and register a link; names must be unique."""
        if name in self.links:
            raise ValueError(f"duplicate link name {name!r}")
        idx = len(self._link_list)
        link = Link(name, capacity, capacity_fn=capacity_fn, idx=idx)
        self.links[name] = link
        self._link_list.append(link)
        if idx >= self._cap_a.size:
            grown = np.zeros(max(64, 2 * self._cap_a.size))
            grown[: self._cap_a.size] = self._cap_a
            self._cap_a = grown
        self._cap_a[idx] = link.capacity
        if capacity_fn is not None:
            self._fn_links.append(link)
        if self._vector:
            # The sentinel pad index must stay one past the largest real
            # link index; re-point existing pad entries at the new sentinel
            # (their old value is exactly this link's index).
            live = self._occ_t[:, : self._n_live]
            live[live == self._pad] = idx + 1
        self._pad = idx + 1
        return link

    # -- transfers -----------------------------------------------------------
    def transfer(
        self,
        path: Sequence[Link],
        nbytes: float,
        rate_cap: float = math.inf,
        name: str = "",
    ) -> Event:
        """Start a flow of ``nbytes`` along ``path``.

        Returns an event that succeeds with the :class:`Flow` when the
        transfer completes.  Zero-byte transfers complete on the next
        simulator step without touching the links.
        """
        # Negated comparisons so NaN (for which every ordering test is
        # false) is rejected instead of poisoning its component's rates.
        if not nbytes >= 0:
            raise ValueError(f"transfer size must be non-negative, got {nbytes}")
        if not rate_cap > 0:
            raise ValueError(f"rate cap must be positive, got {rate_cap}")
        sim = self.sim
        # Interned: flows overwhelmingly reuse a handful of role names, so
        # a 100k-flow wave allocates a handful of strings instead of 100k.
        done = Event(sim, name=_sintern("flow:" + name) if name else "flow:")
        tpath = tuple(path)
        flow = Flow(next(self._fid), tpath, nbytes, rate_cap, done, name=name)
        flow.start_time = now = sim._now
        if nbytes == 0:
            flow.end_time = now
            flow.done = None  # break the flow<->event cycle (see _retire)
            done.succeed(flow)
            return done
        if not tpath and not math.isfinite(rate_cap):
            raise ValueError("a flow needs a non-empty path or a finite rate cap")
        if now > self._last_advance:
            self._advance_to_now()
        self.flow_changes += 1
        self._admit(flow)
        self._schedule_recompute()
        return done

    @property
    def active_flows(self) -> int:
        """Number of flows currently in flight."""
        return len(self._active)

    @property
    def active_groups(self) -> int:
        """Number of distinct (path, rate_cap) aggregation groups in flight."""
        return len(self._groups)

    # -- membership bookkeeping (every arrival and departure goes through) ---
    def _admit(self, flow: Flow) -> None:
        """Enter ``flow`` into the active set, its links and its group."""
        tpath = flow.path
        flow._net = self
        self._active[flow] = None
        # Marking the flow dirty is enough to seed the recompute scope:
        # both scopers expand from a dirty flow's own group, so arrivals do
        # not need per-link dirty marks.
        self._dirty_flows[flow] = None
        # Links hash by identity, so the link tuple itself is the path key;
        # a path-less flow gets a singleton group (see FlowGroup).
        key = (tpath, flow.rate_cap) if tpath else flow.fid
        group = self._groups.get(key)
        if group is None:
            self._groups[key] = group = FlowGroup(key, tpath, flow.rate_cap)
            for link, mult in group.occ_items:
                if not link.groups:
                    self._n_occupied += 1
                link.groups[group] = mult
                if mult > 1:
                    link.n_amplified += 1
            if not tpath:
                self._pathless_active += 1
        for link, mult in group.occ_items:
            link.n_occ += mult
        group.members[flow] = None
        group.n += 1
        flow.group = group

    def _retire(self, flows: List[Flow]) -> None:
        """Take ``flows`` (all active, all finished) out of the network.

        The one departure path: completed flows leave their links, groups
        and arena columns here with their remaining bytes zeroed, then
        succeed their done events after this instant's solve has been
        queued.
        """
        now = self.sim.now
        active = self._active
        dirty = self._dirty
        groups = self._groups
        # Above the threshold, arena columns are compacted in one vectorized
        # pass instead of one swap-delete per flow (see _evict_batch).
        batch = self._vector and len(flows) >= 64
        done_pos: List[int] = []
        # Dirty-marking is per *group*: a 100k-flow batch touches the same
        # handful of links, so mark each link once up front.
        for group in {flow.group: None for flow in flows}:
            for link, _ in group.occ_items:
                dirty[link] = None
        for flow in flows:
            del active[flow]
            group = flow.group
            for link, mult in group.occ_items:
                link.n_occ -= mult
            del group.members[flow]
            group.n -= 1
            if group.n == 0:
                del groups[group.key]
                for link, mult in group.occ_items:
                    del link.groups[group]
                    if not link.groups:
                        # A fresh dict: an emptied one keeps its grown table.
                        link.groups = {}
                        self._n_occupied -= 1
                    if mult > 1:
                        link.n_amplified -= 1
                if not group.path:
                    self._pathless_active -= 1
                if group.gid >= 0:
                    # Recycle the arena row; nothing reads it until reuse.
                    self._g_free.append(group.gid)
                    group.gid = -1
            flow.group = None
            pos = flow.pos
            if pos >= 0:
                if batch:
                    done_pos.append(pos)
                    flow.pos = -1
                else:
                    self._evict(flow)
            flow._rem = 0.0
            flow._net = None
            flow._rate = 0.0
            flow.end_time = now
        self.flow_changes += len(flows)
        if batch:
            self._evict_batch(np.asarray(done_pos, dtype=np.int64))
        if not active and self._vector:
            self._release_arena()
        # The solve is deferred to the end-of-instant flush: completions
        # resume processes that often start replacement flows at this same
        # instant, and one solve serves the departures and the replacements.
        self._schedule_recompute()
        for flow in flows:
            done = flow.done
            # Clear the back-reference before triggering: the done event
            # holds the flow as its value, and ``flow.done`` pointing back
            # would make every finished transfer a reference cycle — 100k
            # cycles per wave is pure cyclic-GC load (gen2 pauses dominate
            # the storm benchmarks).  With the edge cut, refcounting frees
            # the whole wave as soon as the caller drops its events.
            flow.done = None
            done.succeed(flow)

    # -- arena bookkeeping ---------------------------------------------------
    def _ensure_capacity(self, n: int, pathlen: int) -> None:
        if pathlen > self._stride:
            # Grow to the exact path length: path lengths are small and
            # few-valued, and every extra stride row is pure sentinel
            # overhead in each solver round.
            occ = np.full(
                (pathlen, self._occ_t.shape[1]), self._pad, dtype=np.int64
            )
            occ[: self._stride] = self._occ_t
            self._occ_t = occ
            self._stride = pathlen
        if n > self._rem_v.size:
            grown = max(64, 2 * self._rem_v.size, n)
            for attr in ("_rem_v", "_rate_v", "_rcap_v"):
                old = getattr(self, attr)
                new = np.zeros(grown)
                new[: old.size] = old
                setattr(self, attr, new)
            gid = np.full(grown, -1, dtype=np.int64)
            gid[: self._gid_v.size] = self._gid_v
            self._gid_v = gid
            occ = np.full((self._stride, grown), self._pad, dtype=np.int64)
            occ[:, : self._occ_t.shape[1]] = self._occ_t
            self._occ_t = occ
            self._flows_pos.extend([None] * (grown - len(self._flows_pos)))

    def _g_ingest(self, group: FlowGroup, rate: float) -> None:
        """Give ``group`` a row in the group arena (recycling freed rows).

        ``rate`` seeds ``_g_rate``: when entering vector mode mid-run the
        members already carry a solved rate (identical across the group),
        and the invariant on ``_g_rate`` must hold before the next scoped
        solve's full-arena scatter.
        """
        free = self._g_free
        if free:
            gid = free.pop()
        else:
            gid = self._ng
            self._ng = gid + 1
            if self._ng > self._g_rate.size:
                grown = max(64, 2 * self._g_rate.size, self._ng)
                rates = np.zeros(grown)
                rates[: self._g_rate.size] = self._g_rate
                self._g_rate = rates
        group.gid = gid
        self._g_rate[gid] = rate

    def _ingest(self, flow: Flow) -> None:
        """Append a flow to the arena (column ``_n_live``)."""
        pos = self._n_live
        self._ensure_capacity(pos + 1, len(flow.path))
        self._n_live = pos + 1
        self._flows_pos[pos] = flow
        flow.pos = pos
        self._rem_v[pos] = flow._rem
        self._rate_v[pos] = flow._rate
        self._rcap_v[pos] = flow.rate_cap
        column = self._occ_t[:, pos]
        length = len(flow.path)
        if length:
            column[:length] = [link.idx for link in flow.path]
        column[length:] = self._pad
        group = flow.group
        if group.gid < 0:
            self._g_ingest(group, flow._rate)
        self._gid_v[pos] = group.gid

    def _ingest_batch(self, flows: List[Flow]) -> None:
        """Append many flows to the arena with whole-array writes.

        A synchronised wave admits its entire population at one flush;
        per-flow :meth:`_ingest` pays ~6 numpy scalar writes each, while
        here the per-flow Python shrinks to position bookkeeping and the
        arrays land via bulk converts.  A member's path column is its
        group's by definition, so index lists are derived once per distinct
        group of the batch and gathered, never per flow.
        """
        m = len(flows)
        pos0 = self._n_live
        maxlen = 0
        for flow in flows:
            length = len(flow.path)
            if length > maxlen:
                maxlen = length
        self._ensure_capacity(pos0 + m, maxlen)
        flows_pos = self._flows_pos
        pos = pos0
        for flow in flows:
            group = flow.group
            if group.gid < 0:
                self._g_ingest(group, flow._rate)
            flows_pos[pos] = flow
            flow.pos = pos
            pos += 1
        end = pos0 + m
        self._rem_v[pos0:end] = [flow._rem for flow in flows]
        self._rate_v[pos0:end] = [flow._rate for flow in flows]
        self._rcap_v[pos0:end] = [flow.rate_cap for flow in flows]
        gids = np.fromiter(
            (flow.group.gid for flow in flows), dtype=np.int64, count=m
        )
        self._gid_v[pos0:end] = gids
        columns = np.full((self._stride, self._ng), self._pad, dtype=np.int64)
        for i in np.unique(gids, return_index=True)[1].tolist():
            path = flows[i].path
            columns[: len(path), gids[i]] = [link.idx for link in path]
        self._occ_t[:, pos0:end] = columns.take(gids, axis=1)
        self._n_live = end

    def _evict(self, flow: Flow) -> None:
        """Swap-delete a flow's arena column, keeping the arena compact."""
        pos = flow.pos
        last = self._n_live - 1
        if pos != last:
            mover = self._flows_pos[last]
            self._flows_pos[pos] = mover
            mover.pos = pos
            self._rem_v[pos] = self._rem_v[last]
            self._rate_v[pos] = self._rate_v[last]
            self._rcap_v[pos] = self._rcap_v[last]
            self._gid_v[pos] = self._gid_v[last]
            self._occ_t[:, pos] = self._occ_t[:, last]
        self._flows_pos[last] = None
        self._n_live = last
        flow.pos = -1

    def _evict_batch(self, done_pos: np.ndarray) -> None:
        """Compact the arena after a batch of completions in one pass.

        Stable compaction by boolean keep-mask: a storm's completion batch
        evicts tens of thousands of columns, where per-flow swap-deletes
        pay four numpy scalar copies each; here the arrays move in a
        handful of whole-array gathers and only the survivors' ``pos``
        fields are touched in Python.  Arena column order changes relative
        to swap-deleting, which is safe: all solver arithmetic and scans
        are order-independent, and completion *processing* order is fixed
        by the fid sort in ``_on_wake``, not by column order.
        """
        n = self._n_live
        keep = np.ones(n, dtype=bool)
        keep[done_pos] = False
        idx = keep.nonzero()[0]
        m = idx.size
        for name in ("_rem_v", "_rate_v", "_rcap_v", "_gid_v"):
            a = getattr(self, name)
            a[:m] = a[idx]
        occ = self._occ_t
        occ[:, :m] = occ[:, idx]
        flows_pos = self._flows_pos
        live = 0
        # idx is ascending, so live <= pos: writes never clobber an unread
        # survivor.
        for pos in idx.tolist():
            mover = flows_pos[pos]
            flows_pos[live] = mover
            mover.pos = live
            live += 1
        for j in range(live, n):
            flows_pos[j] = None
        self._n_live = m

    def _enter_vector(self) -> None:
        """Move every live flow into the arena, once per network.

        Nothing has touched the arena before this (no group row, no freed
        row, no column), and it runs with at least ``_VEC_ON`` flows, so one
        batch ingest fills it.
        """
        self._ingest_batch(list(self._active))
        self._vector = True
        self.mode_switches += 1

    def _release_arena(self) -> None:
        """Drop the arena's storage: what a drained network keeps.

        Called once the last live flow has retired (and to start a fresh
        network): the arrays, the solver scratch and the grown membership
        dicts go, so a finished wave's arena stops costing memory.  The
        network stays in arena mode (``_vector`` and ``_stride`` are kept);
        :meth:`_ensure_capacity`, :meth:`_g_ingest` and the scratch sizing
        regrow what the next wave needs.  Nothing here is simulated state:
        group rows are bare indices, and every array is written before it is
        read.
        """
        #: Active aggregation groups keyed by exact (path indices, cap)
        #: signature (or flow id for singleton path-less groups).
        self._groups: Dict[object, FlowGroup] = {}
        self._active: Dict[Flow, None] = {}
        self._flows_pos: List[Optional[Flow]] = []
        self._rem_v = self._rate_v = self._rcap_v = _NO_FLOATS
        #: Incidence matrix, transposed: column i holds flow i's path as
        #: link indices, bottom-padded with the sentinel index ``_pad``
        #: (== len(links)).  The sentinel behaves as a link of infinite
        #: fair share, so padded columns need no masking anywhere.  The
        #: (stride, flows) orientation keeps the solver's per-round
        #: reductions running along the long contiguous axis.
        self._occ_t = np.zeros((self._stride, 0), dtype=np.int64)
        # -- group arena: one rate per group row, which is all the scalar
        # kernel needs of it (rows [0, _ng); freed rows are recycled) -------
        #: Per-flow group row (int64, parallel to the flow arena columns).
        self._gid_v = _NO_INTS
        self._ng = 0
        self._g_free: List[int] = []
        #: Rate of every member of the group as of the last solve that
        #: touched it.  Invariant: correct for *all* active groups after
        #: every solve (each kernel writes the rows it solved; scoped solves
        #: leave untouched components' rates unchanged by construction), so
        #: ``_g_rate[gid_v]`` may be scattered across the whole flow arena.
        self._g_rate = _NO_FLOATS
        # -- solver scratch (reused across solves; sized on demand) -------
        self._sc_flat_i = _NO_INTS  # (stride+1, n) indices
        self._sc_flat_f = _NO_FLOATS  # (stride+1, n) gathered shares
        self._sc_share = _NO_FLOATS  # per-link shares ++ per-flow caps
        self._sc_capleft = self._sc_div = self._sc_folded = _NO_FLOATS
        self._sc_seg = self._sc_off = _NO_INTS
        self._sc_fold = _NO_FLOATS
        self._sc_flow_f = _NO_FLOATS  # per-flow float scratch (bounds, ...)
        self._sc_flow_f2 = _NO_FLOATS  # per-flow float scratch (rates, ...)
        self._sc_flow_b = _NO_BOOLS  # per-flow bool scratch
        self._sc_ar = _NO_INTS  # 0..n arange

    # -- internals -----------------------------------------------------------
    def _schedule_recompute(self) -> None:
        """Queue this instant's solve with the end-of-instant flush."""
        if self._recompute_pending:
            return
        self._recompute_pending = True
        self.sim.request_flush(self._flush_recompute)

    def _flush_recompute(self) -> None:
        """Solve the instant's coalesced dirty set and re-arm the wake-up."""
        self._recompute_pending = False
        self._advance_to_now()  # no-op: the instant's first change advanced
        if not self._vector and len(self._active) >= _VEC_ON:
            self._enter_vector()
        dirty = self._dirty
        dirty_flows = self._dirty_flows
        if dirty or dirty_flows:
            self._dirty = {}
            self._dirty_flows = {}
            # The one kernel rule: an arena solve runs the array kernel when
            # ``min(live groups, flows in scope)`` is ``_VEC_SOLVE_MIN`` or
            # more, every other solve the scalar one.  With few groups alive
            # no scoping is needed to know the scalar kernel (which scopes
            # for itself) gets it.
            scope = None
            rows = 0
            if self._vector:
                active = self._active
                arrivals = [
                    flow
                    for flow in dirty_flows
                    if flow.pos < 0 and flow in active
                ]
                if len(arrivals) >= 64:
                    self._ingest_batch(arrivals)
                else:
                    for flow in arrivals:
                        self._ingest(flow)
                rows = len(self._groups)
                if rows >= _VEC_SOLVE_MIN:
                    scope = self._scope_vector(dirty, dirty_flows)
                    if scope is not None and scope.size < rows:
                        rows = scope.size
            if rows >= _VEC_SOLVE_MIN:
                self._solve_vector(scope)
            else:
                self._solve_scalar(dirty, dirty_flows)
                if self._vector:
                    # It wrote group rows (``_g_rate``), not flow columns.
                    self._fan_out(scope)
        self._refresh_deadlines_and_arm()

    def _advance_to_now(self) -> None:
        """Debit progress on all active flows since the last solve instant.

        Rates were constant over the elapsed interval, so the debit is the
        exact ``remaining - rate * elapsed`` the reference kernel computes.
        Deadlines are refreshed en masse at the end-of-instant flush.
        """
        now = self.sim.now
        elapsed = now - self._last_advance
        if elapsed <= 0.0:
            return
        if self._vector:
            n = self._n_live
            if n:
                rem = self._rem_v[:n]
                rem -= self._rate_v[:n] * elapsed
        else:
            for flow in self._active:
                flow._rem = flow._rem - flow._rate * elapsed
        self._last_advance = now

    # -- component scoping ---------------------------------------------------
    def _scope_vector(
        self, dirty: Dict[Link, None], dirty_flows: Dict[Flow, None]
    ) -> Optional[np.ndarray]:
        """Arena rows of the dirty links' connected component(s).

        A pure function of the arena: BFS over the bipartite flow/link graph
        the incidence matrix ``_occ_t`` already is.  Each round gathers the
        live flows touching a seen link (``hit``) and marks every link of
        theirs seen; once a round adds no link, its ``hit`` is the flow
        scope.  Returns None when the component covers every live flow, so
        callers can use whole-array views instead of fancy indexing.
        """
        n = self._n_live
        if n == 0:
            return np.empty(0, dtype=np.int64)
        if len(dirty_flows) >= n:
            # A synchronised wave marks every live flow dirty; the component
            # is trivially total, so skip the BFS and the per-flow marking.
            live_dirty = 0
            for flow in dirty_flows:
                if flow.pos >= 0:
                    live_dirty += 1
            if live_dirty >= n:
                return None
        occ = self._occ_t
        pad = self._pad
        link_seen = np.zeros(pad + 1, dtype=bool)
        for link in dirty:
            # An emptied link belongs to no flow's component; leaving it
            # out keeps every seen link an occupied one (see below).
            if link.n_occ:
                link_seen[link.idx] = True
        # Path-less (rate-cap-only) flows are isolated single-flow
        # components; they never hit a link during the BFS, so collect
        # their rows separately and splice them into the result.
        isolated: List[int] = []
        for flow in dirty_flows:
            pos = flow.pos
            if pos < 0:
                continue
            if flow.path:
                link_seen[occ[:, pos]] = True
            else:
                isolated.append(pos)
        link_seen[pad] = False
        live = occ[:, :n]
        count = int(np.count_nonzero(link_seen))
        while True:
            if count >= self._n_occupied and not self._pathless_active:
                # Full-cover shortcut: every seen link is occupied (seeds
                # are, and the BFS only reaches links some live group
                # crosses), so with no path-less flows alive the scope is
                # total iff the component holds *all* occupied links.
                return None
            hit = link_seen[live].any(axis=0)
            link_seen[live[:, hit]] = True
            link_seen[pad] = False  # path padding of the hit columns
            grown = int(np.count_nonzero(link_seen))
            if grown == count:
                break
            count = grown
        if isolated:
            hit[isolated] = True
        if int(np.count_nonzero(hit)) >= n:
            return None
        return hit.nonzero()[0]

    # -- wake-ups and completions --------------------------------------------
    def _refresh_deadlines_and_arm(self) -> None:
        """Project the earliest completion among active flows, arm a wake.

        Every flow's time to go is re-evaluated as ``remaining / rate`` at
        the flush instant.  IEEE addition is monotone, so the flow
        minimising it also minimises ``now + remaining / rate`` — the
        deadline the reference kernel computes per flow after each advance
        — and for that flow the one sum below is that exact expression, so
        wake-ups land on bit-identical times whichever mode computed them.
        """
        now = self.sim.now
        shortest = _INF
        if self._vector:
            n = self._n_live
            if n:
                rate = self._rate_v[:n]
                if self._sc_flow_f.size < n:
                    self._sc_flow_f = np.empty(max(64, 2 * n))
                left = self._sc_flow_f[:n]
                # Rates are positive for every live flow, so the plain
                # division is exact; a zero rate would surface as inf
                # (harmless, same as the masked path) or, with zero
                # remaining, as nan — caught below and recomputed the
                # careful way.
                np.divide(self._rem_v[:n], rate, out=left)
                shortest = float(np.minimum.reduce(left))
                if shortest != shortest:  # pragma: no cover - 0-rate guard
                    left.fill(_INF)
                    np.divide(self._rem_v[:n], rate, out=left, where=rate > 0.0)
                    shortest = float(np.minimum.reduce(left))
        else:
            for flow in self._active:
                rate = flow._rate
                if rate > 0.0:  # always, once solved; guards the division
                    left = flow._rem / rate
                    if left < shortest:
                        shortest = left
        earliest = now + shortest
        if earliest == _INF:
            self._wake = None
            return
        delay = earliest - now
        if delay < 0.0:
            delay = 0.0
        # A bare queue entry, scheduled by the call a Timeout makes: the
        # same (time, seq) slot without a callback list to build or walk.
        self._wake = wake = Wake(self._on_wake)
        self.sim._schedule(delay, wake)

    def _on_wake(self, wake: Wake) -> None:
        if wake is not self._wake:
            return  # a newer solve superseded this wake-up
        self._wake = None
        self._advance_to_now()
        if self._vector:
            n = self._n_live
            done_pos = (self._rem_v[:n] <= _EPSILON_BYTES).nonzero()[0]
            flows_pos = self._flows_pos
            finished = [flows_pos[pos] for pos in done_pos]
            # _active insertion order == ascending fid (fids are assigned
            # at insertion); completion processing must match the scalar
            # path's _active scan so done-event sequencing is identical.
            finished.sort(key=_fid_of)
        else:
            finished = [f for f in self._active if f._rem <= _EPSILON_BYTES]
        if not finished:  # pragma: no cover - defensive
            self._schedule_recompute()
            return
        completed_bytes = self.completed_bytes
        for flow in finished:
            # Sequential accumulation preserved bit-for-bit: same additions
            # in the same order as a per-flow ``+=`` on the attribute.
            completed_bytes += flow.size
        self.completed_bytes = completed_bytes
        self.completed_flows += len(finished)
        self._retire(finished)

    # -- water-filling -------------------------------------------------------
    def _solve_scalar(
        self, dirty: Dict[Link, None], dirty_flows: Dict[Flow, None]
    ) -> None:
        """Progressive-filling max-min fair allocation, the scalar kernel.

        Water-fills the connected component(s) the dirty links and flows
        perturb, over (path, cap) groups, in pure Python: repeatedly, each
        link's fair share is its remaining capacity over its unfixed path
        occurrences; a group's bound is the minimum of its links' shares
        and its cap; every group whose bound is within the tie threshold of
        the round's minimum bound is fixed at that minimum, and its
        members' rates are debited from its links.

        Discovery and link initialisation are one traversal of ``link ->
        groups -> links``.  A link only one group crosses is folded into
        that group's effective cap ``_bound`` and never stamped; the rounds
        are driven from the stamped (shared) links, so a group's path is
        walked when it fixes, not once per round.  The module docstring
        argues why every rate equals the per-flow reference bit for bit.
        """
        self._epoch = epoch = self._epoch + 1
        # With the arena live a solved rate goes to the group's ``_g_rate``
        # row (the caller fans it out); otherwise to each member flow.
        g_rate = self._g_rate if self._vector else None
        shared: List[Link] = []
        groups: List[FlowGroup] = []
        pathless = False
        stack: List[FlowGroup] = []
        for link in dirty:
            stack.extend(link.groups)
        for flow in dirty_flows:
            if flow.group is not None:  # else it already left again
                stack.append(flow.group)
        while stack:
            group = stack.pop()
            if group._epoch == epoch:
                continue
            group._epoch = epoch
            bound = group.rate_cap
            if not group.occ_items:
                # A path-less (rate-cap-only) flow is constrained by
                # nothing: its max-min rate is exactly its cap.  It never
                # enters the filling, so the tie threshold cannot collapse
                # it onto another component's bound a ULP from the cap.
                pathless = True
                if g_rate is not None:
                    g_rate[group.gid] = bound
                else:
                    for flow in group.members:
                        flow._rate = bound
                continue
            for link, _ in group.occ_items:
                if link._epoch == epoch:
                    continue
                private = len(link.groups) == 1
                if link.capacity_fn is None:
                    cap = link.capacity
                else:  # a private link's streams are this group's members
                    cap = link.effective_capacity(group.n if private else None)
                if private:
                    share = cap / link.n_occ
                    if share < bound:
                        bound = share
                else:
                    link._epoch = epoch
                    link._cap_left = cap
                    link._n_unfixed = link.n_occ
                    shared.append(link)
                    stack.extend(link.groups)
            group._bound = bound
            group._unfixed = True
            groups.append(group)
        if not groups and not pathless:
            return
        self.solver_runs += 1

        groups.sort(key=_bound_of)
        n_left = n_groups = len(groups)
        first = 0  # groups[:first] are fixed
        while n_left:
            # ``tight`` collects every link whose share was within the tie
            # threshold of the running minimum when seen — a superset of
            # those within the final threshold, as the minimum only falls.
            minimum = limit = _INF
            tight: List[Link] = []
            for link in shared:
                n = link._n_unfixed
                if n:
                    link._share = share = link._cap_left / n
                    if share <= limit:
                        tight.append(link)
                        if share < minimum:
                            minimum = share
                            limit = share * (1.0 + 1e-12)
            while not groups[first]._unfixed:
                first += 1
            if groups[first]._bound < minimum:
                minimum = groups[first]._bound
            if minimum == _INF:  # pragma: no cover - guarded in transfer()
                raise AssertionError("unbounded flow rate: no cap and empty path")
            threshold = minimum * (1.0 + 1e-12)
            fixing: List[FlowGroup] = []
            for link in tight:
                if link._share <= threshold:
                    for group in link.groups:
                        if group._unfixed:
                            group._unfixed = False
                            fixing.append(group)
                    link._n_unfixed = 0
            while first < n_groups:
                group = groups[first]
                if group._unfixed:
                    if group._bound > threshold:
                        break
                    group._unfixed = False
                    fixing.append(group)
                first += 1
            n_left -= len(fixing)
            for group in fixing:
                if g_rate is not None:
                    g_rate[group.gid] = minimum
                else:
                    for flow in group.members:
                        flow._rate = minimum
                if not n_left:
                    continue  # the final round's debit is dead scratch
                k = group.n
                for link, mult in group.occ_items:
                    if link._epoch != epoch or link._share <= threshold:
                        continue  # folded into _bound / emptied this round
                    # One ``cap_left - minimum`` + clamp step per fixed
                    # member per occurrence.
                    steps = k * mult
                    link._n_unfixed -= steps
                    left = link._cap_left
                    if steps < _VEC_SOLVE_MIN:
                        for _ in range(steps):
                            left -= minimum
                            if left < 0.0:
                                left = 0.0
                                break  # pinned at 0.0 for the round
                    else:
                        # A long chain as one sequential left fold; a single
                        # final clamp equals clamping between steps (see
                        # :meth:`_solve_vector`).
                        fold = np.full(steps + 1, minimum)
                        fold[0] = left
                        left = float(np.subtract.reduce(fold))
                        if left < 0.0:
                            left = 0.0
                    link._cap_left = left

    def _solve_scratch(self, rows: int, n: int, n_pad: int) -> None:
        """Size the reusable solver scratch for a (rows x n) working set.

        The water-filling loop allocates nothing per round; everything it
        touches lives in these buffers, doubled on demand.
        """
        if self._sc_flat_i.size < rows * n:
            size = max(256, 2 * rows * n)
            self._sc_flat_i = np.empty(size, dtype=np.int64)
            self._sc_flat_f = np.empty(size)
        if self._sc_share.size < n_pad + n:
            self._sc_share = np.empty(max(256, 2 * (n_pad + n)))
        if self._sc_capleft.size < n_pad:
            size = max(64, 2 * n_pad)
            self._sc_capleft = np.empty(size)
            self._sc_div = np.empty(size)
            self._sc_seg = np.empty(size, dtype=np.int64)
            self._sc_off = np.empty(size, dtype=np.int64)
            self._sc_folded = np.empty(size)
        if self._sc_flow_f.size < n:
            self._sc_flow_f = np.empty(max(64, 2 * n))
        if self._sc_flow_f2.size < n:
            size = max(64, 2 * n)
            self._sc_flow_f2 = np.empty(size)
            self._sc_ar = np.arange(size, dtype=np.int64)

    def _solve_vector(self, scope: Optional[np.ndarray]) -> None:
        """Vectorized water-filling over the scoped arena columns.

        ``scope`` is an array of arena columns, or None for all live flows.
        The textbook per-flow pass, bit-identical to :meth:`_solve_scalar`:
        shares are the same one-division-per-link quotients, per-flow bounds
        are pure minima (order-independent, with the pad sentinel's +inf
        share absorbed), every fixed flow receives the round minimum, and the
        per-link capacity debit replays the scalar subtract-then-clamp chain
        exactly — for a link whose flows fix ``k`` times in a round,
        ``np.subtract.reduceat`` left-folds the identical
        ``cap_left - minimum - minimum - ...`` sequence and a single final
        clamp equals clamping between steps, because the subtrahend is the
        same non-negative ``minimum`` throughout the round.

        The working set is a copied ``(stride + 1, n)`` index matrix: the
        path rows of the scope plus one row of per-flow "cap links" whose
        shares are the flows' own rate caps, so a single gather + axis-0
        min yields every bound.  Flows fixed in a round are *poisoned* —
        their column is repointed at the sentinel and their cap share at
        +inf — which removes them from all later rounds without any
        unfixed-mask bookkeeping, and makes the per-round per-link counts
        a straight ``bincount`` of the matrix itself.
        """
        self.solver_runs += 1
        self.vector_solves += 1
        stride = self._stride
        rows = stride + 1
        n_pad = self._pad + 1
        pad = n_pad - 1
        n = self._n_live if scope is None else scope.size
        self._solve_scratch(rows, n, n_pad)
        occT = self._sc_flat_i[: rows * n].reshape(rows, n)
        if scope is None:
            occT[:stride] = self._occ_t[:, :n]
        else:
            self._occ_t.take(scope, axis=1, out=occT[:stride])
        np.add(self._sc_ar[:n], n_pad, out=occT[stride])
        counts = np.bincount(occT[:stride].ravel(), minlength=n_pad)
        share_ext = self._sc_share[: n_pad + n]
        if scope is None:
            share_ext[n_pad:] = self._rcap_v[:n]
        else:
            self._rcap_v.take(scope, out=share_ext[n_pad:])
        cap_left = self._sc_capleft[:n_pad]
        cap_left[:pad] = self._cap_a[:pad]
        cap_left[pad] = _INF
        for link in self._fn_links:
            if counts[link.idx]:
                cap_left[link.idx] = link.effective_capacity()
        div = self._sc_div[:n_pad]
        g = self._sc_flat_f[: rows * n].reshape(rows, n)
        bounds = self._sc_flow_f[:n]
        folded = self._sc_folded[:n_pad]
        offsets = self._sc_off[:n_pad]
        seg = self._sc_seg[:pad]
        rates = self._rate_v[:n] if scope is None else self._sc_flow_f2[:n]
        if self._sc_flow_b.size < n:
            self._sc_flow_b = np.empty(max(64, 2 * n), dtype=bool)
        fixed = self._sc_flow_b[:n]
        n_done = 0
        if self._pathless_active:
            # Path-less flows always run at exactly their cap (their column
            # gathers only the cap row); pre-fix and poison them so the tie
            # threshold never couples them to another component's bound.
            # Columns are left-packed, so row 0 == pad means an empty path
            # (with stride 0 every live flow is path-less).
            if stride:
                ppos = (occT[0] == pad).nonzero()[0]
            else:
                ppos = self._sc_ar[:n]
            if ppos.size:
                rates[ppos] = share_ext[n_pad:][ppos]
                occT[:, ppos] = pad
                n_done = int(ppos.size)
        while n_done < n:
            # Links with no unfixed flows get share == cap_left instead of
            # the textbook +inf, but no live column references them —
            # their flows are all poisoned — so the value is never read.
            np.maximum(counts, 1, out=div)
            np.divide(cap_left, div, out=share_ext[:n_pad])
            share_ext.take(occT, out=g)
            np.minimum.reduce(g, axis=0, out=bounds)
            minimum = float(np.minimum.reduce(bounds))
            if minimum == _INF:  # pragma: no cover - guarded in transfer()
                raise AssertionError("unbounded flow rate: no cap and empty path")
            np.less_equal(bounds, minimum * (1.0 + 1e-12), out=fixed)
            fpos = fixed.nonzero()[0]
            rates[fpos] = minimum
            n_done += fpos.size
            if n_done >= n:
                break  # the final round's capacity debit is dead scratch
            # Debit counts from just the fixed columns (gathered before the
            # poison below): k[l] is how many of the round's fixed flows
            # traverse link l — identical to diffing two full bincounts but
            # over a (stride, fixed) slice instead of the whole matrix.
            cols = occT[:stride].take(fpos, axis=1)
            k = np.bincount(cols.ravel(), minlength=n_pad)
            k[pad] = 0  # path padding lands here; the sentinel never pays
            np.subtract(counts, k, out=counts)
            # Poison every row of the fixed columns, cap row included: the
            # sentinel's share is +inf (cap_left[pad] survives each fold as
            # a single-element reduceat segment), so the repointed cap
            # entries gather +inf exactly like a dedicated cap poison.
            occT[:, fpos] = pad
            # One reduceat over segments [cap_left[l], m, m, ... (k times)]
            # folds every link's k exact repeated subtractions at once;
            # k == 0 links pass through their single-element segment.
            offsets[0] = 0
            np.add(k[:pad], 1, out=seg)
            seg.cumsum(out=offsets[1:])
            total = int(offsets[pad]) + 1
            if self._sc_fold.size < total:
                self._sc_fold = np.empty(max(1024, 2 * total))
            fold = self._sc_fold[:total]
            fold.fill(minimum)
            fold[offsets] = cap_left
            np.subtract.reduceat(fold, offsets, out=folded)
            # max(x, 0.0) matches the scalar "left if left >= 0.0 else 0.0"
            # clamp: the fold can't produce -0.0 (operands are >= +0.0 and
            # a - b rounds ties to +0.0), so the only divergence case never
            # occurs.
            np.maximum(folded, 0.0, out=cap_left)
        if scope is None:
            self._g_rate[self._gid_v[:n]] = rates
        else:
            self._rate_v[scope] = rates
            # Keep the ``_g_rate`` invariant: same-group members carry the
            # same rate, so duplicate rows write one value.
            self._g_rate[self._gid_v[scope]] = rates

    def _fan_out(self, fscope: Optional[np.ndarray]) -> None:
        """Copy solved group rates into the scoped flows' arena columns.

        ``None`` fans out to every live flow, which the ``_g_rate``
        invariant makes valid for the whole arena.
        """
        if fscope is None:
            n = self._n_live
            self._g_rate.take(self._gid_v[:n], out=self._rate_v[:n])
        else:
            self._rate_v[fscope] = self._g_rate[self._gid_v[fscope]]
