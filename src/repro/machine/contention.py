"""The contention model: concurrent phases -> effective per-thread rates.

:class:`BandwidthContentionAllocator` is a :class:`~repro.simkit.fluid.RateAllocator`
for the node's CPU fluid resource.  Each active fluid task represents one
compute phase executing on one hardware thread; its metadata carries the
:class:`~repro.machine.phases.PhaseProfile` and the
:class:`~repro.machine.topology.HwThread` binding.  Rates are in
*instructions per second* and are derived in two stages:

1. **Issue sharing (per core).**  Hyper-threads of the same physical core
   share issue slots linearly: with ``k`` active hyper-threads each gets a
   ceiling of ``ipc0 * frequency / k`` instructions/s.  This reproduces the
   paper's observation that "the average IPC is more or less cut in half when
   going from 8x8 (no hyper-threading) to 16x8 (two-time hyper-threading)".

2. **Bandwidth water filling (per node).**  Each task *demands* memory
   traffic ``ceiling_i * bytes_per_instr_i``.  The node bandwidth ``B`` is
   divided max-min fairly: tasks demanding less than the fair share are fully
   satisfied, the slack is redistributed over the rest.  A task's final rate
   is ``grant_i / bytes_per_instr_i`` (or its issue ceiling for phases with
   negligible traffic).

When every thread executes the high-intensity phase simultaneously (the
original, statically synchronised FFTXlib), all demands collide and every
thread is throttled to ``B / n / bpi``.  When the OmpSs scheduler
de-synchronises phases, low-demand phases leave bandwidth to high-demand
ones, raising their effective IPC — the mechanism behind Fig. 7.

Hot-path engine
---------------
The allocator speaks the fluid engine's protocol: ``prepare`` and
``allocate_batch``, plus the attach/detach hooks.  Base rates (everything
except the per-execution ``speed`` factor, a pure post-multiplier) depend
only on the *composition* of the active set.  A task's rate is determined by
its phase profile, the number of active hyper-threads *on its own core*, its
node, and the demand multiset of everyone else; which core it runs on does
not matter.  That is what makes the steady-state 64-thread phase mix recur
thousands of times per run even as tasks hop between cores, and it is what
the memo is keyed on:

* every ``(profile, core occupancy, node)`` tuple is interned to a dense
  composition id: the occupancy-1 id at ``prepare``, the others lazily,
  the first time a core reaches that occupancy;
* the attach/detach hooks keep the count vector over those ids exact: when
  a core's occupancy changes, its tasks' counts move to their new ids.
  ``tuple(counts)`` is the memo key, so a rebalance that hits touches no
  task metadata;
* a task's rate is looked up by index: by its occupancy-1 id while no core
  is shared, otherwise through an ``(id, occupancy) -> id`` table indexed
  with a ``bincount`` over cores;
* a miss prices each node in scalar passes over per-id lists.  It walks two
  static orders (by profile and occupancy, and stably by demand) into
  :func:`water_level`, so no rebalance path sorts.

Cache hits/misses are exported via :meth:`cache_info` into run manifests.
"""

from __future__ import annotations

import math
import typing as _t

import numpy as np

from repro.machine.phases import PhaseProfile
from repro.machine.topology import HwThread
from repro.simkit.fluid import FluidTask

__all__ = ["BandwidthContentionAllocator", "water_level"]

#: Relative slack of the water-filling comparisons.
_EPS = 1e-12

#: Compositions memoized per allocator before the table is reset (a plain
#: clear — entries are one small array, so the bound is generous; an LRU
#: would add ordering cost for no hit-rate gain).
_CACHE_LIMIT = 16384


def water_level(
    capacity: float,
    total: float,
    n_tasks: int,
    order: _t.Iterable[int],
    demands: _t.Sequence[float],
    weights: _t.Sequence[int],
) -> float:
    """Max-min fair water level of ``capacity`` over weighted demand groups.

    Group ``g`` stands for ``weights[g]`` tasks demanding ``demands[g]``
    each; ``order`` lists the groups in ascending-demand order (groups of
    weight zero are skipped).  ``total`` is the caller's sum of
    ``weights[g] * demands[g]`` and ``n_tasks`` the sum of the weights.
    Every task is granted ``min(demand, level)``, and the level is ``inf``
    when the capacity covers the total.

    Otherwise the level solves ``sum_g w_g * min(d_g, L) == capacity``:
    walking up the demands, the smaller groups are granted in full, and the
    first group whose demand reaches the level the rest can share caps
    everyone from there on.
    """
    if capacity < 0:
        raise ValueError(f"capacity must be >= 0, got {capacity}")
    if total <= capacity * (1.0 + _EPS):
        return math.inf
    level = 0.0
    full_w = full_wd = 0.0
    for g in order:
        w = weights[g]
        if w:
            level = (capacity - full_wd) / (n_tasks - full_w)
            if level <= demands[g] * (1.0 + _EPS):
                break
            full_w += w
            full_wd += w * demands[g]
    return 0.0 if level < 0.0 else level


class BandwidthContentionAllocator:
    """Rate allocator combining per-core issue sharing and node bandwidth.

    Parameters
    ----------
    frequency_hz:
        Core clock frequency.
    bandwidth_bytes_per_s:
        Effective shared node memory bandwidth.

    Fluid-task metadata contract: ``meta["profile"]`` is a
    :class:`PhaseProfile` and ``meta["thread"]`` a :class:`HwThread`.
    """

    def __init__(
        self,
        frequency_hz: float,
        bandwidth_bytes_per_s: float,
        bandwidth_rampup_max: float | None = None,
        bandwidth_rampup_half: float = 0.0,
    ):
        if frequency_hz <= 0:
            raise ValueError(f"frequency_hz must be positive, got {frequency_hz}")
        if bandwidth_bytes_per_s <= 0:
            raise ValueError(
                f"bandwidth_bytes_per_s must be positive, got {bandwidth_bytes_per_s}"
            )
        if bandwidth_rampup_half < 0:
            raise ValueError(
                f"bandwidth_rampup_half must be >= 0, got {bandwidth_rampup_half}"
            )
        self.frequency_hz = frequency_hz
        self.bandwidth = bandwidth_bytes_per_s
        #: Concurrency ramp-up of the memory system (Little's-law queueing):
        #: with n demanding threads the achievable aggregate bandwidth is
        #: ``min(rampup_max * n / (n + rampup_half), bandwidth)``.  Real
        #: many-core memory systems need tens of outstanding request streams
        #: to reach peak; the per-thread share therefore *degrades gradually*
        #: with concurrency instead of at a hard saturation knee — this is
        #: what produces the paper's smooth IPC-scalability decline across
        #: 2x8 and 4x8 (Table I).  ``rampup_max=None`` disables the ramp.
        self.bandwidth_rampup_max = bandwidth_rampup_max
        self.bandwidth_rampup_half = bandwidth_rampup_half
        # Profile interning: (ipc0, bytes_per_instr) -> small id.
        self._profile_ids: dict[tuple[float, float], int] = {}
        # Core interning: (node, core) -> dense id, with the core's active
        # task count and, while that is one, the task's composition id.
        self._core_ids: dict[tuple[int, int], int] = {}
        self._core_occ: list[int] = []
        self._core_lone: list[int] = []
        # The composition ids of the tasks on each core running more than
        # one (only such cores have an entry).
        self._shared: dict[int, list[int]] = {}
        # Composition interning: (profile id, occupancy, node) -> dense id,
        # with the physics of each id (issue ceiling, bandwidth demand,
        # traffic intensity) mirrored in plain lists, and the active-task
        # count per id, which is the memo key.
        self._ids: dict[tuple[int, int, int], int] = {}
        self._keys: list[tuple[int, int, int]] = []
        self._ceiling: list[float] = []
        self._demand: list[float] = []
        self._bpi: list[float] = []
        self._counts: list[int] = []
        # The two static walks of a miss, per node (nodes are independent
        # contention domains), rebuilt when an id is interned: the node's
        # ids by (profile, occupancy) — the summation order — and stably by
        # demand on top of that, the water-filling order.
        self._walks: dict[int, tuple[list[int], list[int]]] = {}
        # (occupancy-1 id, occupancy) -> id, and its array form for the
        # per-task lookup (rebuilt on first use after an id is interned).
        self._variant: dict[tuple[int, int], int] = {}
        self._table: np.ndarray | None = None
        # Composition memo: counts tuple -> base rate per id.
        self._memo: dict[tuple[int, ...], np.ndarray] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0

    def effective_capacity(self, n_demanding: int) -> float:
        """Achievable aggregate bandwidth with ``n_demanding`` active streams."""
        if self.bandwidth_rampup_max is None or n_demanding <= 0:
            return self.bandwidth
        ramp = self.bandwidth_rampup_max * n_demanding / (n_demanding + self.bandwidth_rampup_half)
        return min(ramp, self.bandwidth)

    def cache_info(self) -> dict[str, int]:
        """Allocation-memo counters (merged into the engine manifest section)."""
        return {
            "alloc_cache_hits": self.cache_hits,
            "alloc_cache_misses": self.cache_misses,
            "alloc_cache_size": len(self._memo),
            "alloc_cache_evictions": self.cache_evictions,
        }

    # -- the fluid engine's protocol ------------------------------------------

    #: Static record layout: ``(occupancy-1 composition id, core id, speed)``.
    #: The fluid resource stores records as rows of one float array and
    #: hands :meth:`allocate_batch` an ``(n, 3)`` view.
    static_width = 3

    def prepare(self, task: FluidTask) -> tuple[int, int, float]:
        """Intern a task's static contention signature (once, at submit)."""
        meta = task.meta
        try:
            profile: PhaseProfile = meta["profile"]
            thread: HwThread = meta["thread"]
        except KeyError as exc:
            raise RuntimeError(
                f"compute task missing required metadata {exc}: {task!r}"
            ) from None
        pkey = (profile.ipc0, profile.bytes_per_instr)
        pid = self._profile_ids.get(pkey)
        if pid is None:
            pid = self._profile_ids[pkey] = len(self._profile_ids)
        node = thread.node
        core_key = (node, thread.core)
        core = self._core_ids.get(core_key)
        if core is None:
            core = self._core_ids[core_key] = len(self._core_occ)
            self._core_occ.append(0)
            self._core_lone.append(0)
        cid = self._ids.get((pid, 1, node))
        if cid is None:
            cid = self._intern(pid, 1, node)
        return (cid, core, meta.get("speed", 1.0))

    def _intern(self, pid: int, occupancy: int, node: int) -> int:
        """Give a new ``(profile, occupancy, node)`` key the next dense id."""
        key = (pid, occupancy, node)
        cid = self._ids[key] = len(self._keys)
        ipc0, bpi = list(self._profile_ids)[pid]
        ceiling = ipc0 * self.frequency_hz / occupancy
        self._keys.append(key)
        self._ceiling.append(ceiling)
        self._demand.append(ceiling * bpi)
        self._bpi.append(bpi)
        self._counts.append(0)
        keys = self._keys
        by_key = sorted((d for d, k in enumerate(keys) if k[2] == node), key=keys.__getitem__)
        self._walks[node] = (by_key, sorted(by_key, key=self._demand.__getitem__))
        self._variant[self._ids[pid, 1, node], occupancy] = cid
        self._table = None
        return cid

    def _at(self, cid: int, occupancy: int) -> int:
        """Id of occupancy-1 id ``cid`` on a core running ``occupancy`` tasks."""
        at = self._variant.get((cid, occupancy))
        if at is None:
            pid, _, node = self._keys[cid]
            at = self._intern(pid, occupancy, node)
        return at

    def _move(self, cids: list[int], old: int, new: int) -> None:
        """Move the counts of a core's tasks from occupancy ``old`` to ``new``."""
        counts = self._counts
        variant = self._variant
        for cid in cids:
            counts[variant[cid, old]] -= 1
            counts[self._at(cid, new)] += 1

    def notify_attach(self, static: "np.ndarray | tuple") -> None:
        """Count a task entering the active set (fluid-engine hook)."""
        cid = int(static[0])
        core = int(static[1])
        k = self._core_occ[core]
        self._core_occ[core] = k + 1
        if not k:
            self._core_lone[core] = cid
            self._counts[cid] += 1
            return
        if k == 1:
            on_core = self._shared[core] = [self._core_lone[core]]
        else:
            on_core = self._shared[core]
        self._move(on_core, k, k + 1)
        on_core.append(cid)
        self._counts[self._at(cid, k + 1)] += 1

    def notify_detach(self, static: "np.ndarray | tuple") -> None:
        """Uncount a task leaving the active set (fluid-engine hook)."""
        cid = int(static[0])
        core = int(static[1])
        k = self._core_occ[core]
        self._core_occ[core] = k - 1
        if k == 1:
            self._counts[cid] -= 1
            return
        on_core = self._shared[core]
        on_core.remove(cid)
        self._counts[self._variant[cid, k]] -= 1
        self._move(on_core, k, k - 1)
        if k == 2:
            self._core_lone[core] = on_core[0]
            del self._shared[core]

    def allocate_batch(self, statics: np.ndarray) -> np.ndarray:
        """Instruction rates for the active set's ``(n, 3)`` record array.

        Callers other than the fluid engine must route attach/detach
        notifications: the memo key is the count vector those hooks keep.
        """
        key = tuple(self._counts)
        base = self._memo.get(key)
        if base is None:
            self.cache_misses += 1
            if len(self._memo) >= _CACHE_LIMIT:
                self._memo.clear()
                self.cache_evictions += 1
            base = self._memo[key] = self._price(key)
        else:
            self.cache_hits += 1
        ids = statics[:, 0].astype(np.intp)
        if self._shared:
            core = statics[:, 1].astype(np.intp)
            ids = self._occupied()[ids, np.bincount(core)[core]]
        # Per-execution speed factor (models run-to-run microarchitectural
        # variability — cache state, TLB, OS noise; see CpuModel.jitter).
        return base[ids] * statics[:, 2]

    def _occupied(self) -> np.ndarray:
        """The ``(occupancy-1 id, occupancy) -> id`` lookup table."""
        table = self._table
        if table is None:
            variant = self._variant
            table = np.zeros((len(self._keys), max(occ for _, occ in variant) + 1), np.intp)
            for (cid, occupancy), at in variant.items():
                table[cid, occupancy] = at
            self._table = table
        return table

    def _price(self, counts: tuple[int, ...]) -> np.ndarray:
        """Base rate per composition id for the count vector ``counts``.

        Per node: the total demand is summed in (profile, occupancy) order,
        the water level is found in stable demand order, then each present
        id is granted ``min(ceiling, min(demand, level) / bpi)``.  Absent
        ids price as zero.
        """
        demand_l = self._demand
        ceiling_l = self._ceiling
        bpi_l = self._bpi
        base = [0.0] * len(counts)
        for by_key, by_demand in self._walks.values():
            n_tasks = n_demanding = 0
            total = 0.0
            for d in by_key:
                w = counts[d]
                if w:
                    n_tasks += w
                    demand = demand_l[d]
                    total += w * demand
                    if demand > 0.0:
                        n_demanding += w
            if not n_tasks:
                continue
            level = water_level(
                self.effective_capacity(n_demanding), total, n_tasks, by_demand, demand_l, counts
            )
            for d in by_key:
                if counts[d]:
                    rate = ceiling_l[d]
                    bpi = bpi_l[d]
                    if bpi > 0.0:
                        # min(ceiling, min(demand, level) / bpi), spelled out.
                        grant = demand_l[d]
                        if level < grant:
                            grant = level
                        granted = grant / bpi
                        if granted < rate:
                            rate = granted
                    base[d] = rate
        return np.array(base)

    def effective_ipc(self, rate_instr_per_s: float) -> float:
        """Convert an instruction rate back to IPC (for counters/tracing)."""
        return rate_instr_per_s / self.frequency_hz
