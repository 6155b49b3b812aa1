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
The allocator implements the fluid engine's batch protocol (``prepare`` /
``allocate_batch``).  ``prepare`` interns each task's contention-relevant
statics — ``(ipc0, bytes_per_instr, core, node)`` — into small integer ids
once, at submit time, and mirrors the physics of each id (issue ceiling,
bandwidth demand, traffic intensity) in plain lists.  The base rates
(everything except the per-execution ``speed`` factor, a pure
post-multiplier) depend only on the *composition* of the active set: core
identity is irrelevant — a task's rate is determined by its phase profile,
the number of active hyper-threads *on its own core*, its node, and the
demand multiset of everyone else.  That is what makes the steady-state
64-thread phase mix recur thousands of times per run even as tasks hop
between cores, and it is what the memo is keyed on:

* while no core runs two hyper-threads (tracked by the engine's
  attach/detach hooks) the composition is the count vector over interned
  ids, maintained incrementally by the same hooks — the memo key is that
  tuple, and a rebalance that hits touches no task metadata at all.  A miss
  prices at most :data:`_SCALAR_MAX_GROUPS` present ids in three short
  scalar passes per node over the per-id lists, walking two *static*
  orders (by packed code, and stably by demand) instead of sorting per
  miss;
* with shared cores the key is the sorted array of packed
  ``(profile, core-occupancy, node)`` codes, and a miss runs per *unique*
  code through :func:`waterfill_vec` or its scalar twin (tasks sharing a
  code provably receive equal grants under max-min fairness).

Every path sums in packed-code order and cumulates in stable demand order,
so all of them agree to the last bit and the memo is path-independent.

Cache hits/misses are exported via :meth:`cache_info` into run manifests.
"""

from __future__ import annotations

import math
import typing as _t

import numpy as np

from repro.machine.phases import PhaseProfile
from repro.machine.topology import HwThread
from repro.simkit.fluid import FluidTask

__all__ = [
    "BandwidthContentionAllocator",
    "waterfill",
    "waterfill_scalar",
    "waterfill_vec",
]

#: Numerical slack for the water-filling fixpoint.
_EPS = 1e-12

#: Compositions memoized per allocator before the table is reset (a plain
#: clear — entries are two tiny arrays, so the bound is generous; an LRU
#: would add ordering cost for no hit-rate gain).
_CACHE_LIMIT = 16384


def waterfill(demands: _t.Sequence[float], capacity: float) -> list[float]:
    """Max-min fair allocation of ``capacity`` over ``demands``.

    Tasks demanding no more than the current fair share receive their full
    demand; the freed capacity is redistributed among the remaining tasks
    until all are either satisfied or capped at the final fair share.

    Returns one grant per demand, with ``sum(grants) <= capacity`` and
    ``grants[i] <= demands[i]``.
    """
    if capacity < 0:
        raise ValueError(f"capacity must be >= 0, got {capacity}")
    n = len(demands)
    grants = [0.0] * n
    if n == 0:
        return grants
    remaining = capacity
    unsat = [i for i in range(n) if demands[i] > 0.0]
    while unsat:
        fair = remaining / len(unsat)
        threshold = fair + _EPS
        # One pass: grant the satisfied demands (in index order, so the
        # floating-point subtraction sequence is unchanged) and collect the
        # still-unsatisfied rest — the old three-scan version with its
        # per-round set() rebuild dominated allocator time at 64+ streams.
        still_unsat: list[int] = []
        for i in unsat:
            d = demands[i]
            if d <= threshold:
                grants[i] = d
                remaining -= d
            else:
                still_unsat.append(i)
        if len(still_unsat) == len(unsat):
            for i in unsat:
                grants[i] = fair
            return grants
        unsat = still_unsat
        if remaining <= 0.0:
            break
    return grants


def waterfill_vec(
    demands: np.ndarray, capacity: float, weights: np.ndarray | None = None
) -> np.ndarray:
    """Vectorized max-min fair allocation (sort + cumsum water level).

    Equivalent to :func:`waterfill` up to floating-point rounding, computed
    in O(m log m) numpy operations instead of a Python fixpoint loop.  With
    ``weights`` each demand entry stands for ``weights[i]`` identical tasks
    (the allocator's per-signature grouping); the returned grants are still
    *per task* of each group.

    The water level ``L`` is the unique solution of
    ``sum_i w_i * min(d_i, L) == capacity`` when total demand exceeds the
    capacity; every task is granted ``min(d_i, L)``.
    """
    if capacity < 0:
        raise ValueError(f"capacity must be >= 0, got {capacity}")
    d = np.asarray(demands, dtype=float)
    m = d.size
    if m == 0:
        return np.empty(0)
    w = np.ones(m) if weights is None else np.asarray(weights, dtype=float)
    total = float((w * d).sum())
    if total <= capacity * (1.0 + _EPS):
        return d.copy()
    order = np.argsort(d, kind="stable")
    ds = d[order]
    ws = w[order]
    cum_w = np.cumsum(ws)
    cum_wd = np.cumsum(ws * ds)
    # Candidate level when the j smallest demand groups are fully satisfied:
    #   capacity = cum_wd[j-1] + L * (W - cum_w[j-1])
    # The correct segment is the first j whose candidate stays below ds[j].
    prev_w = np.concatenate(([0.0], cum_w[:-1]))
    prev_wd = np.concatenate(([0.0], cum_wd[:-1]))
    denom = cum_w[-1] - prev_w
    levels = (capacity - prev_wd) / denom
    feasible = levels <= ds * (1.0 + _EPS)
    j = int(np.argmax(feasible)) if feasible.any() else m - 1
    level = max(float(levels[j]), 0.0)
    return np.minimum(d, level)


#: Compositions with at most this many unique signatures take the scalar
#: fast path of the allocator miss pipeline.  7 is also the bit-exactness
#: boundary: numpy reduces sums of fewer than 8 float64 elements strictly
#: sequentially, so the scalar transcription matches :func:`waterfill_vec`
#: to the last ulp.
_SCALAR_MAX_GROUPS = 7


def waterfill_scalar(
    demands: list[float], capacity: float, weights: list[int]
) -> list[float]:
    """Scalar transcription of :func:`waterfill_vec` over weighted groups.

    Bit-identical to the vectorized version for fewer than 8 demand groups
    (see :data:`_SCALAR_MAX_GROUPS`); every sum runs in the same sequential
    order and the sort is stable, mirroring ``argsort(kind="stable")``.
    Beyond that only the over-subscription test's total can differ in its
    last bits (numpy sums 8+ elements pairwise); the water level is
    cumulated sequentially by both.
    """
    m = len(demands)
    total = 0.0
    for j in range(m):
        total += weights[j] * demands[j]
    if total <= capacity * (1.0 + _EPS):
        return list(demands)
    order = sorted(range(m), key=demands.__getitem__)
    cum_w = [0.0] * m
    cum_wd = [0.0] * m
    acc_w = 0.0
    acc_wd = 0.0
    for k, j in enumerate(order):
        acc_w += weights[j]
        acc_wd += weights[j] * demands[j]
        cum_w[k] = acc_w
        cum_wd[k] = acc_wd
    w_total = cum_w[-1]
    prev_w = 0.0
    prev_wd = 0.0
    level = 0.0
    for k, j in enumerate(order):
        level = (capacity - prev_wd) / (w_total - prev_w)
        if level <= demands[j] * (1.0 + _EPS):
            break
        prev_w = cum_w[k]
        prev_wd = cum_wd[k]
    if level < 0.0:
        level = 0.0
    return [min(dj, level) for dj in demands]


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
        # Profile interning: (ipc0, bytes_per_instr) -> small id, with the
        # numeric fields mirrored in arrays (vectorized decode) and plain
        # lists (scalar decode on the small-composition fast path).
        self._profile_ids: dict[tuple[float, float], int] = {}
        self._profile_ipc0 = np.empty(0)
        self._profile_bpi = np.empty(0)
        self._profile_ipc0_l: list[float] = []
        self._profile_bpi_l: list[float] = []
        # Core interning: (node, core) -> dense id.
        self._core_ids: dict[tuple[int, int], int] = {}
        # Dense interning of *single-occupancy* packed codes: code -> small
        # contiguous id, with the decoded physics (issue ceiling, bandwidth
        # demand, traffic intensity, node) mirrored per id.  On the
        # no-hyper-threading fast path a composition is then just the count
        # vector over dense ids, and a cache miss prices the present groups
        # without re-decoding any code.
        self._dense_ids: dict[int, int] = {}
        self._dense_code_l: list[int] = []
        self._dense_ceiling_l: list[float] = []
        self._dense_demand_l: list[float] = []
        self._dense_bpi_l: list[float] = []
        self._dense_node_l: list[int] = []
        # The two static walks of a dense miss, per node (nodes are
        # independent contention domains), rebuilt when an id is interned (a
        # handful of times per run): the node's dense ids by packed code —
        # the summation order of every pricing path — and stably by demand
        # on top of that, which is the order a per-miss stable sort of the
        # present groups would produce.
        self._dense_walks: dict[int, tuple[list[int], list[int]]] = {}
        # Count-vector memo of the dense fast path: counts tuple -> base
        # rate per dense id.  Kept separate from the sorted-code memo (the
        # entry formats differ); both report into the same hit/miss counters.
        self._dense_cache: dict[tuple[int, ...], np.ndarray] = {}
        # Incremental composition, fed by the fluid engine's attach/detach
        # notifications: active-task count per dense id and per core id, plus
        # the number of cores currently running more than one hyper-thread.
        # While that number is zero every occupancy is 1 and the count vector
        # *is* the composition.
        self._dense_counts: list[int] = []
        self._core_occ: dict[int, int] = {}
        self._multi_cores = 0
        # Composition memo: sorted packed-code bytes ->
        # (unique codes, base rate per code) — excludes the speed factor.
        self._cache: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
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
            "alloc_cache_size": len(self._cache) + len(self._dense_cache),
            "alloc_cache_evictions": self.cache_evictions,
        }

    # -- batch protocol (the fluid engine's hot path) -------------------------

    #: Static record layout:
    #: ``(packed code, core id, speed, dense code id)``.
    #: The first field is ``(profile id << 24) | (1 << 12) | node`` — the
    #: occupancy slot (bits 12..23) is pre-filled with the single-occupancy
    #: value; rebalances that do see shared cores add the occupancy *excess*
    #: per task and fall back to the sorted-code memo.  The fourth field is
    #: the dense intern of the packed code: the attach/detach hooks count
    #: it into the composition key, and the no-hyper-threading fast path
    #: indexes the memoized rates with it.  The fluid resource stores
    #: records as rows of one float array and hands :meth:`allocate_batch`
    #: an ``(n, 4)`` view — no per-task iteration.
    static_width = 4

    def prepare(self, task: FluidTask) -> tuple[int, int, float, int]:
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
            pid = len(self._profile_ids)
            self._profile_ids[pkey] = pid
            self._profile_ipc0 = np.append(self._profile_ipc0, profile.ipc0)
            self._profile_bpi = np.append(self._profile_bpi, profile.bytes_per_instr)
            self._profile_ipc0_l.append(profile.ipc0)
            self._profile_bpi_l.append(profile.bytes_per_instr)
        core_key = (thread.node, thread.core)
        core_id = self._core_ids.get(core_key)
        if core_id is None:
            core_id = len(self._core_ids)
            self._core_ids[core_key] = core_id
        code = (pid << 24) | (1 << 12) | thread.node
        did = self._dense_ids.get(code)
        if did is None:
            did = len(self._dense_ids)
            self._dense_ids[code] = did
            self._dense_code_l.append(code)
            # Single-occupancy physics (occupancy 1 divides out exactly, so
            # these match the generic decode bit for bit).
            ceiling = profile.ipc0 * self.frequency_hz
            self._dense_ceiling_l.append(ceiling)
            self._dense_demand_l.append(ceiling * profile.bytes_per_instr)
            self._dense_bpi_l.append(profile.bytes_per_instr)
            self._dense_node_l.append(thread.node)
            self._dense_counts.append(0)
            by_code = sorted(
                (d for d, node in enumerate(self._dense_node_l) if node == thread.node),
                key=self._dense_code_l.__getitem__,
            )
            by_demand = sorted(by_code, key=self._dense_demand_l.__getitem__)
            self._dense_walks[thread.node] = (by_code, by_demand)
        return (code, core_id, meta.get("speed", 1.0), did)

    def notify_attach(self, static: "np.ndarray | tuple") -> None:
        """Track a task entering the active set (fluid-engine hook)."""
        self._dense_counts[int(static[3])] += 1
        core = int(static[1])
        occ = self._core_occ
        c = occ.get(core, 0) + 1
        occ[core] = c
        if c == 2:
            self._multi_cores += 1

    def notify_detach(self, static: "np.ndarray | tuple") -> None:
        """Track a task leaving the active set (fluid-engine hook)."""
        self._dense_counts[int(static[3])] -= 1
        core = int(static[1])
        occ = self._core_occ
        c = occ[core] - 1
        if c:
            occ[core] = c
            if c == 1:
                self._multi_cores -= 1
        else:
            del occ[core]

    def allocate_batch(self, statics: "np.ndarray | _t.Sequence") -> np.ndarray:
        """Instruction rates for the active set's static records (in order).

        ``statics`` is the resource's ``(n, 4)`` record array (or any
        sequence of ``prepare`` tuples — the scalar path delegates here).
        Callers other than the fluid engine must route attach/detach
        notifications (or use :meth:`allocate`, which does): the fast path
        below trusts the incremental composition to describe ``statics``.
        """
        n = len(statics)
        if n == 0:
            return np.empty(0)
        if type(statics) is np.ndarray:
            arr = statics
        else:
            arr = np.asarray(statics, dtype=float)
        # Packed per-task code: everything the base rate depends on.  The
        # multiset of codes fully determines the allocation, so the sorted
        # code array is the memo key — and codes of tasks on *different but
        # equally occupied* cores collide by construction, which is exactly
        # the invariance that makes steady-state compositions recur.
        if self._multi_cores:
            ints = arr[:, :2].astype(np.int64)
            core = ints[:, 1]
            occupancy = np.bincount(core)[core]  # active HTs on own core
            codes = ints[:, 0] + ((occupancy - 1) << 12)
            sorted_codes = np.sort(codes)
            key = sorted_codes.tobytes()
            entry = self._cache.get(key)
            if entry is None:
                self.cache_misses += 1
                if len(self._cache) >= _CACHE_LIMIT:
                    self._cache.clear()
                    self.cache_evictions += 1
                entry = self._base_rates(sorted_codes)
                self._cache[key] = entry
            else:
                self.cache_hits += 1
            uniq, base = entry
            # Per-execution speed factor (models run-to-run microarchitectural
            # variability — cache state, TLB, OS noise; see CpuModel.jitter).
            return base[np.searchsorted(uniq, codes)] * arr[:, 2]
        # No core runs more than one active task (tracked incrementally by
        # the attach/detach hooks): every occupancy is 1, already baked into
        # the static codes, and the composition is just the count vector
        # over dense code ids the same hooks maintain — no sort, no pass
        # over the tasks, and rate lookup is direct indexing.
        key = tuple(self._dense_counts)
        cache = self._dense_cache
        base = cache.get(key)
        if base is None:
            self.cache_misses += 1
            if len(cache) >= _CACHE_LIMIT:
                cache.clear()
                self.cache_evictions += 1
            base = self._base_rates_dense(key)
            cache[key] = base
        else:
            self.cache_hits += 1
        return base[arr[:, 3].astype(np.intp)] * arr[:, 2]

    def _base_rates(self, sorted_codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Speed-independent rate per packed code for one composition.

        All tasks sharing a code have identical issue ceilings and bandwidth
        demands, so max-min fairness grants them identical rates — the
        computation runs per *unique* code with multiplicities as
        water-filling weights.  Returns ``(unique codes, rate per code)``.
        """
        # Run-length encode the pre-sorted codes — group boundaries are the
        # positions where adjacent codes differ, so unique codes and their
        # multiplicities come out of three array ops instead of a Python pass
        # over every task (np.unique would re-sort what is already sorted).
        n = sorted_codes.size
        flag = np.empty(n, dtype=bool)
        flag[0] = True
        np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=flag[1:])
        starts = flag.nonzero()[0]
        uniq = sorted_codes[starts]
        m = starts.size
        if m <= _SCALAR_MAX_GROUPS:
            bounds = starts.tolist()
            bounds.append(n)
            counts = [bounds[k + 1] - bounds[k] for k in range(m)]
            return self._base_rates_scalar(uniq, counts)
        counts = np.empty(m, dtype=np.int64)
        np.subtract(starts[1:], starts[:-1], out=counts[: m - 1])
        counts[m - 1] = n - starts[m - 1]
        return self._base_rates_groups(uniq, counts)

    def _base_rates_groups(
        self, uniq: np.ndarray, counts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized pricing of one composition given as (codes, weights).

        ``uniq`` must be sorted ascending — both callers iterate groups in
        code order, which pins the floating-point summation sequence and
        keeps every memo path bit-compatible.
        """
        pid = uniq >> 24
        occupancy = (uniq >> 12) & 0xFFF
        node = uniq & 0xFFF
        ipc0 = self._profile_ipc0[pid]
        bpi = self._profile_bpi[pid]

        # Stage 1: per-core issue sharing — the occupancy is baked into the
        # code, so the ceiling is a pure elementwise expression.
        ceilings = ipc0 * self.frequency_hz / occupancy
        demands = ceilings * bpi

        # Stage 2: per-node bandwidth water filling against the
        # concurrency-dependent achievable capacity of that node.
        demanding = demands > 0.0
        grants = np.zeros(uniq.size)
        if (node == node[0]).all():
            # Fast path (the paper's testbed): one contention domain.
            n_demanding = int(counts[demanding].sum())
            grants[:] = waterfill_vec(
                demands, self.effective_capacity(n_demanding), counts
            )
        else:
            for nd in np.unique(node):
                sel = node == nd
                n_demanding = int(counts[sel & demanding].sum())
                grants[sel] = waterfill_vec(
                    demands[sel], self.effective_capacity(n_demanding), counts[sel]
                )

        rates = np.where(
            bpi <= 0.0,
            ceilings,
            np.minimum(
                ceilings,
                np.divide(grants, bpi, out=np.zeros_like(grants), where=bpi > 0.0),
            ),
        )
        return uniq, rates

    def _base_rates_dense(self, counts: tuple[int, ...]) -> np.ndarray:
        """Base rate per dense code id for one single-occupancy composition.

        ``counts`` is the count vector over dense ids (zeros for absent
        codes).  The physics per id was precomputed at intern time and the
        walks are static, so a miss is three scalar passes over the present
        ids of each node: totals in *code order* (the summation sequence of
        every pricing path), the water level in *stable demand order* (the
        sequence :func:`waterfill_scalar` sorts its groups into), then the
        rates — operation for operation the arithmetic of
        :func:`waterfill_scalar` behind :meth:`_base_rates_scalar`, hence
        bit-identical to it.  Compositions beyond the scalar group limit
        price through :meth:`_base_rates_groups`.  Returns a rate array
        indexed by dense id.
        """
        if len(counts) - counts.count(0) > _SCALAR_MAX_GROUPS:
            code_l = self._dense_code_l
            active = sorted(
                (d for d, w in enumerate(counts) if w), key=code_l.__getitem__
            )
            uniq = np.array([code_l[d] for d in active], dtype=np.int64)
            weights = np.array([counts[d] for d in active], dtype=np.int64)
            base = np.zeros(len(counts))
            base[active] = self._base_rates_groups(uniq, weights)[1]
            return base
        demand_l = self._dense_demand_l
        ceiling_l = self._dense_ceiling_l
        bpi_l = self._dense_bpi_l
        base = [0.0] * len(counts)
        for by_code, by_demand in self._dense_walks.values():
            n_tasks = n_demanding = 0
            total = 0.0
            for d in by_code:
                w = counts[d]
                if w:
                    n_tasks += w
                    demand = demand_l[d]
                    total += w * demand
                    if demand > 0.0:
                        n_demanding += w
            if not n_tasks:
                continue
            capacity = self.effective_capacity(n_demanding)
            level = math.inf  # under-subscribed: every demand is granted in full
            if not total <= capacity * (1.0 + _EPS):
                w_total = float(n_tasks)
                prev_w = 0.0
                prev_wd = 0.0
                for d in by_demand:
                    w = counts[d]
                    if w:
                        level = (capacity - prev_wd) / (w_total - prev_w)
                        if level <= demand_l[d] * (1.0 + _EPS):
                            break
                        prev_w += w
                        prev_wd += w * demand_l[d]
                if level < 0.0:
                    level = 0.0
            for d in by_code:
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

    def _base_rates_scalar(
        self, uniq_arr: np.ndarray, counts: list[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Scalar twin of the vectorized miss path for small single-node
        compositions.

        With at most :data:`_SCALAR_MAX_GROUPS` unique codes, plain Python
        floats beat numpy's per-call overhead by ~4x.  Every arithmetic step
        mirrors the vectorized path operation-for-operation (numpy reduces
        sums of fewer than 8 elements strictly sequentially), so both paths
        produce bit-identical rates and the memo stays path-independent.
        """
        freq = self.frequency_hz
        ipc0_l = self._profile_ipc0_l
        bpi_l = self._profile_bpi_l
        uniq = uniq_arr.tolist()
        m = len(uniq)
        ceilings = [0.0] * m
        demands = [0.0] * m
        bpis = [0.0] * m
        nodes = [0] * m
        for j, code in enumerate(uniq):
            pid = code >> 24
            occ = (code >> 12) & 0xFFF
            nodes[j] = code & 0xFFF
            bpi_j = bpi_l[pid]
            ceil_j = ipc0_l[pid] * freq / occ
            ceilings[j] = ceil_j
            demands[j] = ceil_j * bpi_j
            bpis[j] = bpi_j
        if nodes.count(nodes[0]) != m:
            # Several contention domains: the vectorized path splits them.
            return self._base_rates_groups(uniq_arr, np.array(counts, dtype=np.int64))
        n_demanding = 0
        for j in range(m):
            if demands[j] > 0.0:
                n_demanding += counts[j]
        grants = waterfill_scalar(demands, self.effective_capacity(n_demanding), counts)
        rates = [0.0] * m
        for j in range(m):
            bpi_j = bpis[j]
            if bpi_j <= 0.0:
                rates[j] = ceilings[j]
            else:
                rates[j] = min(ceilings[j], grants[j] / bpi_j)
        return uniq_arr, np.array(rates)

    # -- sequence interface (tests, diagnostics, non-engine callers) ----------

    def allocate(self, tasks: _t.Sequence[FluidTask]) -> list[float]:
        """Instruction rates for the active compute tasks (see module docs).

        Both sharing stages are per *node*: hyper-threads share their own
        core's issue slots, and the bandwidth water-filling runs over each
        node's tasks against that node's achievable capacity (nodes of a
        cluster are independent contention domains).  Delegates to the same
        vectorized engine the fluid resource drives through the batch
        protocol, so direct calls and engine calls agree bit-for-bit.
        """
        if not tasks:
            return []
        statics = [self.prepare(t) for t in tasks]
        for s in statics:
            self.notify_attach(s)
        try:
            return self.allocate_batch(statics).tolist()
        finally:
            for s in statics:
                self.notify_detach(s)

    def effective_ipc(self, rate_instr_per_s: float) -> float:
        """Convert an instruction rate back to IPC (for counters/tracing)."""
        return rate_instr_per_s / self.frequency_hz
