"""Reusable data-plane buffer arenas (the zero-allocation workspace).

A :class:`Workspace` is one process's pool of exchange receive buffers,
under an acquire/release protocol: buffers are keyed by ``(slot, shape,
dtype)`` and recycled across bands, directions, iterations and — because
arenas attach to the (process-cached) :class:`~repro.grids.descriptor.
DistributedLayout` — across runs and sweep points of the same workload.

A rank of the step chain needs two exchange buffers at once, the one it
sends from and the one it receives into, so the pipeline keys its pools
by *receive slot* (0 or 1, fixed by the chain: see
:func:`repro.core.pipeline.receive_slots`), not by what a buffer holds.
Every buffer of a slot has one flat size, the largest block the slot
receives on that rank; a stage's block is the head of a buffer viewed in
its shape, and the buffer released is the view's base.  A pencil stick
block so lives in the bytes of its rank's x-brick, never live at the same
time.

Design constraints, in decreasing order of importance:

* **Safety over thrift.**  ``release`` is tolerant: ``None``, arrays the
  arena never handed out (foreign), and double releases are all ignored
  (counted, not raised).  A generator killed mid-chain by fault injection
  simply leaks its checkouts — the arena holds only weak references to
  checked-out buffers, so the memory is reclaimed by the GC and the pool
  refills by allocating.
* **Concurrency.**  Several band chains interleave on one rank (the
  per-FFT/combined executors) and the sweep thread executor can share one
  layout's arenas across threads, so every operation takes the arena lock
  and checkouts are tracked per buffer identity, never per buffer name.
* **Observability.**  Counters (acquires, reuse hits, alloc misses,
  releases) and gauges (bytes resident, live peak) feed the telemetry
  ``dataplane.*`` gauges and the manifest ``dataplane`` section.

The arena is an *optimization*, never a semantic layer: every helper that
accepts an arena buffer also runs identically (bit-for-bit) with fresh
allocations when no workspace is supplied.
"""

from __future__ import annotations

import threading
import typing as _t
import weakref

import numpy as np

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.grids.descriptor import DistributedLayout

__all__ = ["Workspace", "workspace_for", "layout_workspaces", "aggregate_stats"]

#: Layout attribute holding the per-process arena dict.  Attached lazily so
#: the layout class itself stays a pure geometry object.
_ARENAS_ATTR = "_dataplane_arenas"

_module_lock = threading.Lock()

#: Checkout-table size above which dead (leaked-and-collected) entries are
#: pruned on the next acquire.
_PRUNE_THRESHOLD = 256


def _key_bytes(key: tuple) -> int:
    _slot, shape, dtypestr = key
    n = 1
    for dim in shape:
        n *= int(dim)
    return n * np.dtype(dtypestr).itemsize


class Workspace:
    """One process's pooled data-plane buffers.

    ``acquire(slot, shape)`` returns a recycled buffer when one of the
    exact ``(slot, shape, dtype)`` key is free, else allocates.  ``slot`` is
    any hashable pool name; the pipeline's are its two receive slots.
    Contents are *unspecified* — callers must write or zero every item a
    later reader reads (dead items, read by nobody, may keep whatever they
    hold).  ``release`` returns buffers to the pool; only the exact array
    object previously acquired is accepted (views are not, by design — the
    holder of a view releases its base, the buffer itself).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pools: dict[tuple, list[np.ndarray]] = {}
        #: id(buffer) -> (pool key, weakref) for checked-out buffers.  The
        #: weakref both avoids keeping leaked buffers alive and lets release
        #: detect id reuse after a leak (the ref no longer matches).
        self._out: dict[int, tuple[tuple, weakref.ref]] = {}
        self.acquires = 0
        self.reuse_hits = 0
        self.alloc_misses = 0
        self.releases = 0
        self.foreign_releases = 0
        #: Checkouts whose buffer was garbage-collected without a release —
        #: pruned entries plus (in :meth:`stats`) currently-dead refs.  A
        #: monotonic counter: the arena outlives the run, so across a sweep's
        #: many runs a silent leak becomes a steady drift, not an invisible
        #: prune.
        self.leaked = 0
        self.live = 0
        self.live_peak = 0

    def acquire(
        self,
        slot: _t.Hashable,
        shape: tuple,
        dtype: np.dtype | type = np.complex128,
    ) -> np.ndarray:
        """Check out a C-contiguous buffer of the given slot/shape/dtype."""
        key = (slot, tuple(int(s) for s in shape), np.dtype(dtype).str)
        with self._lock:
            if len(self._out) > _PRUNE_THRESHOLD:
                self._prune_locked()
            self.acquires += 1
            pool = self._pools.get(key)
            if pool:
                buf = pool.pop()
                self.reuse_hits += 1
            else:
                buf = np.empty(key[1], dtype=np.dtype(key[2]))
                self.alloc_misses += 1
            self._out[id(buf)] = (key, weakref.ref(buf))
            self.live += 1
            if self.live > self.live_peak:
                self.live_peak = self.live
        return buf

    def release(self, *arrays: np.ndarray | None) -> None:
        """Return buffers to their pools; tolerant of anything not ours."""
        for arr in arrays:
            if arr is None:
                continue
            with self._lock:
                entry = self._out.get(id(arr))
                if entry is None:
                    self.foreign_releases += 1
                    continue
                key, ref = entry
                if ref() is not arr:
                    # id reuse after a leaked buffer was collected: the
                    # stale entry is dropped, this release is foreign.
                    del self._out[id(arr)]
                    self.live -= 1
                    self.foreign_releases += 1
                    continue
                del self._out[id(arr)]
                self._pools.setdefault(key, []).append(arr)
                self.releases += 1
                self.live -= 1

    def _prune_locked(self) -> None:
        """Drop checkout entries whose buffer was garbage-collected."""
        dead = [i for i, (_k, ref) in self._out.items() if ref() is None]
        for i in dead:
            del self._out[i]
        self.live -= len(dead)
        self.leaked += len(dead)

    def begin_run(self) -> None:
        """Reset the peak tracker at a run boundary (counters keep running)."""
        with self._lock:
            self._prune_locked()
            self.live_peak = self.live

    def stats(self) -> dict[str, int]:
        """Current counters plus derived byte gauges."""
        with self._lock:
            pooled = sum(len(bufs) for bufs in self._pools.values())
            bytes_pooled = sum(
                _key_bytes(key) * len(bufs) for key, bufs in self._pools.items()
            )
            bytes_out = sum(
                _key_bytes(key)
                for key, ref in self._out.values()
                if ref() is not None
            )
            dead_out = sum(1 for _key, ref in self._out.values() if ref() is None)
            return {
                "acquires": self.acquires,
                "reuse_hits": self.reuse_hits,
                "alloc_misses": self.alloc_misses,
                "releases": self.releases,
                "foreign_releases": self.foreign_releases,
                "workspace_leaks": self.leaked + dead_out,
                "live": self.live,
                "live_peak": self.live_peak,
                "pooled": pooled,
                "bytes_resident": bytes_pooled + bytes_out,
            }


def workspace_for(layout: "DistributedLayout", p: int) -> Workspace:
    """The (created-on-demand) arena of layout process ``p``.

    Arenas live on the layout object, which :func:`~repro.core.driver.
    build_geometry` caches per process — so repeated runs and sweep points
    of one workload share pools instead of re-allocating.
    """
    with _module_lock:
        arenas = getattr(layout, _ARENAS_ATTR, None)
        if arenas is None:
            arenas = {}
            setattr(layout, _ARENAS_ATTR, arenas)
        ws = arenas.get(p)
        if ws is None:
            ws = Workspace()
            arenas[p] = ws
    return ws


def layout_workspaces(layout: "DistributedLayout") -> dict[int, Workspace]:
    """Snapshot of the layout's arenas (empty if none were created)."""
    with _module_lock:
        return dict(getattr(layout, _ARENAS_ATTR, None) or {})


def aggregate_stats(workspaces: _t.Iterable[Workspace]) -> dict[str, int]:
    """Element-wise sum of :meth:`Workspace.stats` over arenas."""
    total: dict[str, int] = {}
    for ws in workspaces:
        for name, value in ws.stats().items():
            total[name] = total.get(name, 0) + value
    return total
