"""Dual-mode message payloads.

Simulated communication must serve two masters:

* **correctness runs** move real numpy arrays so the distributed FFT can be
  validated against a dense reference;
* **performance sweeps** only need the *size* of every message to drive the
  cost model — copying hundreds of megabytes around a 256-rank sweep would
  make the benchmark harness pointlessly slow.

A payload is therefore either a ``numpy.ndarray`` (data + size) or a
:class:`MetaPayload` (size only).  All of :mod:`repro.mpisim` and the FFTXlib
pipeline accept both; :func:`nbytes_of` and :func:`payload_like` are the two
helpers that keep the call sites mode-agnostic.
"""

from __future__ import annotations

import typing as _t

import numpy as np

__all__ = ["BlockType", "MetaPayload", "nbytes_of", "payload_like"]


class MetaPayload:
    """A message body known only by size (and optionally logical length).

    Parameters
    ----------
    nbytes:
        Size in bytes used by the communication cost model.
    count:
        Optional element count (for sanity checks mirroring array lengths).
    """

    __slots__ = ("nbytes", "count")

    def __init__(self, nbytes: float, count: int | None = None):
        if nbytes < 0:
            raise ValueError(f"negative payload size {nbytes!r}")
        self.nbytes = float(nbytes)
        self.count = count

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MetaPayload({self.nbytes:.0f} B)"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MetaPayload)
            and other.nbytes == self.nbytes
            and other.count == self.count
        )

    def __hash__(self) -> int:
        return hash((self.nbytes, self.count))


class BlockType:
    """A derived-datatype block descriptor into a rank's flat buffer.

    The simulated analogue of an ``MPI_Datatype`` handed to
    ``MPI_Alltoallw``: it names *which elements* of a flat send (or
    receive) buffer one peer's share occupies, so the exchange can move
    values directly between the two buffers with no intermediate packed
    staging copy.  Three shapes cover every plan in the data plane:

    * **subarray** — an N-d strided window: ``shape`` elements per axis,
      ``strides`` (in elements) apart, starting at ``offset`` (an
      ``MPI_Type_create_subarray``; ``strided`` is its 2-d
      ``MPI_Type_vector`` special case).  The regular side of every
      transpose — z-ranges of stick columns, y-ranges of brick rows — and
      both sides of the pencil y<->x transpose's live parts.  Moved as a strided
      *view*: no index array exists unless someone asks for one.
    * **outer** — an irregular ``base`` offset per item group times a
      regular subarray step (``MPI_Type_create_hindexed`` of a subarray):
      stick positions inside a plane or brick, each repeated along z.
      Moved with one fancy index over ``base`` alone.
    * **indexed** — an explicit flat-index array (``MPI_Type_indexed``
      with unit blocks) for the genuinely irregular blocks: sphere
      coefficients inside a stick block, or inside one band row of the
      global coefficient array.  The index array may be supplied
      lazily (a zero-argument callable) so plans built for meta-mode
      sweeps never materialize it.

    plus **meta** — only the element count is known.  Enough for the cost
    model; using it to move data raises.

    Items are ordered base-major, then C order over ``shape``, so the
    items of each *leading row* (one base offset, or one index of a
    subarray's first axis) are consecutive and :meth:`rows` cuts a block
    into row ranges of the same shape.  :meth:`take` / :meth:`put` /
    :meth:`zero` address the items through views and the base offsets
    alone; :meth:`indices` derives (and caches) the flat index of every
    item in the same order, for the tests and tools that want it.

    ``itemsize`` prices the block for the network model (complex128 by
    default, matching the pipeline's payloads).
    """

    __slots__ = (
        "offset", "shape", "strides", "itemsize", "_base", "_count", "_indices", "_n_items",
    )

    def __init__(self, offset, shape, strides, itemsize=16, _base=None, _count=None):
        self.offset = int(offset)
        self.shape = tuple(int(n) for n in shape)
        self.strides = tuple(int(n) for n in strides)
        if len(self.shape) != len(self.strides):
            raise ValueError(
                f"block shape {self.shape} and strides {self.strides} differ in rank"
            )
        if any(n < 0 for n in self.shape) or (_count is not None and _count < 0):
            raise ValueError(
                f"negative block geometry: shape={self.shape}, count={_count}"
            )
        self.itemsize = int(itemsize)
        #: Outer blocks: the flat offsets the step repeats at (an array, or
        #: a callable returning one); ``None`` for a plain subarray.
        self._base = _base
        #: Meta blocks: the element count (``None`` otherwise).
        self._count = _count
        self._indices: np.ndarray | None = None
        #: The element count, computed on first use (an outer block's needs
        #: its lazy base resolved) — a block is immutable once built.
        self._n_items: int | None = _count

    @classmethod
    def subarray(cls, offset: int, shape, strides, itemsize: int = 16) -> "BlockType":
        """An N-d window: ``shape`` elements, ``strides`` apart (in elements)."""
        return cls(offset, shape, strides, itemsize)

    @classmethod
    def strided(
        cls, offset: int, count: int, blocklen: int, stride: int, itemsize: int = 16
    ) -> "BlockType":
        """``count`` blocks of ``blocklen`` elements, ``stride`` apart."""
        return cls(offset, (count, blocklen), (stride, 1), itemsize)

    @classmethod
    def outer(cls, base, shape, strides, itemsize: int = 16, offset: int = 0) -> "BlockType":
        """The subarray step ``shape``/``strides`` repeated at every flat
        offset in ``base`` (an array, or a callable returning one), counted
        from ``offset`` — so blocks ``offset`` apart can share one ``base``."""
        if not callable(base):
            base = np.asarray(base).reshape(-1)
        return cls(offset, shape, strides, itemsize, _base=base)

    @classmethod
    def indexed(cls, indices, itemsize: int = 16, offset: int = 0) -> "BlockType":
        """Explicit flat indices (array, or a callable returning one),
        counted from ``offset`` — an outer block with an empty step."""
        return cls.outer(indices, (), (), itemsize, offset)

    @classmethod
    def meta(cls, n_items: int, itemsize: int = 16) -> "BlockType":
        """Size-only descriptor for meta-mode (cost accounting) runs."""
        return cls(0, (), (), itemsize, _count=int(n_items))

    @property
    def is_meta(self) -> bool:
        return self._count is not None

    @property
    def base(self) -> np.ndarray | None:
        """An outer block's flat offsets (resolving a lazy supplier)."""
        if callable(self._base):
            self._base = np.asarray(self._base()).reshape(-1)
        return self._base

    @property
    def materialized(self) -> bool:
        """Whether a full per-item index array exists in memory right now
        (an indexed block's own array counts once its supplier has run)."""
        if self._indices is not None:
            return True
        return not self.shape and self._base is not None and not callable(self._base)

    @property
    def n_items(self) -> int:
        """Number of elements the block covers."""
        n = self._n_items
        if n is None:
            n = 1 if self._base is None else int(self.base.size)
            for dim in self.shape:
                n *= dim
            self._n_items = n
        return n

    @property
    def nbytes(self) -> float:
        """Bytes the block injects into the transport."""
        return float(self.n_items * self.itemsize)

    @property
    def lead(self) -> int:
        """Leading rows: the base offsets of an outer block, the first axis
        of a subarray — consecutive item runs of equal length."""
        if self._base is not None:
            return int(self.base.size)
        return self.shape[0] if self.shape else 1

    def rows(self, lo: int, hi: int) -> "BlockType":
        """The block restricted to leading rows ``[lo, hi)`` (itself when
        that is every row)."""
        if lo == 0 and hi == self.lead:
            return self
        if self._base is not None:
            return BlockType.outer(
                self.base[lo:hi], self.shape, self.strides, self.itemsize, self.offset
            )
        return BlockType.subarray(
            self.offset + lo * self.strides[0], (hi - lo, *self.shape[1:]), self.strides,
            self.itemsize,
        )

    def indices(self) -> np.ndarray:
        """The (cached) flat index of every item, in item order."""
        if self._indices is None:
            if self.is_meta:
                raise ValueError("meta BlockType carries no element indices")
            base = self.base
            if base is None:
                idx = np.array([self.offset], dtype=np.intp)
            else:
                idx = base + self.offset if self.offset else base
            for n, stride in zip(self.shape, self.strides):
                idx = idx[..., None] + np.arange(n, dtype=np.intp) * stride
            self._indices = idx.reshape(-1)
        return self._indices

    def _window(self, flat: np.ndarray) -> np.ndarray:
        """The block as a strided view of ``flat``: the subarray itself, or
        for an outer block the step laid out at every admissible base
        offset (axis 0, overlapping) so ``window[base]`` addresses the items."""
        if self.is_meta:
            raise ValueError("meta BlockType carries no element indices")
        item = flat.itemsize
        shape, strides = self.shape, self.strides
        if self._base is not None:
            reach = sum((n - 1) * s for n, s in zip(shape, strides))
            shape, strides = (flat.size - self.offset - reach, *shape), (1, *strides)
        return np.ndarray(
            shape, flat.dtype, flat, self.offset * item, tuple(s * item for s in strides)
        )

    def take(self, flat: np.ndarray) -> np.ndarray:
        """The block's items out of a flat buffer, in item order — a view
        for a subarray, one gathered copy otherwise."""
        window = self._window(flat)
        return window if self._base is None else window[self.base]

    def put(self, flat: np.ndarray, items: np.ndarray) -> None:
        """Write ``items`` (in item order, any congruent shape) into the
        block's slots of a flat buffer."""
        window = self._window(flat)
        if self._base is None:
            np.copyto(window, items.reshape(self.shape))
        else:
            window[self.base] = items.reshape(-1, *self.shape)

    def zero(self, flat: np.ndarray) -> None:
        """Set the block's slots of a flat buffer to zero."""
        window = self._window(flat)
        if self._base is None:
            window[...] = 0
        else:
            window[self.base] = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self.is_meta:
            return f"BlockType(meta, n={self._count})"
        if self._base is None:
            head = f"offset={self.offset}"
        else:
            head = "outer, nbase=" + ("lazy" if callable(self._base) else str(len(self._base)))
        return f"BlockType({head}, shape={self.shape}, strides={self.strides})"


Payload = _t.Union[np.ndarray, MetaPayload]


def nbytes_of(payload: Payload) -> float:
    """Size in bytes of a payload of either mode."""
    if isinstance(payload, MetaPayload):
        return payload.nbytes
    if isinstance(payload, np.ndarray):
        return float(payload.nbytes)
    raise TypeError(f"not a payload: {payload!r} (expected ndarray or MetaPayload)")


def payload_like(payload: Payload) -> Payload:
    """A receive-side placeholder with the same size/content semantics.

    Arrays are *copied* (the receiver owns its data — simulated ranks share
    one address space, so aliasing a sender's buffer would let later in-place
    updates corrupt messages already 'delivered'); meta payloads pass through.
    """
    if isinstance(payload, MetaPayload):
        return payload
    if isinstance(payload, np.ndarray):
        return payload.copy()
    raise TypeError(f"not a payload: {payload!r} (expected ndarray or MetaPayload)")
