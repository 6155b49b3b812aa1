"""The backend interface of the pluggable kernel plane.

A *backend* turns a :class:`PlanSpec` — transform kind, batched shape,
dtype, memory layout — into an *executable*: a callable
``exe(x, sign, out=None, workers=None)`` that runs the batched transform in
Quantum ESPRESSO's conventions (the same conventions as
:func:`repro.fft.batched.cft_1z` / :func:`~repro.fft.batched.cft_2xy`):

``c2c_1d``
    Batched 1D transforms along the last axis of ``(nbatch, n)``.
    ``sign=+1`` is the G→R direction (exponent ``+i``, unscaled);
    ``sign=-1`` is R→G (exponent ``-i``, scaled by ``1/n``).
``c2c_2d``
    Batched 2D transforms over the last two axes of ``(nbatch, nx, ny)``;
    ``sign=-1`` scales by ``1/(nx*ny)``.
``rfft``
    Batched unnormalised forward DFT of *real* input ``(nbatch, n)``
    returning the ``n//2 + 1`` non-redundant coefficients
    (``numpy.fft.rfft`` convention).  Only ``sign=-1`` is meaningful.

The c2c executables of a backend with ``honours_support`` also take a
``support=`` hint — the stick support of the block, as half-open index
runs (:data:`repro.grids.sticks.Runs`): for ``c2c_1d`` the runs of batch
rows that carry data, for ``c2c_2d`` the pair ``(x_runs, y_runs)`` of
non-empty x rows / y columns of a plane.  By passing it the caller
promises that lines outside the support are zero on input when
``sign=+1`` and are never read from the output when ``sign=-1``; the
executable then transforms only supported lines (``sign=+1`` leaves zeros
outside them, ``sign=-1`` leaves those output lines unspecified).  A
backend without the flag never sees the hint — its dense result is a
superset.

Two memory layouts are supported.  ``aos`` (array-of-structures) is the
ordinary interleaved complex ndarray.  ``soa`` (structure-of-arrays) keeps
real and imaginary parts in separate planes — a float array of shape
``(2,) + shape`` with ``x[0]`` the real plane and ``x[1]`` the imaginary
plane (for ``rfft`` the *input* is already real/planar, so only the output
is planar).  The layout study referenced in SNIPPETS.md motivates offering
both: batched strided transforms can prefer either depending on the
hardware's gather/scatter cost.

Every backend must be *numerically conformant*: its executables must match
the pocketfft reference to :data:`CONFORMANCE_RTOL`/:data:`CONFORMANCE_ATOL`
per dtype — pinned by ``tests/fft/test_backend_conformance.py``, which is
what makes swapping kernels under the reproduction safe.
"""

from __future__ import annotations

import abc
import dataclasses
import importlib.util

import numpy as np

__all__ = [
    "KINDS",
    "LAYOUTS",
    "CONFORMANCE_RTOL",
    "CONFORMANCE_ATOL",
    "BackendUnavailableError",
    "PlanSpec",
    "FftBackend",
    "LibraryBackend",
    "complex_dtype_of",
    "real_dtype_of",
    "result_shape",
    "check_input",
    "deliver",
]

#: Transform kinds every backend provides.
KINDS: tuple[str, ...] = ("c2c_1d", "c2c_2d", "rfft")

#: Supported memory layouts (see module docstring).
LAYOUTS: tuple[str, ...] = ("aos", "soa")

#: Differential-conformance tolerances versus the pocketfft reference,
#: keyed by the *complex* working dtype.  Double precision agrees to a few
#: ulps across implementations; single precision carries its own rounding.
CONFORMANCE_RTOL: dict[str, float] = {"complex128": 1e-12, "complex64": 3e-5}
CONFORMANCE_ATOL: dict[str, float] = {"complex128": 1e-13, "complex64": 1e-4}


class BackendUnavailableError(ValueError):
    """A known backend cannot run here (its library is not importable)."""


#: dtype families per kind: c2c kinds take complex input, rfft real input.
_C2C_DTYPES = ("complex128", "complex64")
_RFFT_DTYPES = ("float64", "float32")

_NDIM = {"c2c_1d": 2, "c2c_2d": 3, "rfft": 2}


@dataclasses.dataclass(frozen=True)
class PlanSpec:
    """One plan request: kind + logical (AoS) batched shape + dtype + layout.

    ``shape`` is always the *logical* batch shape — ``(nbatch, n)`` or
    ``(nbatch, nx, ny)`` — never including the SoA plane axis; ``dtype`` is
    the *input* dtype string (complex for c2c kinds, real for rfft).
    """

    kind: str
    shape: tuple[int, ...]
    dtype: str
    layout: str = "aos"

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown transform kind {self.kind!r}; choose from {KINDS}")
        if self.layout not in LAYOUTS:
            raise ValueError(f"unknown layout {self.layout!r}; choose from {LAYOUTS}")
        shape = tuple(int(s) for s in self.shape)
        object.__setattr__(self, "shape", shape)
        if len(shape) != _NDIM[self.kind] or any(s < 1 for s in shape):
            raise ValueError(
                f"{self.kind} expects a batched shape of {_NDIM[self.kind]} "
                f"positive axes, got {shape}"
            )
        dtype = np.dtype(self.dtype).name
        object.__setattr__(self, "dtype", dtype)
        allowed = _RFFT_DTYPES if self.kind == "rfft" else _C2C_DTYPES
        if dtype not in allowed:
            raise ValueError(f"{self.kind} supports dtypes {allowed}, got {dtype!r}")

    @property
    def scale_axes(self) -> tuple[int, ...]:
        """Transform axes (of the logical shape) whose product scales R→G."""
        return (-2, -1) if self.kind == "c2c_2d" else (-1,)


def complex_dtype_of(spec: PlanSpec) -> np.dtype:
    """The complex working/output dtype of a spec (c64 for single precision)."""
    return np.dtype(
        "complex64" if spec.dtype in ("complex64", "float32") else "complex128"
    )


def real_dtype_of(spec: PlanSpec) -> np.dtype:
    """The real plane dtype of a spec's SoA representation."""
    return np.dtype(
        "float32" if spec.dtype in ("complex64", "float32") else "float64"
    )


def result_shape(spec: PlanSpec) -> tuple[int, ...]:
    """Logical (AoS) output shape: input shape except rfft's halved last axis."""
    if spec.kind == "rfft":
        return spec.shape[:-1] + (spec.shape[-1] // 2 + 1,)
    return spec.shape


def check_input(spec: PlanSpec, x: np.ndarray, sign: int) -> None:
    """Validate one executable call against its spec (shape, dtype, sign)."""
    if spec.kind == "rfft":
        if sign != -1:
            raise ValueError(f"rfft is a forward transform; sign must be -1, got {sign}")
    elif sign not in (-1, 1):
        raise ValueError(f"sign must be -1 or +1, got {sign}")
    expect = spec.shape
    if spec.layout == "soa" and spec.kind != "rfft":
        expect = (2,) + expect
    if tuple(x.shape) != expect:
        raise ValueError(
            f"{spec.kind}/{spec.layout} executable planned for shape {expect}, "
            f"got {tuple(x.shape)}"
        )


def deliver(res: np.ndarray, out: np.ndarray | None, dtype: np.dtype) -> np.ndarray:
    """Finish one executable call: cast to the spec dtype, honour ``out``.

    The result is always *computed* first and then copied — so the values a
    caller receives are bit-identical whether or not it supplied ``out``,
    and ``out`` may alias the input.  (The default numpy backend's c2c
    kinds write into ``out`` directly instead; same bits, one pass less.)
    """
    res = np.asarray(res)
    if res.dtype != dtype:
        res = res.astype(dtype)
    if out is not None:
        np.copyto(out, res)
        return out
    return res


class FftBackend(abc.ABC):
    """One kernel provider (numpy pocketfft, scipy, pyFFTW, native, ...)."""

    #: Registry name (also the ``RunConfig.fft_backend`` value selecting it).
    name: str = "?"
    #: Whether the backend's executables accept a ``workers=N`` argument
    #: that runs the batch on N threads *inside* the library.  When false,
    #: the engine's multicore mode uses the shared-memory process pool.
    supports_workers: bool = False
    #: Whether the c2c executables accept the ``support=`` hint (see the
    #: module docstring) and skip lines outside the stick support.
    honours_support: bool = False

    @abc.abstractmethod
    def availability(self) -> tuple[bool, str]:
        """``(available, note)`` — note is a version string or skip reason."""

    @abc.abstractmethod
    def _plan_aos(self, spec: PlanSpec):
        """Build the AoS executable for a (validated, available) spec."""

    def plan(self, kind: str, shape: tuple, dtype=np.complex128, layout: str = "aos"):
        """An executable ``exe(x, sign, out=None, workers=None)`` for the spec
        (``out`` may be ``x`` itself).

        Raises :class:`BackendUnavailableError` when the backing library is
        not importable here, and ``ValueError`` for malformed specs.
        """
        spec = PlanSpec(kind, tuple(shape), np.dtype(dtype).name, layout)
        available, note = self.availability()
        if not available:
            raise BackendUnavailableError(
                f"fft backend {self.name!r} is not available: {note}"
            )
        if spec.layout == "soa":
            from repro.fft.backends.soa import wrap_soa

            aos = self._plan_aos(dataclasses.replace(spec, layout="aos"))
            return wrap_soa(aos, spec)
        return self._plan_aos(spec)

    def describe(self) -> dict:
        """Registry/CLI row: name, availability, capabilities."""
        available, note = self.availability()
        return {
            "name": self.name,
            "available": available,
            "note": note,
            "kinds": list(KINDS),
            "layouts": list(LAYOUTS),
            "supports_workers": self.supports_workers,
        }


class LibraryBackend(FftBackend):
    """A backend over an optional third-party library.

    Naming the backend — config validation, ``--fft-backend``, building a
    :class:`~repro.fft.backends.engine.KernelEngine` — never imports the
    library: :meth:`availability` probes with ``importlib.util.find_spec``.
    The import happens in :meth:`load`, on the first ``plan()``.  A library
    that is found but fails to import is reported there as a
    :class:`BackendUnavailableError` naming the import error, and by
    :meth:`availability` from then on.
    """

    #: Top-level import name of the library.
    library: str = "?"

    def __init__(self) -> None:
        self._loaded: tuple | None = None  # (what _import returned, version note)
        self._import_error: str | None = None

    @abc.abstractmethod
    def _import(self) -> tuple:
        """Import the library; return ``(handle, version note)`` — the
        handle is whatever :meth:`_plan_aos` needs from it."""

    def availability(self) -> tuple[bool, str]:
        if self._loaded is not None:
            return True, self._loaded[1]
        if self._import_error is not None:
            return False, self._import_error
        try:
            found = importlib.util.find_spec(self.library) is not None
        except (ImportError, ValueError) as exc:
            return False, f"{self.library} cannot be imported: {exc}"
        if not found:
            return False, f"{self.library} is not installed"
        return True, f"{self.library} (found; imported on first plan)"

    def load(self):
        """Import the library (once) and return its handle."""
        if self._loaded is None:
            available, note = self.availability()
            if not available:
                raise BackendUnavailableError(
                    f"fft backend {self.name!r} is not available: {note}"
                )
            try:
                self._loaded = self._import()
            except Exception as exc:  # a broken install can raise anything
                self._import_error = (
                    f"{self.library} failed to import: {type(exc).__name__}: {exc}"
                )
                raise BackendUnavailableError(
                    f"fft backend {self.name!r} is not available: {self._import_error}"
                ) from exc
        return self._loaded[0]

    def describe(self) -> dict:
        """The row with the library really imported: its version, or the
        reason it cannot be used."""
        try:
            self.load()
        except BackendUnavailableError:
            pass
        return super().describe()
