"""The differential backend-conformance suite (the PR 8 tentpole pin).

Swapping FFT kernels under a reproduction is only safe if every backend is
numerically equivalent — so every *registered* backend is checked against
the numpy/pocketfft reference over the full matrix:

    backend × {c2c_1d, c2c_2d, rfft} × {AoS, SoA} × {complex64, complex128}

in both directions (QE sign/scaling conventions), at the per-dtype
tolerances published in :mod:`repro.fft.backends.base`.  Unavailable
backends (pyFFTW in this container) **skip with their probe reason** —
never a silent pass — so a CI log always shows which backends were
actually verified.

The stick-support hint of the c2c kinds (``TestSupportRestricted``) is
held to the same bar on every supported line, for random shapes and
supports, including ``out is x``.

Beyond values, this file pins the interface contracts the engine and the
data plane rely on: ``out=`` buffers are filled with bit-identical values
to the no-out path, output dtypes match the spec, malformed specs and
calls raise, and unknown/unavailable backends fail with clean errors.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fft.backends import (
    CONFORMANCE_ATOL,
    CONFORMANCE_RTOL,
    KINDS,
    LAYOUTS,
    BackendUnavailableError,
    KernelEngine,
    PlanSpec,
    available_backends,
    get_backend,
    known_backends,
)
from repro.fft.backends.base import result_shape
from repro.fft.backends.soa import from_soa, to_soa
from repro.grids.sticks import index_runs

#: Batched shapes per kind: deliberately non-square, non-power-of-two
#: friendly (every axis is a 2/3/5 product — the grid family QE admits).
SHAPES = {"c2c_1d": (6, 30), "c2c_2d": (5, 12, 10), "rfft": (7, 24)}

COMPLEX_DTYPES = ("complex128", "complex64")


def _require(name: str):
    """The backend, or a visible skip carrying the availability reason."""
    backend = get_backend(name, require_available=False)
    available, note = backend.availability()
    if not available:
        pytest.skip(f"backend {name!r} unavailable: {note}")
    return backend


def _input_for(kind: str, cdtype: str, seed: int = 2017) -> np.ndarray:
    rng = np.random.default_rng(seed)
    shape = SHAPES[kind]
    if kind == "rfft":
        real = {"complex128": np.float64, "complex64": np.float32}[cdtype]
        return rng.standard_normal(shape).astype(real)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return x.astype(cdtype)


def _reference(kind: str, x: np.ndarray, sign: int) -> np.ndarray:
    """The pocketfft reference in double precision, QE conventions."""
    x = np.asarray(x, dtype=np.float64 if kind == "rfft" else np.complex128)
    if kind == "rfft":
        return np.fft.rfft(x, axis=-1)
    axes = (-2, -1) if kind == "c2c_2d" else (-1,)
    if sign == 1:
        return np.fft.ifftn(x, axes=axes, norm="forward")
    return np.fft.fftn(x, axes=axes, norm="forward")


def _signs(kind: str) -> tuple[int, ...]:
    return (-1,) if kind == "rfft" else (1, -1)


class TestDifferentialConformance:
    """Every backend × kind × layout × dtype vs the pocketfft reference."""

    @pytest.mark.parametrize("dtype", COMPLEX_DTYPES)
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("name", known_backends())
    def test_matches_reference(self, name, kind, layout, dtype):
        backend = _require(name)
        x = _input_for(kind, dtype)
        in_dtype = x.dtype
        spec_dtype = in_dtype.name
        rtol, atol = CONFORMANCE_RTOL[dtype], CONFORMANCE_ATOL[dtype]
        exe = backend.plan(kind, SHAPES[kind], dtype=spec_dtype, layout=layout)
        for sign in _signs(kind):
            want = _reference(kind, x, sign)
            if layout == "soa" and kind != "rfft":
                got = from_soa(exe(to_soa(x), sign))
            elif layout == "soa":
                got = from_soa(exe(x, sign))
            else:
                got = exe(x, sign)
            # Reference magnitudes span ~1e-2..1e1, so allclose with atol
            # for the near-zero bins is the right comparison shape.
            np.testing.assert_allclose(
                got, want, rtol=rtol, atol=atol,
                err_msg=f"{name}/{kind}/{layout}/{dtype} sign={sign}",
            )

    @pytest.mark.parametrize("dtype", COMPLEX_DTYPES)
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("name", known_backends())
    def test_output_dtype_matches_spec(self, name, kind, dtype):
        backend = _require(name)
        x = _input_for(kind, dtype)
        exe = backend.plan(kind, SHAPES[kind], dtype=x.dtype.name)
        got = exe(x, -1)
        assert got.dtype == np.dtype(dtype)
        assert got.shape == result_shape(PlanSpec(kind, SHAPES[kind], x.dtype.name))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("name", known_backends())
    def test_out_buffer_is_bit_identical_to_no_out(self, name, kind):
        # The arena identity tests rely on this at the engine level; pin it
        # per backend: writing into out= never changes a single bit.
        backend = _require(name)
        x = _input_for(kind, "complex128")
        exe = backend.plan(kind, SHAPES[kind], dtype=x.dtype.name)
        for sign in _signs(kind):
            fresh = exe(x, sign)
            out = np.empty_like(fresh)
            res = exe(x, sign, out=out)
            assert res is out
            assert np.array_equal(fresh, out)

    @pytest.mark.parametrize("name", known_backends())
    def test_soa_out_and_scratch(self, name):
        backend = _require(name)
        x = _input_for("c2c_1d", "complex128")
        exe = backend.plan("c2c_1d", SHAPES["c2c_1d"], layout="soa")
        planes = to_soa(x)
        fresh = exe(planes, 1)
        out = np.empty_like(fresh)
        scratch = np.empty(SHAPES["c2c_1d"], dtype=np.complex128)
        res = exe(planes, 1, out=out, scratch=scratch)
        assert res is out
        assert np.array_equal(fresh, out)


class TestNativeBitIdentity:
    """``fft_backend='native'`` is exactly the pre-backend-plane kernels."""

    def test_c2c_kinds_bit_identical_to_batched_module(self):
        from repro.fft.batched import cft_1z, cft_2xy

        backend = get_backend("native")
        x1 = _input_for("c2c_1d", "complex128")
        x2 = _input_for("c2c_2d", "complex128")
        for sign in (1, -1):
            got1 = backend.plan("c2c_1d", x1.shape)(x1, sign)
            assert np.array_equal(got1, cft_1z(x1.copy(), sign))
            got2 = backend.plan("c2c_2d", x2.shape)(x2, sign)
            assert np.array_equal(got2, cft_2xy(x2.copy(), sign))


class TestInterfaceContracts:
    """Clean errors for malformed specs, calls, and unknown backends."""

    def test_unknown_backend_lists_registry(self):
        with pytest.raises(ValueError, match="known backends"):
            get_backend("fftw3_classic")

    def test_unavailable_backend_raises_with_reason(self):
        unavailable = [
            n for n in known_backends()
            if not get_backend(n, require_available=False).availability()[0]
        ]
        if not unavailable:
            pytest.skip("every registered backend is importable here")
        name = unavailable[0]
        with pytest.raises(BackendUnavailableError, match=name):
            get_backend(name)
        with pytest.raises(BackendUnavailableError):
            get_backend(name, require_available=False).plan("c2c_1d", (4, 8))

    @pytest.mark.parametrize(
        "kind,shape,dtype",
        [
            ("c2c_9d", (4, 8), "complex128"),      # unknown kind
            ("c2c_1d", (4, 8, 2), "complex128"),   # wrong rank
            ("c2c_1d", (0, 8), "complex128"),      # empty axis
            ("c2c_1d", (4, 8), "float64"),         # real dtype for c2c
            ("rfft", (4, 8), "complex128"),        # complex dtype for rfft
        ],
    )
    def test_malformed_specs_raise(self, kind, shape, dtype):
        with pytest.raises(ValueError):
            get_backend("numpy").plan(kind, shape, dtype=dtype)

    def test_unknown_layout_raises(self):
        with pytest.raises(ValueError, match="layout"):
            get_backend("numpy").plan("c2c_1d", (4, 8), layout="zigzag")

    def test_wrong_shape_call_raises(self):
        exe = get_backend("numpy").plan("c2c_1d", (4, 8))
        with pytest.raises(ValueError, match="planned for shape"):
            exe(np.zeros((4, 16), dtype=np.complex128), 1)

    def test_bad_sign_raises(self):
        exe = get_backend("numpy").plan("c2c_1d", (4, 8))
        with pytest.raises(ValueError, match="sign"):
            exe(np.zeros((4, 8), dtype=np.complex128), 0)
        rexe = get_backend("numpy").plan("rfft", (4, 8), dtype="float64")
        with pytest.raises(ValueError, match="forward"):
            rexe(np.zeros((4, 8)), 1)

    def test_registry_reports_skip_reason_for_missing_optionals(self):
        from repro.fft.backends import backend_info

        rows = {row["name"]: row for row in backend_info()}
        assert set(rows) == set(known_backends())
        for row in rows.values():
            assert row["note"], "every availability probe must carry a note"
        # The default must always be available — it is numpy itself.
        assert rows["numpy"]["available"]


# -- stick-support hint --------------------------------------------------------

def _mask(n: int, runs) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    for lo, hi in runs:
        mask[lo:hi] = True
    return mask


@st.composite
def _supported_block(draw, ndim: int):
    """A random batched block plus a random support per restricted axis."""
    shape = tuple(draw(st.integers(1, 5 if k == 0 else 9)) for k in range(ndim))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    runs = [
        index_runs(np.flatnonzero(rng.random(n) < draw(st.sampled_from((0.0, 0.4, 1.0)))))
        for n in shape
    ]
    return x, runs


def _close(got, want, dtype="complex128"):
    np.testing.assert_allclose(
        got, want, rtol=CONFORMANCE_RTOL[dtype], atol=CONFORMANCE_ATOL[dtype]
    )


class TestSupportRestricted:
    """The ``support=`` hint: only lines inside the stick support are
    transformed, and on every supported line the result is the dense one —
    bit-equal for the numpy backend (same 1-D passes in ``fftn``'s order),
    within the conformance tolerance for every backend (one that ignores
    the hint returns the dense superset).  ``out`` may be the input."""

    @settings(max_examples=60, deadline=None)
    @given(block=_supported_block(3), alias=st.sampled_from(("none", "fresh", "inplace")))
    def test_cft_2xy(self, block, alias):
        x, (_, x_runs, y_runs) = block
        support = (x_runs, y_runs)
        # G->R promises zero rows outside the x support; then every output
        # line is defined.  R->G defines the supported y columns only.
        x_fw = x * _mask(x.shape[1], x_runs)[None, :, None]
        cols = _mask(x.shape[2], y_runs)
        for name in available_backends():
            engine = KernelEngine(name)
            for sign, src, keep in ((1, x_fw, np.ones_like(cols)), (-1, x, cols)):
                want = _reference("c2c_2d", src, sign)[:, :, keep]
                work = src.copy()
                out = {"none": None, "fresh": np.full_like(src, np.nan), "inplace": work}[alias]
                got = engine.cft_2xy(work, sign, out=out, support=support)
                if out is not None:
                    assert got is out
                if name == "numpy":
                    assert np.array_equal(got[:, :, keep], want)
                else:
                    _close(got[:, :, keep], want)

    @settings(max_examples=60, deadline=None)
    @given(block=_supported_block(2), alias=st.sampled_from(("none", "fresh", "inplace")))
    def test_cft_1z(self, block, alias):
        x, (row_runs, _) = block
        rows = _mask(x.shape[0], row_runs)
        x_fw = x * rows[:, None]
        for name in available_backends():
            engine = KernelEngine(name)
            for sign, src, keep in ((1, x_fw, np.ones_like(rows)), (-1, x, rows)):
                want = _reference("c2c_1d", src, sign)[keep]
                work = src.copy()
                out = {"none": None, "fresh": np.full_like(src, np.nan), "inplace": work}[alias]
                got = engine.cft_1z(work, sign, out=out, support=row_runs)
                if out is not None:
                    assert got is out
                if name == "numpy":
                    assert np.array_equal(got[keep], want)
                else:
                    _close(got[keep], want)

    def test_restricted_call_is_one_engine_call(self):
        engine = KernelEngine("numpy")
        x = _input_for("c2c_2d", "complex128")
        engine.cft_2xy(x, -1, support=(((0, 3), (7, 12)), ((1, 2), (4, 9))))
        assert engine.stats()["kernel_calls"] == 1
        assert engine.stats()["kernel_rows"] == x.shape[0]

    @pytest.mark.parametrize("sign", (1, -1))
    def test_kernel_workers_2_byte_identical_on_supported_lines(self, sign):
        x2 = _input_for("c2c_2d", "complex128")
        x_runs, y_runs = ((0, 3), (7, 12)), ((1, 2), (4, 9))
        if sign == 1:
            x2 = x2 * _mask(x2.shape[1], x_runs)[None, :, None]
        cols = _mask(x2.shape[2], y_runs) if sign == -1 else slice(None)
        x1 = _input_for("c2c_1d", "complex128")
        row_runs = ((1, 4),)
        if sign == 1:
            x1 = x1 * _mask(x1.shape[0], row_runs)[:, None]
        rows = _mask(x1.shape[0], row_runs) if sign == -1 else slice(None)
        serial, pooled = KernelEngine("numpy", workers=1), KernelEngine("numpy", workers=2)
        got = [
            (
                e.cft_2xy(x2.copy(), sign, support=(x_runs, y_runs))[:, :, cols],
                e.cft_1z(x1.copy(), sign, support=row_runs)[rows],
            )
            for e in (serial, pooled)
        ]
        assert pooled.stats()["kernel_pool_batches"] == 2
        assert got[0][0].tobytes() == got[1][0].tobytes()
        assert got[0][1].tobytes() == got[1][1].tobytes()
