"""The engine conformance suite.

A data-mode run's FFTs are numpy's pocketfft, the xy pass restricted to the
stick support (:class:`repro.fft.backends.KernelEngine`).  It is held here
to the repo's own mixed-radix kernels — :mod:`repro.fft.batched`, the
independent reference that shares no code with pocketfft — on every
supported line, for random shapes and supports (empty, full, single-row,
adjacent runs), both signs, with ``out`` absent, fresh, or the input itself.

Beyond values this file pins what the data plane relies on: ``sign=+1``
leaves zeros outside the support, a dense call's bits equal
``np.fft.fftn``'s, a restricted stage is one ``kernel_calls`` tick, every
fan-out width gives the one-slice bits, and malformed calls raise.
"""

import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _fan
from repro.fft import batched as reference
from repro.fft.backends import KernelEngine
from repro.fft.backends import engine as engine_mod

#: Double precision agrees to a few ulps across FFT implementations.
RTOL, ATOL = 1e-12, 1e-13

ALIASES = ("none", "fresh", "inplace")


def _block(shape, seed=2017):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _mask(n: int, runs) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    for lo, hi in runs:
        mask[lo:hi] = True
    return mask


@st.composite
def _runs(draw, n: int):
    """Half-open index runs over ``range(n)``: ascending, disjoint, possibly
    adjacent (``(0, 2), (2, 3)``), possibly none or the one full run."""
    cuts = sorted(draw(st.sets(st.integers(0, n), max_size=6)))
    pairs = list(zip(cuts[::2], cuts[1::2]))
    if pairs and draw(st.booleans()):
        # Split the first run in two adjacent ones where it is long enough.
        lo, hi = pairs[0]
        if hi - lo > 1:
            pairs[:1] = [(lo, lo + 1), (lo + 1, hi)]
    return draw(st.sampled_from(((), ((0, n),), tuple(pairs))))


@st.composite
def _supported_block(draw, ndim: int):
    """A random batched block plus random runs along each axis."""
    shape = tuple(draw(st.integers(1, 5 if k == 0 else 9)) for k in range(ndim))
    x = _block(shape, draw(st.integers(0, 2**16)))
    return x, [draw(_runs(n)) for n in shape]


def force_width(monkeypatch, width: int) -> None:
    """Fan every call over ``width`` slices (as many as it has rows): the
    engine sees ``width`` CPUs and no minimum slice size."""
    monkeypatch.setattr(_fan, "_cpus", lambda: width)
    monkeypatch.setattr(engine_mod, "MIN_POINTS", 1)


def _call(kernel, src, sign, alias, support):
    """Run one engine kernel on a copy of ``src`` under an ``out`` aliasing."""
    work = src.copy()
    out = {"none": None, "fresh": np.full_like(src, np.nan), "inplace": work}[alias]
    kw = {} if support is None else {"support": support}
    got = kernel(work, sign, out=out, **kw)
    if out is not None:
        assert got is out
    return got


class TestSupportRestricted:
    """Only lines inside the stick support are transformed, and on every
    supported line the result is the independent reference's."""

    @settings(max_examples=80, deadline=None)
    @given(block=_supported_block(3), alias=st.sampled_from(ALIASES))
    def test_cft_2xy(self, block, alias):
        x, (_, x_runs, y_runs) = block
        support = (x_runs, y_runs)
        xs, cols = _mask(x.shape[1], x_runs), _mask(x.shape[2], y_runs)
        engine = KernelEngine()
        x_fw = x * xs[None, :, None]
        got = _call(engine.cft_2xy, x_fw, 1, alias, support)
        np.testing.assert_allclose(got, reference.cft_2xy(x_fw, 1), rtol=RTOL, atol=ATOL)
        if not xs.any():
            assert not got.any()
        # R->G: only the y columns carrying sticks are read back.
        got = _call(engine.cft_2xy, x, -1, alias, support)
        np.testing.assert_allclose(
            got[:, :, cols], reference.cft_2xy(x, -1)[:, :, cols], rtol=RTOL, atol=ATOL
        )
        assert engine.kernel_calls == 2

    def test_restricted_call_is_one_engine_call(self):
        engine = KernelEngine()
        x = _block((5, 12, 10))
        engine.cft_2xy(x, -1, support=(((0, 3), (7, 12)), ((1, 2), (4, 9))))
        assert engine.stats() == {"kernel_calls": 1, "kernel_rows": 5}


class TestFanWidths:
    """Slicing batch axis 0 over threads changes no bit: every width equals
    width 1, whatever the support, the ``out`` aliasing or the sign."""

    @settings(max_examples=60, deadline=None)
    @given(
        ndim=st.sampled_from((2, 3)),
        data=st.data(),
        alias=st.sampled_from(ALIASES),
        sign=st.sampled_from((1, -1)),
        dense=st.booleans(),
    )
    def test_every_width_bit_equals_width_one(self, ndim, data, alias, sign, dense):
        # Up to 6 rows against widths up to 4: fewer rows than slices.
        shape = tuple(data.draw(st.integers(1, 6)) for _ in range(ndim))
        x = _block(shape, data.draw(st.integers(0, 2**16)))
        # Only the xy kind takes a support: runs of x rows and y columns.
        kw = {}
        if ndim == 3 and not dense:
            kw["support"] = tuple(data.draw(_runs(n)) for n in shape[1:])
        outputs = []
        for width in (1, 2, 3, 4):
            with pytest.MonkeyPatch.context() as mp:
                force_width(mp, width)
                engine = KernelEngine()
                kernel = engine.cft_1z if ndim == 2 else engine.cft_2xy
                # The first call of a shape plans its lengths unfanned.
                kernel(x.copy(), sign, **kw)
                outputs.append(_call(kernel, x, sign, alias, kw.get("support")))
                assert engine.stats() == {"kernel_calls": 2, "kernel_rows": 2 * shape[0]}
        assert all(got.tobytes() == outputs[0].tobytes() for got in outputs[1:])

    def test_slices_run_on_the_pool_after_the_first_call(self, monkeypatch):
        force_width(monkeypatch, 2)
        slices = []
        lock = threading.Lock()
        real = engine_mod._transform

        def spy(x, *args):
            with lock:
                slices.append((threading.current_thread().name, x.shape[0]))
            real(x, *args)

        monkeypatch.setattr(engine_mod, "_transform", spy)
        engine = KernelEngine()
        x = _block((6, 8))
        engine.cft_1z(x, -1)
        assert slices == [(threading.current_thread().name, 6)]
        slices.clear()
        engine.cft_1z(x, -1)
        caller = threading.current_thread().name
        assert sorted(rows for _name, rows in slices) == [3, 3]
        assert (caller, 3) in slices
        assert [name for name, _rows in slices if name != caller][0].startswith("dataplane-fan")
        assert engine.stats() == {"kernel_calls": 2, "kernel_rows": 12}

    def test_one_cpu_never_builds_the_pool(self, monkeypatch):
        force_width(monkeypatch, 1)

        def no_pool():
            raise AssertionError("a one-CPU call asked for the thread pool")

        monkeypatch.setattr(_fan, "_executor", no_pool)
        engine = KernelEngine()
        for _ in range(2):
            engine.cft_2xy(_block((4, 6, 6)), 1)
            engine.cft_1z(_block((8, 6)), -1)


class TestDenseCalls:
    """Without a support hint a call is the whole batch, bit for bit what
    ``np.fft`` returns for it."""

    @pytest.mark.parametrize("alias", ALIASES)
    @pytest.mark.parametrize("sign", (1, -1))
    def test_bits_equal_fftn(self, sign, alias):
        fftn = np.fft.ifftn if sign == 1 else np.fft.fftn
        engine = KernelEngine()
        x1, x2 = _block((6, 30)), _block((5, 12, 10))
        got1 = _call(engine.cft_1z, x1, sign, alias, None)
        assert np.array_equal(got1, fftn(x1, axes=(-1,), norm="forward"))
        got2 = _call(engine.cft_2xy, x2, sign, alias, None)
        assert np.array_equal(got2, fftn(x2, axes=(-2, -1), norm="forward"))

    @pytest.mark.parametrize("sign", (1, -1))
    def test_matches_the_independent_reference(self, sign):
        engine = KernelEngine()
        x1, x2 = _block((6, 30)), _block((5, 12, 10))
        np.testing.assert_allclose(
            engine.cft_1z(x1, sign), reference.cft_1z(x1, sign), rtol=RTOL, atol=ATOL
        )
        np.testing.assert_allclose(
            engine.cft_2xy(x2, sign), reference.cft_2xy(x2, sign), rtol=RTOL, atol=ATOL
        )

    def test_real_input_is_promoted_to_complex128(self):
        got = KernelEngine().cft_1z(np.ones((2, 8)), 1)
        assert got.dtype == np.complex128
        np.testing.assert_allclose(got[:, 0], 8.0)


class TestInterfaceContracts:
    """Clean errors for malformed plans and calls."""

    def test_bad_ndim_raises(self):
        engine = KernelEngine()
        with pytest.raises(ValueError, match="nsticks, nz"):
            engine.cft_1z(np.zeros((4, 8, 2), dtype=np.complex128), 1)
        with pytest.raises(ValueError, match="nplanes, nx, ny"):
            engine.cft_2xy(np.zeros((4, 8), dtype=np.complex128), 1)

    def test_bad_sign_raises(self):
        engine = KernelEngine()
        with pytest.raises(ValueError, match="sign"):
            engine.cft_1z(np.zeros((4, 8), dtype=np.complex128), 0)
        with pytest.raises(ValueError, match="sign"):
            engine.cft_2xy(np.zeros((2, 4, 8), dtype=np.complex128), 2)

    @pytest.mark.parametrize(
        "kind,shape",
        [
            ("c2c_9d", (4, 8)),      # unknown kind
            ("c2c_1d", (4, 8, 2)),   # wrong rank
            ("c2c_1d", (0, 8)),      # empty axis
            ("rfft", (4, 8)),        # not a c2c kind
        ],
    )
    def test_malformed_specs_raise(self, kind, shape):
        with pytest.raises(ValueError):
            KernelEngine().plan(kind, shape)

    def test_1d_executable_takes_no_support(self):
        exe = KernelEngine().plan("c2c_1d", (4, 8))
        with pytest.raises(ValueError, match="no support"):
            exe(_block((4, 8)), 1, support=((0, 2),))

    def test_wrong_shape_call_raises(self):
        exe = KernelEngine().plan("c2c_1d", (4, 8))
        with pytest.raises(ValueError, match="planned for shape"):
            exe(np.zeros((4, 16), dtype=np.complex128), 1)

    @pytest.mark.parametrize("width", (1, 2))
    @pytest.mark.parametrize("sign", (1, -1))
    @pytest.mark.parametrize("shape", ((6, 8), (4, 6, 5)), ids=("cft_1z", "cft_2xy"))
    @pytest.mark.parametrize(
        "bad_out",
        (
            lambda shape: np.zeros(shape, dtype=np.complex64),
            lambda shape: np.zeros((shape[0] + 1, *shape[1:]), dtype=np.complex128),
        ),
        ids=("complex64", "long_axis0"),
    )
    def test_out_must_be_complex128_of_the_shape(self, monkeypatch, width, sign, shape, bad_out):
        force_width(monkeypatch, width)
        engine = KernelEngine()
        kernel = engine.cft_1z if len(shape) == 2 else engine.cft_2xy
        x = _block(shape)
        kernel(x, sign)  # plan the shape, so the bad call would fan
        out = bad_out(shape)
        with pytest.raises(ValueError, match=re.escape(f"complex128 of shape {shape}")):
            kernel(x, sign, out=out)
        assert not out.any()

    def test_plans_are_cached_per_shape(self):
        engine = KernelEngine()
        assert engine.plan("c2c_1d", (4, 8)) is engine.plan("c2c_1d", [4, 8])
        assert engine.plan("c2c_1d", (4, 8)) is not engine.plan("c2c_1d", (4, 16))
