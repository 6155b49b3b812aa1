"""Tests for the physical observable <psi|V|psi> (G-space vs dense)."""

import numpy as np
import pytest

from repro.core import RunConfig, run_fft_phase
from repro.core.observables import potential_expectation, potential_expectation_dense

SMALL = dict(ecutwfc=12.0, alat=5.0, nbnd=8)


class TestPotentialExpectation:
    @pytest.mark.parametrize("version", ["original", "ompss_perfft"])
    def test_gspace_matches_dense_definition(self, version):
        cfg = RunConfig(**SMALL, ranks=2, taskgroups=2, version=version, data_mode=True)
        res = run_fft_phase(cfg)
        from_gspace = potential_expectation(res)
        from_dense = potential_expectation_dense(res)
        np.testing.assert_allclose(from_gspace, from_dense, rtol=1e-10)

    def test_real_and_positive(self):
        """V real and >= 1 everywhere -> every expectation real, positive,
        and at least the band's norm (in G space: sum |c|^2)."""
        cfg = RunConfig(**SMALL, ranks=2, taskgroups=2, data_mode=True)
        res = run_fft_phase(cfg)
        e = potential_expectation(res)
        assert np.abs(e.imag).max() < 1e-10 * np.abs(e.real).max()
        norms = np.sum(np.abs(res.input_coeffs) ** 2, axis=1)
        assert np.all(e.real >= norms - 1e-8)

    def test_identical_across_executors(self):
        # Every executor writes bit-identical output arrays, and the
        # expectation is one inner product per band over the two global
        # arrays, so it is bitwise equal too.
        values = []
        for version in ("original", "ompss_steps", "ompss_combined"):
            cfg = RunConfig(**SMALL, ranks=2, taskgroups=2, version=version, data_mode=True)
            values.append(potential_expectation(run_fft_phase(cfg)))
        np.testing.assert_array_equal(values[1], values[0])
        np.testing.assert_array_equal(values[2], values[0])

    def test_requires_data_mode(self):
        cfg = RunConfig(**SMALL, ranks=1, taskgroups=2, data_mode=False)
        res = run_fft_phase(cfg)
        with pytest.raises(RuntimeError, match="data mode"):
            potential_expectation(res)
        with pytest.raises(RuntimeError, match="data mode"):
            potential_expectation_dense(res)
