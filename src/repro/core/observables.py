"""Physical observables of the kernel (cross-checks beyond array equality).

The FFT phase applies ``psi_out = FW(V(r) * BW(psi_in))``.  The potential
expectation value

    E_b = <psi_b | V | psi_b> = sum_r |psi_b(r)|^2 V(r) / N

is then expressible *entirely in G space* as ``E_b = <c_in_b, c_out_b>``
(Parseval plus the sphere support of the coefficients), so it can be
computed from the run's input and output with a plain inner product
per band — no extra transform.  Because V is real and positive, every
``E_b`` must be real and positive: a physics-level invariant the
integration tests check on every executor, complementary to the
bitwise-against-reference comparison.
"""

from __future__ import annotations

import numpy as np

from repro.core.driver import RunResult

__all__ = ["potential_expectation", "potential_expectation_dense"]


def potential_expectation(result: RunResult) -> np.ndarray:
    """Per-band ``<psi|V|psi>`` from the distributed run (data mode):
    ``sum_G conj(c_in(G)) * c_out(G)`` over the run's input and output."""
    c_in = result.input_coeffs  # read once: it may be rebuilt
    if c_in is None:
        raise RuntimeError("potential_expectation requires data mode")
    c_out = result.output_coefficients()
    return np.array([np.vdot(c_in[b], c_out[b]) for b in range(len(c_in))])


def potential_expectation_dense(result: RunResult) -> np.ndarray:
    """The same observable straight from the dense real-space definition."""
    c_in = result.input_coeffs  # read once: it may be rebuilt
    if c_in is None:
        raise RuntimeError("potential_expectation_dense requires data mode")
    from repro.fft import invfft

    desc = result.desc
    idx = desc.grid_idx
    v_xyz = result.potential.transpose(1, 2, 0)  # read once: it may be rebuilt
    out = np.zeros(result.config.n_complex_bands, dtype=np.complex128)
    for b in range(result.config.n_complex_bands):
        field = np.zeros(desc.grid_shape, dtype=np.complex128)
        field[idx[:, 0], idx[:, 1], idx[:, 2]] = c_in[b]
        for axis in range(3):
            field = invfft(field, axis=axis)
        out[b] = np.sum(np.abs(field) ** 2 * v_xyz) / desc.nnr
    return out
