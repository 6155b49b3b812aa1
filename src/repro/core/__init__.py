"""The FFTXlib miniapp: the paper's kernel and its task-based optimizations.

The kernel applies an operator diagonal in real space to a set of bands:
forward transform (G -> R), multiply by the potential (VOFR), backward
transform (R -> G), over the two-layer MPI distribution described in
DESIGN.md.  The kernel is declared once — the stage chains of
:mod:`~repro.core.pipeline` — and the five versions are three scheduling
policies over it (:mod:`~repro.core.schedule`), producing *identical
numerics* (asserted by the integration tests):

* ``original`` — the baseline FFTXlib: a synchronous loop over band groups
  with FFT task groups (paper Fig. 1); linear policy;
* ``ompss_steps`` — Opt 1: every stage a task with flow dependencies, the
  FFT stages chunked like taskloops (paper Fig. 4); staged-task policy;
* ``ompss_perfft`` — Opt 2: each FFT (loop iteration) one independent task,
  dynamically scheduled (paper Fig. 5); linear policy inside a task;
* ``ompss_combined`` — the paper's future-work combination (overlap +
  de-synchronization); staged-task policy per band;
* ``pipelined`` — the MPI-only overlap baseline: depth-2 issue/wait over
  non-blocking collectives.

:mod:`~repro.core.driver` wires a :class:`~repro.core.config.RunConfig`
into a full simulated run and optionally validates the distributed result
against the dense single-grid reference of :mod:`~repro.core.validate`.
"""

from repro.core.config import RunConfig, Version
from repro.core.pipeline import CostConstants, CostModel
from repro.core.driver import RunResult, run_fft_phase, trace_run
from repro.core.validate import dense_reference, max_relative_error
from repro.core.gamma import pack_real_bands, unpack_real_bands
from repro.core.observables import potential_expectation

__all__ = [
    "RunConfig",
    "Version",
    "CostConstants",
    "CostModel",
    "RunResult",
    "run_fft_phase",
    "trace_run",
    "dense_reference",
    "max_relative_error",
    "pack_real_bands",
    "unpack_real_bands",
    "potential_expectation",
]
