"""Dimemas-style what-if replays: re-run a configuration on altered machines.

The BSC methodology's signature move is replaying a traced application on a
parametrically modified platform ("what if the network were ideal?", "what
if memory bandwidth doubled?").  A simulator does this exactly: re-run the
same configuration with one :class:`~repro.machine.knl.KnlParameters` field
swept.

:func:`runtime_attribution` decomposes the FFT phase runtime into the
shares attributable to each modelled bottleneck by lifting them one at a
time: ideal network (the POP transfer factor), infinite memory bandwidth
(the contention the paper's Opt 2 attacks), and zero jitter (the noise
floor).
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.core.config import RunConfig
from repro.core.driver import run_fft_phase
from repro.machine.knl import WHATIF_MACHINES, KnlParameters, whatif_machine

__all__ = ["whatif_sweep", "runtime_attribution", "SWEEPABLE_PARAMETERS"]

#: KnlParameters fields that make sense to sweep.
SWEEPABLE_PARAMETERS = (
    "frequency_hz",
    "mem_bandwidth",
    "mem_bw_rampup_max",
    "net_injection_bw",
    "net_capacity",
    "net_latency",
    "compute_jitter",
)


def whatif_sweep(
    config: RunConfig,
    parameter: str,
    values: _t.Sequence[float],
    knl: KnlParameters | None = None,
) -> list[tuple[float, float]]:
    """Phase runtime for each value of one machine parameter.

    Returns ``[(value, phase_time_s), ...]`` in input order.
    """
    if parameter not in SWEEPABLE_PARAMETERS:
        raise ValueError(
            f"cannot sweep {parameter!r}; choose from {SWEEPABLE_PARAMETERS}"
        )
    base = knl or KnlParameters()
    out = []
    for value in values:
        machine = dataclasses.replace(base, **{parameter: value})
        result = run_fft_phase(config, knl=machine)
        out.append((value, result.phase_time))
    return out


def runtime_attribution(
    config: RunConfig, knl: KnlParameters | None = None
) -> dict[str, float]:
    """Decompose the phase runtime by lifting one bottleneck at a time.

    Returns a mapping with the measured runtime and the runtime under each
    single what-if: ``ideal_network`` (zero latency, infinite transport),
    ``infinite_bandwidth`` (no memory contention; hyper-thread sharing and
    nominal IPCs remain), and ``no_jitter``.  The relative gaps are the
    shares of runtime each mechanism is responsible for.
    """
    base = knl or KnlParameters()
    out = {"measured": run_fft_phase(config, knl=base).phase_time}
    for name in WHATIF_MACHINES:
        out[name] = run_fft_phase(config, knl=whatif_machine(name, base)).phase_time
    return out
