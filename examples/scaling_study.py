#!/usr/bin/env python
"""Scaling study: the paper's Fig. 2/Fig. 6 sweep, self-contained.

Sweeps the FFT phase over MPI rank counts for the original (FFT task
groups) and the OmpSs per-FFT executor on the full paper workload, printing
runtimes, speedups and average IPC — the headline comparison of the paper.

Run:  python examples/scaling_study.py [--quick]
"""

import argparse

from repro.core import run_fft_phase
from repro.experiments.common import paper_config
from repro.analysis.render import format_series


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller workload and rank sweep (seconds instead of minutes)",
    )
    args = parser.parse_args()

    if args.quick:
        ranks = (1, 2, 4, 8)
        overrides = dict(ecutwfc=30.0, alat=10.0, nbnd=32)
    else:
        ranks = (1, 2, 4, 8, 16, 32)
        overrides = {}

    rows = {}
    for version in ("original", "ompss_perfft"):
        for n in ranks:
            cfg = paper_config(n, version, **overrides)
            result = run_fft_phase(cfg)
            rows[(version, n)] = result
            print(
                f"{n:>3}x8 {version:<13} {result.phase_time * 1e3:9.2f} ms  "
                f"avg IPC {result.average_ipc:.3f}"
            )

    print()
    series = [
        (f"{n}x8 {v}", rows[(v, n)].phase_time)
        for v in ("original", "ompss_perfft")
        for n in ranks
    ]
    print(format_series(series, title="FFT phase runtime"))

    print("\nOmpSs speedup per configuration:")
    for n in ranks:
        orig = rows[("original", n)].phase_time
        ompss = rows[("ompss_perfft", n)].phase_time
        print(f"  {n:>3}x8: {(1 - ompss / orig) * 100:+6.1f}%")


if __name__ == "__main__":
    main()
