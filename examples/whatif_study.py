#!/usr/bin/env python
"""What-if study: replay the FFT phase on parametrically altered machines.

The Dimemas-style companion to the paper's analysis: instead of tracing one
machine, sweep the machine itself.  How sensitive is the FFT phase to MPI
latency?  To memory bandwidth?  What would a KNL with twice the bandwidth
have made of the original version's contention problem?

Each replay is one ``run_fft_phase`` call on a changed
``KnlParameters`` (``dataclasses.replace`` for a swept field,
``whatif_machine`` for the named what-ifs).

Run:  python examples/whatif_study.py [--quick]
"""

import argparse
import dataclasses

from repro.core import run_fft_phase
from repro.experiments.common import paper_config
from repro.machine import WHATIF_MACHINES, KnlParameters, whatif_machine


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ranks", type=int, default=8)
    parser.add_argument("--quick", action="store_true", help="smaller workload")
    args = parser.parse_args()

    overrides = dict(ecutwfc=30.0, alat=10.0, nbnd=32) if args.quick else {}
    cfg = paper_config(args.ranks, "original", **overrides)
    base = KnlParameters()

    def phase_time(**fields) -> float:
        knl = dataclasses.replace(base, **fields)
        return run_fft_phase(cfg, knl=knl).phase_time

    print(f"workload: {cfg.label()}\n")
    print("memory-bandwidth sweep (the contention knob):")
    for factor in (0.5, 1.0, 2.0, 4.0):
        time = phase_time(mem_bandwidth=base.mem_bandwidth * factor)
        print(f"  {factor:4.1f}x bandwidth: {time * 1e3:8.2f} ms")

    print("\nMPI latency sweep:")
    for lat in (0.0, 3e-6, 3e-5, 3e-4):
        time = phase_time(net_latency=lat)
        print(f"  {lat * 1e6:6.1f} us/message: {time * 1e3:8.2f} ms")

    print("\nruntime attribution (lift one bottleneck at a time):")
    measured = run_fft_phase(cfg, knl=base).phase_time
    print(f"  measured               {measured * 1e3:8.2f} ms")
    for name in WHATIF_MACHINES:
        time = run_fft_phase(cfg, knl=whatif_machine(name, base)).phase_time
        gain = (1 - time / measured) * 100
        print(f"  {name:<22} {time * 1e3:8.2f} ms  ({gain:+5.1f}% if lifted)")

    print(
        "\nThe contention share is what the paper's per-FFT tasks partially"
        "\nrecover by de-synchronizing the compute phases."
    )


if __name__ == "__main__":
    main()
