#!/usr/bin/env python
"""What-if study: replay the FFT phase on parametrically altered machines.

The Dimemas-style companion to the paper's analysis: instead of tracing one
machine, sweep the machine itself.  How sensitive is the FFT phase to MPI
latency?  To memory bandwidth?  What would a KNL with twice the bandwidth
have made of the original version's contention problem?

Run:  python examples/whatif_study.py [--quick]
"""

import argparse

from repro.experiments.common import paper_config
from repro.machine import WHATIF_MACHINES
from repro.perf.whatif import runtime_attribution, whatif_sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ranks", type=int, default=8)
    parser.add_argument("--quick", action="store_true", help="smaller workload")
    args = parser.parse_args()

    overrides = dict(ecutwfc=30.0, alat=10.0, nbnd=32) if args.quick else {}
    cfg = paper_config(args.ranks, "original", **overrides)

    print(f"workload: {cfg.label()}\n")
    print("memory-bandwidth sweep (the contention knob):")
    base_bw = 6.9e10
    for factor, time in zip(
        (0.5, 1.0, 2.0, 4.0),
        [t for _v, t in whatif_sweep(cfg, "mem_bandwidth", [base_bw * f for f in (0.5, 1.0, 2.0, 4.0)])],
    ):
        print(f"  {factor:4.1f}x bandwidth: {time * 1e3:8.2f} ms")

    print("\nMPI latency sweep:")
    for lat, time in whatif_sweep(cfg, "net_latency", [0.0, 3e-6, 3e-5, 3e-4]):
        print(f"  {lat * 1e6:6.1f} us/message: {time * 1e3:8.2f} ms")

    print("\nruntime attribution (lift one bottleneck at a time):")
    attr = runtime_attribution(cfg)
    measured = attr["measured"]
    print(f"  measured               {measured * 1e3:8.2f} ms")
    for name in WHATIF_MACHINES:
        gain = (1 - attr[name] / measured) * 100
        print(f"  {name:<22} {attr[name] * 1e3:8.2f} ms  ({gain:+5.1f}% if lifted)")

    print(
        "\nThe contention share is what the paper's per-FFT tasks partially"
        "\nrecover by de-synchronizing the compute phases."
    )


if __name__ == "__main__":
    main()
