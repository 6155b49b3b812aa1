#!/usr/bin/env python
"""Tuning the FFT task-group knob (the paper's §II.A discussion).

"First, the number of task groups is equal to one ... all the cost is
shifted to the scatter routine. The opposite is the case where the number
of task groups is equal to the number of MPI processes ... much more time
will be consumed during the execution of the pack/unpack subroutines.  All
the options between these two extreme cases should be benchmarked."

This example does exactly that at a fixed process count, splitting the MPI
time between the two communicator layers — the measurement FFTXlib was
built to make easy.

Run:  python examples/taskgroup_tuning.py [--procs 64] [--quick]
"""

import argparse

from repro.core import trace_run
from repro.experiments.common import paper_config


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--procs", type=int, default=64, help="total MPI processes")
    parser.add_argument("--quick", action="store_true", help="smaller workload")
    args = parser.parse_args()

    overrides = dict(ecutwfc=30.0, alat=10.0, nbnd=32) if args.quick else {}

    print(f"{'ntg':>5} {'runtime':>12} {'pack MPI':>12} {'scatter MPI':>12}")
    ntg = 1
    while ntg <= args.procs:
        if args.procs % ntg == 0:
            nbnd = overrides.get("nbnd", 128)
            if (nbnd // 2) % ntg == 0:  # band groups must divide evenly
                cfg = paper_config(args.procs // ntg, "original", taskgroups=ntg, **overrides)
                result, trace = trace_run(cfg)
                pack_t = sum(r.duration for r in trace.mpi if r.comm_name.startswith("pack"))
                scatter_t = sum(
                    r.duration for r in trace.mpi if r.comm_name.startswith("scatter")
                )
                print(
                    f"{ntg:>5} {result.phase_time * 1e3:>10.2f} ms "
                    f"{pack_t * 1e3:>10.2f} ms {scatter_t * 1e3:>10.2f} ms"
                )
        ntg *= 2

    print(
        "\nntg=1 puts all communication in the scatter (all processes);\n"
        f"ntg={args.procs} makes every scatter communicator a singleton and\n"
        "shifts the G-vector redistribution into pack/unpack."
    )


if __name__ == "__main__":
    main()
