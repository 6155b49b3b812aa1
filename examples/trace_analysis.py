#!/usr/bin/env python
"""The paper's analysis workflow: trace a run, export it, decompose it.

Mirrors Section III: record an execution with the (Extrae-like) tracer,
write a Paraver-style trace to disk, print the per-phase IPC summary, the
communicator structure, and the POP efficiency factors with the
ideal-network what-if replay.

Run:  python examples/trace_analysis.py [--ranks 8] [--version original]
"""

import argparse
import pathlib

from repro.analysis import analyze_run, compute_totals, factor_rows
from repro.analysis.render import format_factor_table
from repro.analysis.timeline import communicator_structure, phase_summary
from repro.core.driver import run_fft_phase, trace_run
from repro.experiments.common import paper_config
from repro.machine import knl_parameters, whatif_machine
from repro.telemetry.paraver import write_prv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ranks", type=int, default=8)
    parser.add_argument(
        "--version", default="original",
        choices=["original", "ompss_perfft", "ompss_steps", "ompss_combined"],
    )
    parser.add_argument("--quick", action="store_true", help="smaller workload")
    parser.add_argument("--out", default="fftxlib_trace", help="trace file stem")
    args = parser.parse_args()

    overrides = dict(ecutwfc=30.0, alat=10.0, nbnd=32) if args.quick else {}
    cfg = paper_config(args.ranks, args.version, **overrides)

    print(f"tracing {cfg.label()} ({cfg.n_mpi_ranks} processes x "
          f"{cfg.threads_per_rank} threads)...")
    result, trace = trace_run(cfg)
    print(f"FFT phase: {result.phase_time * 1e3:.2f} ms, "
          f"{len(trace.compute)} compute records, {len(trace.mpi)} MPI records")

    prv = write_prv(pathlib.Path(args.out), trace)
    print(f"Paraver trace written: {prv} (+ .pcf, .row)")

    freq = knl_parameters().frequency_hz
    print("\nper-phase summary (the Fig. 3 reading):")
    print(f"  {'phase':<16} {'time':>10} {'IPC':>7} {'count':>7}")
    for phase, stats in sorted(phase_summary(trace, freq).items()):
        print(
            f"  {phase:<16} {stats['time'] * 1e3:>8.2f} ms "
            f"{stats['ipc']:>7.3f} {int(stats['count']):>7}"
        )

    print("\ncommunicator structure (the two MPI layers):")
    for name, info in sorted(communicator_structure(trace).items()):
        print(f"  {name:<10} ranks {info['streams']}  "
              f"{info['calls']} calls, {info['bytes'] / 1e6:.1f} MB")

    print("\nPOP efficiency factors (with ideal-network replay):")
    ideal = run_fft_phase(cfg, knl=whatif_machine("ideal_network"))
    pop = analyze_run(result, ideal_time_s=ideal.phase_time).pop
    rows = factor_rows(pop, compute_totals(result.cpu.counters))
    print(format_factor_table([(cfg.label(), rows)]))


if __name__ == "__main__":
    main()
