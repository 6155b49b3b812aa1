"""Harness-performance benchmarks: how fast the simulator itself runs.

These time the *wall-clock* cost of simulating reference configurations —
the number every other benchmark's duration is made of.  Useful for
tracking regressions in the engine (fluid rebalancing, event dispatch,
collective matching) as the library evolves.

Hot-path optimization record (quick 8x8 original workload, 1-core
container, best of 5 after cache warmup; byte-identical stable manifests
before/after each step):

* baseline (pre-optimization): ~31k events/s at 9053 events per run
* after inlining the ``Simulator.run`` dispatch loop, lazy
  ``FluidResource._rebalance`` bookkeeping and the memoized
  per-core bandwidth-contention waterfill: ~37-43k events/s (~1.35x)
* after fusing completion events (one heap entry per compute phase, one per
  collective member) the same run dispatches 2396 events instead of 7546:
  events/s *fell* while every run got faster.

Events per second therefore says how busy the loop is, not how fast the
simulator is: a heap entry now carries a whole completion.  The number to
track is runs per host second of a fixed configuration (what
``perf_guard.py --target contention`` ratchets);
``test_bench_sim_event_throughput`` below prints both, so a regression shows
up as a drop in runs/s and the events figure explains where the loop stands.
"""

import time

from repro.core import RunConfig, run_fft_phase
from repro.experiments.common import paper_config


def test_bench_sim_small_original(benchmark):
    cfg = RunConfig(ecutwfc=12.0, alat=5.0, nbnd=8, ranks=2, taskgroups=2)
    result = benchmark(run_fft_phase, cfg)
    assert result.phase_time > 0


def test_bench_sim_paper_8x8_original(run_once):
    result = run_once(run_fft_phase, paper_config(8, "original"))
    assert result.phase_time > 0
    # 64 synchronized streams, 8 iterations: the canonical workload.
    assert len(result.cpu.counters.streams) == 64


def test_bench_sim_paper_8x8_perfft(run_once):
    result = run_once(run_fft_phase, paper_config(8, "ompss_perfft"))
    assert result.phase_time > 0


def test_bench_sim_event_throughput(run_once):
    """Simulator throughput: runs (and dispatched events) per host second."""
    cfg = RunConfig(ecutwfc=30.0, alat=10.0, nbnd=32, ranks=8, taskgroups=8)
    run_fft_phase(cfg)  # warm geometry/plan caches out of the measurement

    def timed():
        t0 = time.perf_counter()
        result = run_fft_phase(cfg)
        return result, time.perf_counter() - t0

    result, wall = run_once(timed)
    assert result.sim.n_dispatched > 1000
    print(f"\nthroughput: {1.0 / wall:,.1f} runs/s, "
          f"{result.sim.n_dispatched / wall:,.0f} events/s "
          f"({result.sim.n_dispatched} events)")
