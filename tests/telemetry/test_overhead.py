"""Overhead guard: telemetry must cost (almost) nothing when off.

Two layers of defence:

* the per-event cost of a disabled session — ``current()`` + the ``enabled``
  guard + an early-returning registry call — is bounded against a bare loop
  (microbenchmark, generous factor so CI noise cannot flake it);
* a full run with ``telemetry=False`` (the default) stays within 5 % of the
  cheapest observed baseline run plus an absolute floor, and never loses to
  the telemetry-enabled run of the same configuration.
"""

import time
import timeit

from repro import telemetry
from repro.core import RunConfig, run_fft_phase

SMALL = dict(ecutwfc=12.0, alat=5.0, nbnd=8, ranks=2, taskgroups=2)


class TestDisabledPathIsInert:
    def test_disabled_run_attaches_no_recorder(self):
        result = run_fft_phase(RunConfig(version="original", **SMALL))
        assert result.telemetry is None
        assert result.cpu.trace is None and result.world.trace is None

    def test_explicit_disabled_session_stays_empty(self):
        tel = telemetry.Telemetry(enabled=False)
        result = run_fft_phase(
            RunConfig(version="ompss_perfft", **SMALL), telemetry=tel
        )
        assert result.telemetry is tel
        assert tel.metrics.families() == []
        assert len(tel.spans) == 0
        assert not tel.trace.compute and not tel.trace.mpi and not tel.trace.tasks


class TestDisabledCallSiteCost:
    def test_guarded_event_is_cheap(self):
        # The pattern every instrumented hot path uses when telemetry is off.
        n = 50_000

        def instrumented():
            for _ in range(n):
                tel = telemetry.current()
                if tel.enabled:
                    tel.metrics.count("x", 1.0)

        def bare():
            for _ in range(n):
                pass

        t_inst = min(timeit.repeat(instrumented, number=1, repeat=5))
        t_bare = min(timeit.repeat(bare, number=1, repeat=5))
        per_event = (t_inst - t_bare) / n
        # ~100 ns in practice; 5 us is the flake-proof ceiling.  A quick run
        # has O(10^3) instrumented events, so even the ceiling stays far
        # below 5 % of its multi-second wall time.
        assert per_event < 5e-6, f"disabled guard costs {per_event * 1e9:.0f} ns/event"

    def test_disabled_registry_call_is_noop(self):
        reg = telemetry.MetricsRegistry(enabled=False)
        for _ in range(1000):
            reg.count("hot.path", 1.0, label="x")
        assert reg.families() == []


class TestRunLevelOverhead:
    def test_disabled_run_within_tolerance_of_baseline(self):
        # Wall-time guard for the ISSUE's 5 % budget.  The baseline is the
        # same instrumented build with telemetry off (the process default, as
        # shipped); min-of-N absorbs scheduler noise and the absolute floor
        # keeps sub-second timings from flaking.
        config = RunConfig(version="original", **SMALL)

        def wall(cfg, **kwargs):
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                run_fft_phase(cfg, **kwargs)
                best = min(best, time.perf_counter() - t0)
            return best

        run_fft_phase(config)  # warm caches (plans, JIT-free but allocs)
        t_plain = wall(config)
        t_disabled = wall(config, telemetry=telemetry.Telemetry(enabled=False))
        assert t_disabled <= max(t_plain * 1.05, t_plain + 0.05), (
            f"disabled telemetry run {t_disabled:.3f}s vs baseline {t_plain:.3f}s"
        )

    def test_disabled_run_not_slower_than_enabled(self):
        config = RunConfig(version="original", **SMALL)
        run_fft_phase(config)  # warm caches

        def wall(**kwargs):
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                run_fft_phase(config, **kwargs)
                best = min(best, time.perf_counter() - t0)
            return best

        t_disabled = wall()
        t_enabled = wall(telemetry=telemetry.Telemetry(enabled=True))
        # Enabled does strictly more work; disabled must not lose by more
        # than timing noise.
        assert t_disabled <= max(t_enabled * 1.10, t_enabled + 0.05), (
            f"disabled {t_disabled:.3f}s slower than enabled {t_enabled:.3f}s"
        )
