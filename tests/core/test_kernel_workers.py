"""The kernel engine's run-level telemetry.

A data-mode run builds one :class:`~repro.fft.backends.KernelEngine` and
reports its call and row counters in the ``dataplane`` section and the
``dataplane.kernel_*`` gauges; a meta-mode run executes no kernels and
builds no engine.
"""

from repro.core import RunConfig, run_fft_phase
from repro.fft.backends import engine as engine_mod

SMALL = dict(ecutwfc=12.0, alat=5.0, nbnd=8)


class TestKernelTelemetry:
    def test_dataplane_carries_kernel_gauges(self):
        cfg = RunConfig(**SMALL, ranks=2, taskgroups=2, data_mode=True, telemetry=True)
        result = run_fft_phase(cfg)
        dp = result.dataplane
        assert dp is not None
        assert dp["kernel_rows"] > dp["kernel_calls"] > 0
        snap = result.telemetry.metrics.snapshot()
        gauges = {
            name: fam["series"][0]["value"]
            for name, fam in snap.items()
            if name.startswith("dataplane.kernel")
        }
        assert gauges == {
            "dataplane.kernel_calls": float(dp["kernel_calls"]),
            "dataplane.kernel_rows": float(dp["kernel_rows"]),
        }

    def test_meta_mode_never_builds_an_engine(self, monkeypatch):
        def no_engine():
            raise AssertionError("meta mode built a kernel engine")

        monkeypatch.setattr(engine_mod, "KernelEngine", no_engine)
        result = run_fft_phase(RunConfig(**SMALL, ranks=2, taskgroups=2))
        assert result.phase_time > 0
        assert result.dataplane is None
