"""The kernel engine's run-level telemetry and fan-out.

A data-mode run builds one :class:`~repro.fft.backends.KernelEngine` and
reports its call and row counters in the ``dataplane`` section and the
``dataplane.kernel_*`` gauges; a meta-mode run executes no kernels and
builds no engine.

The engine fans its batched passes over a process-wide thread pool.  Here
that pool meets the program's own concurrency: a process sweep forked after
the pool exists, data-mode runs started concurrently from threads (the
shape of a thread-executor sweep), and one-CPU and meta-mode runs that must start no
thread at all.  Output bytes must not notice any of it.
"""

import hashlib
import os
import pathlib
import signal
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro
from repro import _fan
from repro.core import RunConfig, run_fft_phase, vofr
from repro.mpisim import communicator
from repro.fft.backends import engine as engine_mod

SMALL = dict(ecutwfc=12.0, alat=5.0, nbnd=8)
SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])
REPO = str(pathlib.Path(__file__).resolve().parents[2])


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


def _digest(result) -> str:
    return hashlib.sha256(result.output_coefficients().tobytes()).hexdigest()


def output_digest(task, result, ideal, trace):
    """Sweep reducer: the run's output bytes and counters (no wall clock)."""
    return {
        "output_sha256": _digest(result),
        "phase_time_s": result.phase_time,
        "kernel_calls": result.dataplane["kernel_calls"],
    }


@pytest.fixture
def fanned(monkeypatch):
    """Two CPUs and no minimum slice: every kernel call, exchange move and
    VOFR pass of a tiny run fans."""
    monkeypatch.setattr(_fan, "_cpus", lambda: 2)
    monkeypatch.setattr(engine_mod, "MIN_POINTS", 1)
    monkeypatch.setattr(communicator, "MOVE_MIN_POINTS", 1)
    monkeypatch.setattr(vofr, "MIN_POINTS", 1)


#: Builds the pool with a data-mode run, then forks a process sweep of
#: data-mode points; prints whether its records equal the serial sweep's.
_FORK_AFTER_POOL = f"""
import os
from repro import _fan
from repro.core import RunConfig, run_fft_phase
from repro.fft.backends import engine
from repro.sweep import GridSpec, SweepTask, run_sweep

_fan._cpus = lambda: 2
engine.MIN_POINTS = 1
run_fft_phase(RunConfig(**{SMALL!r}, ranks=2, taskgroups=2, data_mode=True))
assert os.getpid() in _fan._pools
grid = GridSpec(
    axes={{"ranks": (1, 2), "version": ("original", "ompss_perfft")}},
    base=dict({SMALL!r}, taskgroups=2, data_mode=True),
)
tasks = [SweepTask(key=p.key, config=p.config, reducer="{__name__}:output_digest")
         for p in grid.points()]
serial = run_sweep(tasks, jobs=1)
pooled = run_sweep(tasks, jobs=2, mode="process")
print([r.summary for r in pooled.records] == [r.summary for r in serial.records]
      and [r.digest for r in pooled.records] == [r.digest for r in serial.records])
"""


class TestFanOut:
    def test_process_sweep_forked_after_the_pool_exists(self):
        # The forked workers inherit the pool object but none of its threads:
        # a child that submitted to it would wait forever.  A fresh session,
        # so a hang ends in a timeout that kills every process it forked.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, REPO)))
        proc = subprocess.Popen(
            [sys.executable, "-c", _FORK_AFTER_POOL], cwd=REPO, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=180)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("the process sweep hung after the kernel pool was built")
        assert proc.returncode == 0, err
        assert out.split() == ["True"]

    def test_concurrent_runs_equal_serial_runs(self, fanned):
        configs = [
            RunConfig(**SMALL, ranks=ranks, taskgroups=2, data_mode=True, seed=seed)
            for ranks in (1, 2)
            for seed in (3, 4)
        ]
        serial = [_digest(run_fft_phase(c)) for c in configs]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # More callers than (forced) CPUs, all sharing the one pool.
            with ThreadPoolExecutor(len(configs)) as pool:
                futures = [pool.submit(run_fft_phase, c) for c in configs]
                threaded = [_digest(f.result(timeout=120)) for f in futures]
        finally:
            sys.setswitchinterval(switch)
        assert threaded == serial

    def test_one_cpu_data_run_starts_no_thread(self, monkeypatch):
        """What ``taskset -c 0`` gives a data-mode run."""
        monkeypatch.setattr(_fan, "_cpus", lambda: 1)
        monkeypatch.setattr(engine_mod, "MIN_POINTS", 1)

        def no_pool():
            raise AssertionError("a one-CPU run asked for the kernel pool")

        monkeypatch.setattr(_fan, "_executor", no_pool)
        before = threading.active_count()
        run_fft_phase(RunConfig(**SMALL, ranks=2, taskgroups=2, data_mode=True))
        assert threading.active_count() == before

    def test_meta_mode_run_starts_no_thread(self, fanned):
        before = threading.active_count()
        run_fft_phase(RunConfig(**SMALL, ranks=2, taskgroups=2))
        assert threading.active_count() == before
