"""Tests for the Dimemas-style what-if replays: one run per altered machine
(``dataclasses.replace`` on ``KnlParameters``, or ``whatif_machine``)."""

import dataclasses

import pytest

from repro.core import RunConfig, run_fft_phase
from repro.machine import WHATIF_MACHINES, KnlParameters, whatif_machine

SMALL = dict(ecutwfc=12.0, alat=5.0, nbnd=8)


@pytest.fixture(scope="module")
def config():
    return RunConfig(**SMALL, ranks=2, taskgroups=2, version="original")


def sweep(config, parameter, values):
    """Phase runtime per value of one ``KnlParameters`` field."""
    base = KnlParameters()
    return [
        run_fft_phase(
            config, knl=dataclasses.replace(base, **{parameter: value})
        ).phase_time
        for value in values
    ]


def attribution(config):
    """The measured runtime and the runtime under each named what-if."""
    out = {"measured": run_fft_phase(config, knl=KnlParameters()).phase_time}
    for name in WHATIF_MACHINES:
        out[name] = run_fft_phase(config, knl=whatif_machine(name)).phase_time
    return out


class TestSweep:
    def test_latency_sweep_is_monotone(self, config):
        times = sweep(config, "net_latency", [0.0, 1e-5, 1e-4])
        assert times == sorted(times)
        assert times[0] < times[-1]

    def test_frequency_sweep_speeds_up(self, config):
        times = sweep(config, "frequency_hz", [0.7e9, 1.4e9, 2.8e9])
        assert times[0] > times[1] > times[2]

    def test_bandwidth_sweep(self, config):
        times = sweep(config, "mem_bandwidth", [1e9, 6.9e10, 1e15])
        assert times[0] > times[2]

    def test_all_listed_parameters_sweepable(self, config):
        for parameter, value in (
            ("frequency_hz", 1e10),
            ("mem_bandwidth", 1e10),
            ("mem_bw_rampup_max", 1e10),
            ("net_injection_bw", 1e10),
            ("net_capacity", 1e10),
            ("net_latency", 1e-6),
            ("compute_jitter", 0.0),
        ):
            (time,) = sweep(config, parameter, [value])
            assert time > 0


class TestAttribution:
    def test_every_whatif_is_no_slower(self, config):
        attr = attribution(config)
        assert attr["ideal_network"] <= attr["measured"] * 1.001
        assert attr["infinite_bandwidth"] <= attr["measured"] * 1.02
        # Jitter changes the noise, not systematically the mean — allow 10%.
        assert attr["no_jitter"] <= attr["measured"] * 1.1

    def test_contention_matters_at_high_occupancy(self):
        """On a node-filling run, lifting the bandwidth cap must help more
        than at low occupancy."""
        low = attribution(RunConfig(**SMALL, ranks=1, taskgroups=2))
        high = attribution(RunConfig(**SMALL, ranks=8, taskgroups=2))
        gain_low = 1 - low["infinite_bandwidth"] / low["measured"]
        gain_high = 1 - high["infinite_bandwidth"] / high["measured"]
        assert gain_high > gain_low
