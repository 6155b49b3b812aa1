"""Integration tests for multi-node runs (cluster network + per-node CPUs).

``fixtures/multinode_pins.json`` pins, bit for bit, the simulated timing of
meta-mode runs on 2 and 4 nodes: ``phase_time.hex()``, ``n_dispatched``,
the network's summed ``engine_stats()`` and its ``internode_summary()``,
for slab and pencil under ``original`` and ``ompss_perfft``, plus one
2-node cell whose links are degraded and drop messages (the retry envelope
around every transfer).  ``python -m tests.core.test_multinode`` prints the
current pins.
"""

import json
import pathlib

import numpy as np
import pytest

from repro.core import RunConfig, run_fft_phase, trace_run
from repro.faults import FaultScenario
from repro.faults.plan import LinkFault

SMALL = dict(ecutwfc=12.0, alat=5.0, nbnd=8)
PINS_PATH = pathlib.Path(__file__).parent / "fixtures/multinode_pins.json"

#: Degraded, lossy links on every rank, one rank slower still.
LOSSY = FaultScenario(
    seed=11,
    links=(
        LinkFault(bandwidth_factor=0.7, drop_probability=0.2),
        LinkFault(rank=1, bandwidth_factor=0.4, drop_probability=0.3),
    ),
    mpi_max_retries=20,
)

#: case -> (n_nodes, decomposition, version, fault scenario or None)
PIN_CASES = {
    f"{n}n-{decomposition}-{version}": (n, decomposition, version, None)
    for n in (2, 4)
    for decomposition in ("slab", "pencil")
    for version in ("original", "ompss_perfft")
}
PIN_CASES["2n-slab-original-lossy"] = (2, "slab", "original", LOSSY)


def pin_observables(case: str) -> dict:
    n_nodes, decomposition, version, faults = PIN_CASES[case]
    cfg = RunConfig(
        **SMALL, ranks=4, taskgroups=2, version=version,
        decomposition=decomposition, n_nodes=n_nodes,
    )
    res = run_fft_phase(cfg, faults=faults)
    assert not res.failed
    net = res.world.network
    out = {
        "phase_time": res.phase_time.hex(),
        "n_dispatched": res.sim.n_dispatched,
        "engine_stats": net.engine_stats(),
        "internode": net.internode_summary(),
    }
    if faults is not None:
        out["fault_counters"] = counters = res.fault_report["counters"]
        assert counters["retry"] > 0 and counters["transfer_recovered"] > 0
    # JSON round trip: the fixture's own container types and float reprs.
    return json.loads(json.dumps(out))


@pytest.mark.parametrize("case", sorted(PIN_CASES))
def test_multinode_timing_bit_identical_to_pins(case):
    expected = json.loads(PINS_PATH.read_text())[case]
    assert pin_observables(case) == expected


class TestMultiNodeRuns:
    @pytest.mark.parametrize("version", ["original", "ompss_perfft", "ompss_steps"])
    def test_numerics_survive_the_fabric(self, version):
        cfg = RunConfig(
            **SMALL, ranks=4, taskgroups=2, version=version, data_mode=True, n_nodes=2
        )
        res = run_fft_phase(cfg)
        assert res.validate() < 1e-12

    def test_results_identical_to_single_node(self):
        outs = []
        for n_nodes in (1, 2):
            cfg = RunConfig(
                **SMALL, ranks=4, taskgroups=2, data_mode=True, n_nodes=n_nodes
            )
            outs.append(run_fft_phase(cfg).output_coefficients())
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_fabric_carries_cross_node_traffic_only(self):
        cfg = RunConfig(**SMALL, ranks=4, taskgroups=2, n_nodes=2)
        res = run_fft_phase(cfg)
        net = res.world.network
        assert 0 < net.inter_bytes < net.bytes_transferred

    def test_single_node_never_touches_fabric(self):
        cfg = RunConfig(**SMALL, ranks=4, taskgroups=2, n_nodes=1)
        net = run_fft_phase(cfg).world.network
        assert net.bytes_transferred > 0
        assert net.inter_bytes == 0 and net.inter_messages == 0
        assert net.link_bytes == {} and net.link_messages == {}

    def test_pack_groups_stay_on_node(self):
        """With ranks-per-node a multiple of T, pack traffic is intra-node —
        only the scatter crosses the fabric (the production launcher layout)."""
        cfg = RunConfig(**SMALL, ranks=2, taskgroups=2, n_nodes=2)
        # 4 procs over 2 nodes: packs {0,1} and {2,3}; scatters {0,2}, {1,3}.
        res, trace = trace_run(cfg)
        net = res.world.network
        assert net.inter_bytes > 0
        pack_bytes = sum(
            r.bytes_sent for r in trace.mpi if r.comm_name.startswith("pack")
        )
        scatter_bytes = sum(
            r.bytes_sent for r in trace.mpi if r.comm_name.startswith("scatter")
        )
        # Everything the fabric saw must be scatter traffic.
        assert net.inter_bytes <= scatter_bytes + 1e-9
        assert pack_bytes > 0

    def test_slower_fabric_slows_the_run(self):
        import dataclasses

        from repro.machine import knl_parameters

        cfg = RunConfig(**SMALL, ranks=4, taskgroups=2, n_nodes=2)
        fast = run_fft_phase(cfg).phase_time
        slow_knl = dataclasses.replace(
            knl_parameters(), fabric_injection_bw=1e7, fabric_latency=1e-4
        )
        slow = run_fft_phase(cfg, knl=slow_knl).phase_time
        assert slow > fast * 1.5

    def test_uneven_rank_distribution_rejected(self):
        with pytest.raises(ValueError, match="evenly"):
            RunConfig(**SMALL, ranks=3, taskgroups=1, n_nodes=2)

    def test_invalid_node_count_rejected(self):
        with pytest.raises(ValueError, match="n_nodes"):
            RunConfig(**SMALL, taskgroups=2, n_nodes=0)


if __name__ == "__main__":
    print(json.dumps({case: pin_observables(case) for case in sorted(PIN_CASES)}, indent=1))
