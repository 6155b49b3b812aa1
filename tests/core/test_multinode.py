"""Integration tests for multi-node runs (cluster network + per-node CPUs)."""

import numpy as np
import pytest

from repro.core import RunConfig, run_fft_phase, trace_run
from repro.mpisim.network import ClusterNetworkModel

SMALL = dict(ecutwfc=12.0, alat=5.0, nbnd=8)


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
        assert isinstance(net, ClusterNetworkModel)
        assert 0 < net.inter_bytes < net.bytes_transferred

    def test_single_node_never_touches_fabric(self):
        cfg = RunConfig(**SMALL, ranks=4, taskgroups=2, n_nodes=1)
        res = run_fft_phase(cfg)
        assert not isinstance(res.world.network, ClusterNetworkModel)

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
