"""The POP factor model: hand-computable synthetic timelines, then the
Table I/II columns of live runs (every executor, replay split, base run)."""

import dataclasses

import pytest

from repro.analysis import analyze_run
from repro.analysis.pop import (
    FACTOR_KEYS,
    PopDecomposition,
    StreamTimeline,
    compute_totals,
    decompose,
    factor_rows,
    timelines_from_trace,
)
from repro.core import CostConstants, RunConfig, run_fft_phase
from repro.machine.cpu import ComputeRecord
from repro.machine.knl import whatif_machine
from repro.mpisim.world import MpiRecord
from repro.telemetry.trace import Trace


def two_rank_timelines():
    """Rank A computes 8 s; rank B computes 4 s and waits 2 s in MPI."""
    a = StreamTimeline(stream="A", compute_by_phase={"fft": 8.0})
    b = StreamTimeline(
        stream="B",
        compute_by_phase={"fft": 4.0},
        mpi_sync_by_layer={"pack": 2.0},
        mpi_transfer_by_layer={"pack": 1.0},
    )
    return [a, b]


class TestDecompose:
    def test_two_rank_estimate_split(self):
        # T = 10: max C = 8, mean C = 6 -> LB 0.75, comm eff 0.8.
        # Estimated ideal runtime = max_s(C + S) = max(8, 6) = 8
        # -> transfer 8/10 = 0.8, serialization 8/8 = 1.0.
        pop = decompose(two_rank_timelines(), makespan_s=10.0)
        assert pop.load_balance == pytest.approx(0.75)
        assert pop.communication_efficiency == pytest.approx(0.8)
        assert pop.parallel_efficiency == pytest.approx(0.6)
        assert pop.transfer_efficiency == pytest.approx(0.8)
        assert pop.serialization_efficiency == pytest.approx(1.0)
        assert pop.split_source == "estimate"
        assert pop.ideal_runtime_s == pytest.approx(8.0)

    def test_multiplicative_identity(self):
        pop = decompose(two_rank_timelines(), makespan_s=10.0)
        product = (
            pop.load_balance
            * pop.serialization_efficiency
            * pop.transfer_efficiency
        )
        assert product == pytest.approx(pop.parallel_efficiency, rel=1e-12)
        # parallel efficiency == mean C / T by definition
        assert pop.parallel_efficiency == pytest.approx(6.0 / 10.0, rel=1e-12)

    def test_replay_split(self):
        # A measured ideal-network runtime pins the transfer share exactly.
        pop = decompose(two_rank_timelines(), makespan_s=10.0, ideal_time_s=9.0)
        assert pop.split_source == "replay"
        assert pop.transfer_efficiency == pytest.approx(0.9)
        assert pop.serialization_efficiency == pytest.approx(8.0 / 9.0)

    def test_replay_split_is_clipped_to_one(self):
        # A replay slower than the run (jitter reordering) cannot push
        # transfer above 1; one faster than the busiest stream's compute
        # cannot push serialization above 1.
        slow = decompose(two_rank_timelines(), makespan_s=10.0, ideal_time_s=11.0)
        assert slow.transfer_efficiency == 1.0
        assert slow.ideal_runtime_s == 11.0
        fast = decompose(two_rank_timelines(), makespan_s=10.0, ideal_time_s=7.0)
        assert fast.serialization_efficiency == 1.0
        assert fast.transfer_efficiency == pytest.approx(0.7)

    def test_neutral_split_without_mpi(self):
        a = StreamTimeline(stream="A", compute_by_phase={"fft": 8.0})
        b = StreamTimeline(stream="B", compute_by_phase={"fft": 4.0})
        pop = decompose([a, b], makespan_s=10.0)
        assert pop.split_source == "neutral"
        assert pop.transfer_efficiency == 1.0
        assert pop.serialization_efficiency == pytest.approx(0.8)
        assert pop.parallel_efficiency == pytest.approx(0.6)

    def test_per_phase_load_balance(self):
        a = StreamTimeline(stream="A", compute_by_phase={"fft": 8.0, "pack": 1.0})
        b = StreamTimeline(stream="B", compute_by_phase={"fft": 4.0, "pack": 1.0})
        pop = decompose([a, b], makespan_s=10.0)
        by_name = {p.phase: p for p in pop.phases}
        assert by_name["fft"].load_balance == pytest.approx(0.75)
        assert by_name["pack"].load_balance == pytest.approx(1.0)
        assert by_name["fft"].time_total_s == pytest.approx(12.0)
        assert by_name["fft"].n_streams == 2

    def test_comm_layer_split(self):
        pop = decompose(two_rank_timelines(), makespan_s=10.0)
        layers = {c.layer: c for c in pop.comm_layers}
        assert layers["pack"].sync_s == pytest.approx(2.0)
        assert layers["pack"].transfer_s == pytest.approx(1.0)
        assert layers["pack"].sync_fraction == pytest.approx(2.0 / 3.0)

    def test_empty_timelines_rejected(self):
        with pytest.raises(ValueError):
            decompose([], makespan_s=1.0)

    def test_nonpositive_makespan_rejected(self):
        with pytest.raises(ValueError):
            decompose(two_rank_timelines(), makespan_s=0.0)

    def test_roundtrip_through_dict(self):
        pop = decompose(two_rank_timelines(), makespan_s=10.0)
        doc = pop.to_dict()
        back = PopDecomposition.from_dict(doc)
        assert back.parallel_efficiency == pop.parallel_efficiency
        assert back.split_source == pop.split_source
        assert [p.phase for p in back.phases] == [p.phase for p in pop.phases]
        assert [c.layer for c in back.comm_layers] == ["pack"]


class TestTimelinesFromTrace:
    def test_aggregation_by_phase_and_layer(self):
        trace = Trace()
        trace.compute.append(
            ComputeRecord(stream=0, thread=None, phase="fft",
                          instructions=1e6, start=0.0, end=2.0)
        )
        trace.compute.append(
            ComputeRecord(stream=0, thread=None, phase="fft",
                          instructions=1e6, start=3.0, end=4.0)
        )
        trace.mpi.append(
            MpiRecord(stream=0, call="alltoall", comm_id=1, comm_name="pack3",
                      t_begin=2.0, t_end=3.0, bytes_sent=100.0, sync_time=0.25)
        )
        (tl,) = timelines_from_trace(trace)
        assert tl.compute_by_phase == {"fft": 3.0}
        # pack3 folds into the "pack" layer; sync/transfer split preserved.
        assert tl.mpi_sync_by_layer == {"pack": 0.25}
        assert tl.mpi_transfer_by_layer == {"pack": 0.75}
        assert tl.compute_time == pytest.approx(3.0)


SMALL = dict(ecutwfc=12.0, alat=5.0, nbnd=8)
ROWS = [
    "Parallel efficiency",
    "-> Load Balance",
    "-> Communication Efficiency",
    "   -> Synchronization",
    "   -> Transfer",
    "Computation Scalability",
    "-> IPC Scalability",
    "-> Instructions Scalability",
    "Global Efficiency",
]


def run_with_replay(**config):
    """(result, ideal-network replay time) of one small configuration."""
    cfg = RunConfig(**SMALL, **config)
    ideal = run_fft_phase(cfg, knl=whatif_machine("ideal_network"))
    return run_fft_phase(cfg), ideal.phase_time


def column(result, ideal_time=None, base=None):
    """The Table I/II column of a live run (what ``factor_columns`` lays out)."""
    pop = analyze_run(result, ideal_time_s=ideal_time).pop
    return factor_rows(pop, compute_totals(result.cpu.counters), base)


@pytest.fixture(scope="module")
def original():
    return run_with_replay(ranks=2, taskgroups=2, version="original")


class TestFactorRows:
    def test_nine_rows_in_paper_order(self, original):
        result, _ideal = original
        assert list(column(result)) == ROWS

    def test_upper_rows_are_the_decomposition(self):
        pop = decompose(two_rank_timelines(), makespan_s=10.0, ideal_time_s=9.0)
        totals = dict(total_compute_time=12.0, total_instructions=6e9, average_ipc=1.0)
        rows = factor_rows(pop, totals)
        assert [rows[label] for label in ROWS[:5]] == [
            getattr(pop, key) for key in FACTOR_KEYS
        ]
        assert pop.factors() == {
            **{key: getattr(pop, key) for key in FACTOR_KEYS},
            "split_source": "replay",
        }

    def test_scalability_against_a_base_run(self):
        pop = decompose(two_rank_timelines(), makespan_s=10.0)
        base = dict(total_compute_time=6.0, total_instructions=3e9, average_ipc=1.0)
        totals = dict(total_compute_time=12.0, total_instructions=4e9, average_ipc=0.8)
        rows = factor_rows(pop, totals, base)
        assert rows["Computation Scalability"] == 0.5
        assert rows["-> IPC Scalability"] == 0.8
        assert rows["-> Instructions Scalability"] == 0.75
        assert rows["Global Efficiency"] == pop.parallel_efficiency * 0.5

    def test_base_column_is_unity_scalability(self, original):
        result, _ideal = original
        rows = column(result)
        assert rows["Computation Scalability"] == 1.0
        assert rows["-> IPC Scalability"] == 1.0
        assert rows["-> Instructions Scalability"] == 1.0

    def test_factor_identities(self, original):
        result, ideal = original
        rows = column(result, ideal_time=ideal)
        assert rows["Parallel efficiency"] == pytest.approx(
            rows["-> Load Balance"] * rows["-> Communication Efficiency"], rel=1e-9
        )
        assert rows["Global Efficiency"] == pytest.approx(
            rows["Parallel efficiency"] * rows["Computation Scalability"], rel=1e-9
        )
        # Sync x transfer ~ comm eff (small slack from the replay's jitter
        # reordering).
        assert rows["   -> Synchronization"] * rows["   -> Transfer"] == pytest.approx(
            rows["-> Communication Efficiency"], rel=0.05
        )

    def test_factors_in_unit_range(self, original):
        result, ideal = original
        for label, value in column(result, ideal_time=ideal).items():
            assert 0.0 < value <= 1.01, label

    def test_ideal_network_is_faster(self, original):
        result, ideal = original
        assert ideal < result.phase_time

    def test_scalability_drops_with_more_streams(self):
        # Per-message MPI-stack instructions off: on the toy workload they
        # would dominate the instruction balance this test checks.
        cc = CostConstants(instr_per_message=0.0)
        base_res = run_fft_phase(
            RunConfig(**SMALL, ranks=1, taskgroups=2), cost_constants=cc
        )
        big = run_fft_phase(RunConfig(**SMALL, ranks=4, taskgroups=2), cost_constants=cc)
        rows = column(big, base=compute_totals(base_res.cpu.counters))
        assert rows["-> Instructions Scalability"] == pytest.approx(1.0, abs=0.02)
        assert rows["-> IPC Scalability"] <= 1.01

    def test_empty_run_has_no_decomposition(self, original):
        result, _ideal = original
        broken = dataclasses.replace(result, phase_time=0.0)
        assert analyze_run(broken).pop is None
        from repro.experiments.table1 import reduce_pop

        with pytest.raises(ValueError, match="no computation"):
            reduce_pop(None, broken, None, None)


class TestHybridFactors:
    """POP factors for the hybrid (multi-threaded) executors."""

    @pytest.mark.parametrize(
        "version", ["ompss_perfft", "ompss_steps", "ompss_combined", "pipelined"]
    )
    def test_factors_well_formed_for_every_executor(self, version):
        result, ideal = run_with_replay(ranks=2, taskgroups=2, version=version)
        rows = column(result, ideal_time=ideal)
        for label, value in rows.items():
            assert 0.0 < value <= 1.05, (version, label)
        assert rows["Parallel efficiency"] == pytest.approx(
            rows["-> Load Balance"] * rows["-> Communication Efficiency"], rel=1e-9
        )

    def test_streams_are_threads_for_task_versions(self):
        """Table II's columns treat each (rank, thread) as a process."""
        cfg = RunConfig(**SMALL, ranks=2, taskgroups=4, version="ompss_perfft")
        result = run_fft_phase(cfg)
        assert len(result.cpu.counters.streams) == 2 * 4
        assert analyze_run(result).pop.n_streams == 2 * 4

    def test_cross_version_base_comparison(self):
        """Using the original's 1-rank run as the base for a task version's
        scalability is meaningful: identical workload, same instruction
        accounting up to the per-message MPI-stack terms."""
        base_res = run_fft_phase(RunConfig(**SMALL, ranks=1, taskgroups=2))
        task_res = run_fft_phase(
            RunConfig(**SMALL, ranks=2, taskgroups=2, version="ompss_perfft")
        )
        rows = column(task_res, base=compute_totals(base_res.cpu.counters))
        assert 0.5 < rows["-> Instructions Scalability"] <= 1.1
