"""Event-contract tests of the fused collective completion (DESIGN.md).

A collective member's event is scheduled once, directly at its completion
time, and the rank waits on that very event (the trace wrapper records the
``MpiRecord`` and swaps the value in a first-registered callback).  These
tests pin what the fusion must not have changed: completion times, what
waiters and the trace see, and fault propagation.
"""

import pytest

from repro.faults import FaultScenario, LinkFault
from repro.faults.injector import FaultInjector, MpiLinkError, MpiTimeoutError
from repro.mpisim import MetaPayload, MpiWorld, NetworkModel
from repro.mpisim.communicator import MpiEvent
from repro.telemetry import Trace


def _parts(world, nbytes=1.0e6):
    return [MetaPayload(nbytes)] * world.comm_world.size


def _inject(world, sim, scenario):
    injector = FaultInjector(scenario, config_seed=7)
    injector.bind(sim, 0)
    world.network.faults = injector
    return injector


class TestOneEventPerMember:
    def test_member_event_is_what_the_rank_waits_on(self, sim, world):
        world.trace = Trace()
        records = world.trace.mpi
        seen = {}

        def program(rank):
            event = rank.alltoall(world.comm_world, _parts(world))
            assert isinstance(event, MpiEvent) and event.name == "mpi:alltoall"
            value = yield event
            seen[rank.rank] = (value, event.value, sim.now)

        world.launch(program)
        before = sim.n_dispatched
        world.run()
        # Waiter and event agree on the swapped value: the received parts,
        # not the CollectiveResult the trace record was built from.
        for rank, (value, event_value, _t) in seen.items():
            assert value is event_value and len(value) == 8
        assert len(records) == 8
        assert {r.t_end for r in records} == {t for _v, _e, t in seen.values()}
        assert all(r.bytes_sent == 7.0e6 and r.call == "alltoall" for r in records)
        # 8 process starts, 1 transport timer (all transfers end together),
        # 1 condition over the 8 transfers, 8 member events, 8 process ends.
        assert sim.n_dispatched - before == 26

    def test_latency_is_the_delay_of_the_member_event(self, sim, world):
        ends = {}

        def program(rank):
            yield sim.timeout(0.5 * rank.rank)
            yield rank.alltoall(world.comm_world, _parts(world, 0.0))
            ends[rank.rank] = sim.now

        world.launch(program)
        world.run()
        # Last arrival at t = 3.5, then P - 1 = 7 messages of 1 us.
        assert set(ends.values()) == {3.5 + 7 * 1.0e-6}

    def test_zero_latency_completes_at_the_join_timestamp(self, sim, cpu):
        network = NetworkModel(sim, capacity=8.0e9, injection_bw=1.0e9, latency=0.0)
        world = MpiWorld(sim, cpu, network, n_ranks=4)
        ends = {}
        world.trace = Trace()
        records = world.trace.mpi

        def program(rank):
            yield sim.timeout(float(rank.rank))
            yield rank.alltoall(world.comm_world, _parts(world, 0.0))
            ends[rank.rank] = sim.now

        world.launch(program)
        world.run()
        assert set(ends.values()) == {3.0}
        assert sorted(r.sync_time for r in records) == [0.0, 1.0, 2.0, 3.0]


class TestFaultPropagation:
    def test_lost_transfer_fails_every_member_with_one_exception(self, sim, world):
        _inject(world, sim, FaultScenario(kill_transfer=3, max_resumes=0))
        caught = {}
        world.trace = Trace()
        records = world.trace.mpi

        def program(rank):
            try:
                yield rank.alltoall(world.comm_world, _parts(world))
            except MpiLinkError as exc:
                caught[rank.rank] = exc

        world.launch(program)
        world.run()  # nothing escapes: every failed event was defused
        assert sorted(caught) == list(range(8))
        assert len({id(exc) for exc in caught.values()}) == 1
        assert records == []  # a failed call is not a completed MpiRecord

    def test_timed_out_transfer_fails_every_member(self, sim, world):
        _inject(
            world, sim,
            FaultScenario(
                links=[LinkFault(drop_probability=0.95)],
                mpi_max_retries=50,
                mpi_retry_backoff_s=1.0e-3,
                mpi_timeout_s=2.0e-3,
                max_resumes=0,
            ),
        )
        caught = {}

        def program(rank):
            try:
                yield rank.alltoall(world.comm_world, _parts(world))
            except MpiTimeoutError as exc:
                caught[rank.rank] = exc

        world.launch(program)
        world.run()
        assert sorted(caught) == list(range(8))
        assert len({id(exc) for exc in caught.values()}) == 1

    def test_unwaited_failed_member_surfaces_through_the_simulator(self, sim, world):
        """No waiter, no defuse: the run loop re-raises, as for any event."""
        _inject(world, sim, FaultScenario(kill_transfer=1, max_resumes=0))

        def program(rank):
            event = rank.alltoall(world.comm_world, _parts(world))
            if rank.rank:
                try:
                    yield event
                except MpiLinkError:
                    pass
            else:
                yield sim.timeout(10.0)  # rank 0 never looks at its event

        world.launch(program)
        with pytest.raises(MpiLinkError):
            world.run()
