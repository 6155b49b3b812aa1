"""Unit tests for dependency rules and the task graph (no workers needed)."""

import pytest

from repro.ompss import AccessMode, DependencyTracker, Task, TaskGraph, TaskState
from repro.simkit import Event, Simulator


def make_task(sim, tid, ins=(), outs=(), inouts=()):
    accesses = (
        [(r, AccessMode.IN) for r in ins]
        + [(r, AccessMode.OUT) for r in outs]
        + [(r, AccessMode.INOUT) for r in inouts]
    )
    return Task(tid, f"t{tid}", lambda w: iter(()), accesses, Event(sim))


@pytest.fixture()
def sim():
    return Simulator()


class TestDependencyRules:
    def test_raw_dependency(self, sim):
        tr = DependencyTracker()
        writer = make_task(sim, 0, outs=["x"])
        reader = make_task(sim, 1, ins=["x"])
        assert tr.register(writer) == set()
        assert tr.register(reader) == {writer}

    def test_war_dependency(self, sim):
        tr = DependencyTracker()
        reader = make_task(sim, 0, ins=["x"])
        writer = make_task(sim, 1, outs=["x"])
        tr.register(reader)
        assert tr.register(writer) == {reader}

    def test_waw_dependency(self, sim):
        tr = DependencyTracker()
        w1 = make_task(sim, 0, outs=["x"])
        w2 = make_task(sim, 1, outs=["x"])
        tr.register(w1)
        assert tr.register(w2) == {w1}

    def test_readers_do_not_depend_on_each_other(self, sim):
        tr = DependencyTracker()
        w = make_task(sim, 0, outs=["x"])
        r1 = make_task(sim, 1, ins=["x"])
        r2 = make_task(sim, 2, ins=["x"])
        tr.register(w)
        assert tr.register(r1) == {w}
        assert tr.register(r2) == {w}

    def test_inout_chain_serializes(self, sim):
        tr = DependencyTracker()
        t1 = make_task(sim, 0, inouts=["psis"])
        t2 = make_task(sim, 1, inouts=["psis"])
        t3 = make_task(sim, 2, inouts=["psis"])
        tr.register(t1)
        assert tr.register(t2) == {t1}
        assert tr.register(t3) == {t2}

    def test_independent_regions_no_deps(self, sim):
        tr = DependencyTracker()
        t1 = make_task(sim, 0, inouts=[("psis", 0)])
        t2 = make_task(sim, 1, inouts=[("psis", 1)])
        tr.register(t1)
        assert tr.register(t2) == set()

    def test_writer_then_readers_then_writer(self, sim):
        """The Fig. 4 flow pattern: out -> in,in -> inout gathers all readers."""
        tr = DependencyTracker()
        w1 = make_task(sim, 0, outs=["aux"])
        r1 = make_task(sim, 1, ins=["aux"])
        r2 = make_task(sim, 2, ins=["aux"])
        w2 = make_task(sim, 3, inouts=["aux"])
        tr.register(w1)
        tr.register(r1)
        tr.register(r2)
        # WAR edges on both readers plus the (transitively redundant but
        # harmless) WAW edge on the previous writer.
        assert tr.register(w2) == {w1, r1, r2}

    def test_finished_predecessors_excluded(self, sim):
        tr = DependencyTracker()
        w = make_task(sim, 0, outs=["x"])
        tr.register(w)
        w.state = TaskState.FINISHED
        r = make_task(sim, 1, ins=["x"])
        assert tr.register(r) == set()


def add_all(graph, ready, *tasks):
    """Add ``tasks`` in order, appending each one that is ready on add."""
    for t in tasks:
        graph.add(t)
        if t.state is TaskState.READY:
            ready.append(t)


class TestTaskGraph:
    def test_independent_tasks_ready_immediately(self, sim):
        ready = []
        graph = TaskGraph()
        t1 = make_task(sim, 0, inouts=[("b", 0)])
        t2 = make_task(sim, 1, inouts=[("b", 1)])
        add_all(graph, ready, t1, t2)
        assert ready == [t1, t2]
        assert graph.n_edges == 0

    def test_chain_releases_in_order(self, sim):
        ready = []
        graph = TaskGraph()
        t1 = make_task(sim, 0, outs=["x"])
        t2 = make_task(sim, 1, ins=["x"], outs=["y"])
        t3 = make_task(sim, 2, ins=["y"])
        add_all(graph, ready, t1, t2, t3)
        assert ready == [t1]
        t1.state = TaskState.RUNNING
        ready += graph.complete(t1)
        assert ready == [t1, t2]
        t2.state = TaskState.RUNNING
        ready += graph.complete(t2)
        assert ready == [t1, t2, t3]
        assert graph.n_outstanding == 1

    def test_diamond_joins(self, sim):
        ready = []
        graph = TaskGraph()
        src = make_task(sim, 0, outs=["x"])
        a = make_task(sim, 1, ins=["x"], outs=["a"])
        b = make_task(sim, 2, ins=["x"], outs=["b"])
        join = make_task(sim, 3, ins=["a", "b"])
        add_all(graph, ready, src, a, b, join)
        assert graph.add(make_task(sim, 4, ins=["a"])) == {a}
        src.state = TaskState.RUNNING
        ready += graph.complete(src)
        assert set(ready) == {src, a, b}
        a.state = TaskState.RUNNING
        ready += graph.complete(a)
        assert join not in ready
        b.state = TaskState.RUNNING
        ready += graph.complete(b)
        assert join in ready

    def test_complete_non_running_rejected(self, sim):
        graph = TaskGraph()
        t = make_task(sim, 0)
        graph.add(t)
        with pytest.raises(RuntimeError):
            graph.complete(t)
