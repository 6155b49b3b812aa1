"""Unit tests for the metrics registry."""

import pytest

from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_increments(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="only go up"):
            Counter().inc(-1.0)


class TestGauge:
    def test_set_overwrites(self):
        g = Gauge()
        g.set(3.0)
        g.set(1.0)
        assert g.value == 1.0

    def test_set_max_keeps_watermark(self):
        g = Gauge()
        g.set_max(3.0)
        g.set_max(1.0)
        assert g.value == 3.0


class TestHistogram:
    def test_observe_buckets(self):
        h = Histogram(buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0, 0.1):
            h.observe(v)
        assert h.counts == [2, 1, 1]
        assert h.total == 4
        assert h.sum == pytest.approx(55.6)

    def test_cumulative_is_monotone(self):
        h = Histogram()
        for v in (1e-5, 1e-3, 0.5, 100.0):
            h.observe(v)
        cum = h.cumulative()
        assert cum == sorted(cum)
        assert cum[-1] == 4
        assert len(cum) == len(DEFAULT_BUCKETS) + 1

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError, match="sorted"):
            Histogram(buckets=(2.0, 1.0))


class TestRegistry:
    def test_counter_series_by_labels(self):
        reg = MetricsRegistry()
        reg.count("mpi.calls", 1.0, call="alltoall", comm="scatter")
        reg.count("mpi.calls", 1.0, call="alltoall", comm="scatter")
        reg.count("mpi.calls", 1.0, call="barrier", comm="world")
        assert reg.value("mpi.calls", call="alltoall", comm="scatter") == 2.0
        assert reg.value("mpi.calls", call="barrier", comm="world") == 1.0
        assert reg.total("mpi.calls") == 3.0

    def test_series_identity_ignores_label_spelling(self):
        """The per-family memo is keyed by the labels as passed; every
        spelling of one label set (kwarg order, int vs its string) must
        still land on the one series the sorted/stringified key names."""
        reg = MetricsRegistry()
        reg.count("mpi.calls", 1, call="alltoall", rank=3)
        reg.count("mpi.calls", 1, rank=3, call="alltoall")
        reg.count("mpi.calls", 1, rank="3", call="alltoall")
        reg.count("mpi.calls", 1, call="alltoall", rank=3)  # memo hit
        assert reg.value("mpi.calls", call="alltoall", rank=3) == 4.0
        assert len(reg.snapshot()["mpi.calls"]["series"]) == 1

    def test_unhashable_label_value_still_resolves(self):
        reg = MetricsRegistry()
        reg.count("x", 1, where=["a", "b"])
        reg.count("x", 1, where=["a", "b"])
        assert reg.value("x", where="['a', 'b']") == 2.0

    def test_label_named_name_is_legal(self):
        # The one-shot methods take their own parameters positionally, so a
        # label called "name" (the OmpSs task-kind label) must not collide.
        reg = MetricsRegistry()
        reg.count("ompss.tasks_submitted", 1.0, name="fft_band")
        reg.observe("ompss.task_seconds", 0.25, name="fft_band")
        reg.set_gauge("demo.gauge", 2.0, name="x")
        assert reg.value("ompss.tasks_submitted", name="fft_band") == 1.0
        assert reg.value("demo.gauge", name="x") == 2.0

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.count("a.b", 1.0)
        with pytest.raises(ValueError, match="already registered"):
            reg.set_gauge("a.b", 1.0)

    def test_disabled_registry_drops_everything(self):
        reg = MetricsRegistry(enabled=False)
        reg.count("a", 1.0)
        reg.set_gauge("b", 2.0)
        reg.max_gauge("c", 3.0)
        reg.observe("d", 4.0)
        assert reg.families() == []
        assert reg.total("a") == 0.0
        assert reg.value("b") == 0.0

    def test_value_of_missing_series_is_zero(self):
        reg = MetricsRegistry()
        assert reg.value("no.such") == 0.0
        reg.count("exists", 1.0, k="a")
        assert reg.value("exists", k="b") == 0.0

    def test_value_on_histogram_rejected(self):
        reg = MetricsRegistry()
        reg.observe("h", 1.0)
        with pytest.raises(ValueError, match="histogram"):
            reg.value("h")

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.count("mpi.calls", 2.0, call="bcast")
        reg.set_gauge("machine.average_ipc", 0.8)
        reg.observe("mpi.call_seconds", 1e-4, call="bcast")
        snap = reg.snapshot()
        assert set(snap) == {"mpi.calls", "machine.average_ipc", "mpi.call_seconds"}
        assert snap["mpi.calls"]["kind"] == "counter"
        assert snap["mpi.calls"]["series"] == [
            {"labels": {"call": "bcast"}, "value": 2.0}
        ]
        hist = snap["mpi.call_seconds"]["series"][0]
        assert hist["count"] == 1
        assert hist["sum"] == pytest.approx(1e-4)
        assert len(hist["counts"]) == len(hist["buckets"]) + 1

    def test_snapshot_is_json_friendly(self):
        import json

        reg = MetricsRegistry()
        reg.count("x.y", 1.0, a="1")
        reg.observe("z", 0.5)
        json.dumps(reg.snapshot())  # must not raise

    def test_prometheus_format(self):
        reg = MetricsRegistry()
        reg.count("mpi.calls", 3.0, call="alltoall")
        reg.set_gauge("machine.average_ipc", 0.75)
        reg.observe("mpi.call_seconds", 2e-6, call="alltoall")
        text = reg.to_prometheus()
        assert "# TYPE mpi_calls counter" in text
        assert 'mpi_calls{call="alltoall"} 3' in text
        assert "# TYPE machine_average_ipc gauge" in text
        assert "machine_average_ipc 0.75" in text
        assert "# TYPE mpi_call_seconds histogram" in text
        assert 'mpi_call_seconds_bucket{call="alltoall",le="+Inf"} 1' in text
        assert 'mpi_call_seconds_count{call="alltoall"} 1' in text
