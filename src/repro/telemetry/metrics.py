"""The process-wide metrics registry (counters, gauges, histograms).

A :class:`MetricsRegistry` is the numeric side of the telemetry layer: events
land in named metrics with small label sets, e.g.
``mpi.bytes_sent{call="alltoallw", comm="scatter"}`` — per event from the OmpSs
runtime and the FFT plan cache, and once per attempt for the families
:meth:`~repro.telemetry.Telemetry.fold_records` derives from trace records
(simulated MPI, the machine model, completed tasks).  The registry is
deliberately tiny and dependency free; its one dump,
:meth:`MetricsRegistry.snapshot`, is a plain nested dict for the run
manifest (JSON-friendly).

Overhead discipline: instrumented call sites hold a reference to the current
:class:`~repro.telemetry.Telemetry` and guard on its ``enabled`` flag, so a
disabled run pays one attribute check per event and nothing else.  The
registry itself also carries ``enabled`` so stray updates on a disabled
session are dropped rather than accumulated.
"""

from __future__ import annotations

import bisect
import typing as _t

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]

#: Default histogram buckets: log-spaced seconds covering simulated phase and
#: call durations (1 us .. 10 s) plus the +Inf catch-all.
DEFAULT_BUCKETS: tuple[float, ...] = (
    1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3,
    1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0, 10.0,
)

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, _t.Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing value for one (name, labels) series."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount


class Gauge:
    """Last-written value for one (name, labels) series."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def set_max(self, value: float) -> None:
        """Keep the running maximum (high-watermark gauges)."""
        if value > self.value:
            self.value = float(value)


class Histogram:
    """Bucketed distribution for one (name, labels) series."""

    __slots__ = ("buckets", "counts", "total", "sum")

    def __init__(self, buckets: _t.Sequence[float] = DEFAULT_BUCKETS):
        self.buckets = tuple(buckets)
        if list(self.buckets) != sorted(self.buckets):
            raise ValueError("histogram buckets must be sorted ascending")
        self.counts = [0] * (len(self.buckets) + 1)  # last slot = +Inf
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.total += 1
        self.sum += value


class _Family:
    """All series of one metric name (shared kind)."""

    __slots__ = ("name", "kind", "series", "buckets", "memo")

    def __init__(self, name: str, kind: str, buckets: _t.Sequence[float]):
        self.name = name
        self.kind = kind
        self.series: dict[LabelKey, _t.Any] = {}
        self.buckets = tuple(buckets)
        #: ``tuple(labels.items())`` as a call site passed them -> series, so
        #: the sort + ``str()`` of :func:`_label_key` runs once per series
        #: and call-site spelling, not once per update.
        self.memo: dict[tuple, _t.Any] = {}

    def resolve(self, labels: dict[str, _t.Any]) -> _t.Any:
        """Get or create the series for ``labels``."""
        raw = tuple(labels.items())
        try:
            series = self.memo.get(raw)
        except TypeError:  # unhashable label value: resolved every time
            raw = series = None
        if series is None:
            key = _label_key(labels)
            series = self.series.get(key)
            if series is None:
                series = self.series[key] = (
                    Histogram(self.buckets)
                    if self.kind == "histogram"
                    else (Counter() if self.kind == "counter" else Gauge())
                )
            if raw is not None:
                self.memo[raw] = series
        return series


class MetricsRegistry:
    """Named metric families with labelled series.

    Metric names are dotted (``mpi.bytes_sent``).
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._families: dict[str, _Family] = {}

    # -- series access -------------------------------------------------------

    def _family(self, name: str, kind: str, buckets: _t.Sequence[float]) -> _Family:
        fam = self._families.get(name)
        if fam is None:
            fam = _Family(name, kind, buckets)
            self._families[name] = fam
        elif fam.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {fam.kind}, not {kind}"
            )
        return fam

    def counter(self, name: str, /, **labels: _t.Any) -> Counter:
        """Get or create the counter series for ``name{labels}``."""
        return self._family(name, "counter", ()).resolve(labels)

    def gauge(self, name: str, /, **labels: _t.Any) -> Gauge:
        """Get or create the gauge series for ``name{labels}``."""
        return self._family(name, "gauge", ()).resolve(labels)

    def histogram(
        self,
        name: str,
        buckets: _t.Sequence[float] = DEFAULT_BUCKETS,
        /,
        **labels: _t.Any,
    ) -> Histogram:
        """Get or create the histogram series for ``name{labels}``."""
        return self._family(name, "histogram", buckets).resolve(labels)

    # -- one-shot conveniences (the instrumented call sites use these) -------

    def count(self, name: str, amount: float = 1.0, /, **labels: _t.Any) -> None:
        """Increment a counter (no-op when the registry is disabled)."""
        if self.enabled:
            self.counter(name, **labels).inc(amount)

    def set_gauge(self, name: str, value: float, /, **labels: _t.Any) -> None:
        """Set a gauge (no-op when the registry is disabled)."""
        if self.enabled:
            self.gauge(name, **labels).set(value)

    def max_gauge(self, name: str, value: float, /, **labels: _t.Any) -> None:
        """Raise a high-watermark gauge (no-op when disabled)."""
        if self.enabled:
            self.gauge(name, **labels).set_max(value)

    def observe(self, name: str, value: float, /, **labels: _t.Any) -> None:
        """Observe into a histogram (no-op when the registry is disabled)."""
        if self.enabled:
            self.histogram(name, **labels).observe(value)

    # -- dump ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-friendly dump: ``{name: {kind, series: [{labels, ...}]}}``."""
        out: dict = {}
        for name in sorted(self._families):
            fam = self._families[name]
            series = []
            for key in sorted(fam.series):
                s = fam.series[key]
                entry: dict[str, _t.Any] = {"labels": dict(key)}
                if fam.kind == "histogram":
                    entry.update(
                        count=s.total,
                        sum=s.sum,
                        buckets=list(fam.buckets),
                        counts=list(s.counts),
                    )
                else:
                    entry["value"] = s.value
                series.append(entry)
            out[name] = {"kind": fam.kind, "series": series}
        return out

    # -- queries (tests and reports) ----------------------------------------

    def value(self, name: str, /, **labels: _t.Any) -> float:
        """Value of one counter/gauge series (0.0 if absent)."""
        fam = self._families.get(name)
        if fam is None:
            return 0.0
        series = fam.series.get(_label_key(labels))
        if series is None:
            return 0.0
        if isinstance(series, Histogram):
            raise ValueError(f"{name!r} is a histogram; use series()")
        return series.value

    def total(self, name: str) -> float:
        """Sum of a counter family's series over all label sets."""
        fam = self._families.get(name)
        if fam is None:
            return 0.0
        return sum(s.value for s in fam.series.values())

    def families(self) -> list[str]:
        """All registered metric names, sorted."""
        return sorted(self._families)
