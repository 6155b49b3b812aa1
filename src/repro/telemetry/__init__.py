"""Unified telemetry: metrics, spans, traces, trace writers and run manifests.

The paper's contribution rests on observability — Extrae traces, Paraver
timelines and the POP model are how Wagner et al. diagnose the IPC collapse
and prove the OmpSs fix.  This package is the reproduction's equivalent
substrate, shared by every subsystem:

* :mod:`~repro.telemetry.metrics` — a process-wide registry of counters,
  gauges and histograms with labels (``mpi.bytes_sent{call,comm}``,
  ``ompss.task_queue_depth``, ``fft.plan_cache_hits``, ...);
* :mod:`~repro.telemetry.spans` — hierarchical spans over the simulated
  clock (run -> executor -> iteration; tasks and phases come from records);
* :mod:`~repro.telemetry.trace` — the raw compute/MPI/task record store
  (:class:`Trace`), the run's one recorder;
* :mod:`~repro.telemetry.chrometrace` — Perfetto/Chrome-trace JSON export
  with one track per hardware thread and MPI flow events;
* :mod:`~repro.telemetry.paraver` — Paraver-style ``.prv`` (+ ``.pcf``,
  ``.row``) writer and reader;
* :mod:`~repro.telemetry.manifest` — the per-run JSON artifact (config,
  calibration, metrics, POP factors, timings) and its schema validation.

``repro run --manifest/--chrome/--prv`` calls these writers directly.

Sessions
--------
Instrumented call sites read the *current* :class:`Telemetry` via
:func:`current` and guard on ``.enabled`` — a disabled session (the process
default) costs one attribute check per event.  The driver installs an
enabled session for the duration of a run when asked
(``RunConfig(telemetry=True)`` or ``run_fft_phase(..., telemetry=...)``),
and a run asked for neither adopts the current session if it is enabled::

    from repro import telemetry
    with telemetry.session() as tel:
        result = run_fft_phase(config)
    tel.metrics.total("mpi.bytes_sent")

Compute-phase and MPI completions only append records to the trace; the
families derived from records (``machine.compute_seconds``, ``mpi.*``,
``ompss.tasks_completed``, ...) are built by :meth:`Telemetry.fold_records`,
which the driver calls at the end of every attempt.
"""

from __future__ import annotations

import contextlib
import threading
import typing as _t

from repro.telemetry.layers import comm_layer, task_kind
from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.spans import Span, SpanLog
from repro.telemetry.trace import Trace

__all__ = [
    "Telemetry",
    "current",
    "install",
    "session",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Span",
    "SpanLog",
    "Trace",
]


class Telemetry:
    """One telemetry session: a metrics registry, a span log and a trace.

    ``enabled=False`` builds the inert variant every hot path checks; all of
    its stores refuse writes, so a disabled session stays empty even if a
    call site forgets its own guard.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.metrics = MetricsRegistry(enabled=enabled)
        self.spans = SpanLog(enabled=enabled)
        self.trace = Trace()
        #: ``(sim_time, rank, depth)`` task-queue samples from the OmpSs
        #: runtime — the Chrome-trace counter track's data and the source of
        #: the queue-depth gauges.
        self.queue_samples: list[tuple[float, int, int]] = []
        #: ``(rank, pred_tid, succ_tid)`` dependency edges exported by the
        #: OmpSs task graph — the substrate of the analysis layer's
        #: task-graph critical path (tids are rank-local).
        self.task_edges: list[tuple[int, int, int]] = []
        #: The run's :class:`repro.analysis.RunAnalysis`, stashed by the
        #: driver at finalization (``None`` until then).
        self.analysis = None
        #: Compute, MPI, task and queue-sample counts already folded into
        #: the metric families by :meth:`fold_records`.
        self._folded = (0, 0, 0, 0)

    def span(
        self,
        track: _t.Hashable,
        name: str,
        category: str,
        clock: _t.Callable[[], float],
        **args: _t.Any,
    ):
        """Shorthand for :meth:`SpanLog.span` on this session's log."""
        return self.spans.span(track, name, category, clock, **args)

    def fold_records(self) -> None:
        """Fold the records added since the last fold into their metric families.

        ``machine.compute_seconds``/``instructions``/``phase_seconds`` come
        from compute records, ``mpi.*`` from MPI records,
        ``ompss.tasks_completed``/``task_seconds`` from task records and the
        ``ompss.task_queue_depth[_max]`` gauges from the queue samples.
        The driver folds once per attempt; each series is resolved once per
        label set and takes the records' values one by one through
        :meth:`Counter.inc` in completion order (never ``sum()``, which
        compensates on Python 3.12+), so every float is bit-equal to updating
        per event.
        """
        if not self.enabled:
            return
        trace, metrics = self.trace, self.metrics
        c0, m0, t0, q0 = self._folded
        self._folded = (
            len(trace.compute), len(trace.mpi), len(trace.tasks), len(self.queue_samples)
        )

        compute = trace.compute[c0:]
        by_phase = dict.fromkeys([r.phase for r in compute])
        for phase in by_phase:
            by_phase[phase] = (
                metrics.counter("machine.compute_seconds", phase=phase),
                metrics.counter("machine.instructions", phase=phase),
                metrics.histogram("machine.phase_seconds", phase=phase),
            )
        for r in compute:
            seconds, instructions, histogram = by_phase[r.phase]
            duration = r.end - r.start
            seconds.inc(duration)
            instructions.inc(r.instructions)
            histogram.observe(duration)

        mpi = trace.mpi[m0:]
        by_comm = dict.fromkeys([(r.call, r.comm_name) for r in mpi])
        for call, comm_name in by_comm:
            labels = {"call": call, "comm": comm_layer(comm_name)}
            by_comm[call, comm_name] = (
                metrics.counter("mpi.calls", **labels),
                metrics.counter("mpi.bytes_sent", **labels),
                metrics.counter("mpi.time_seconds", **labels),
                metrics.counter("mpi.sync_seconds", **labels),
                metrics.histogram("mpi.call_seconds", call=call),
            )
        for r in mpi:
            calls, sent, seconds, sync, histogram = by_comm[r.call, r.comm_name]
            duration = r.t_end - r.t_begin
            calls.inc()
            sent.inc(r.bytes_sent)
            seconds.inc(duration)
            sync.inc(r.sync_time)
            histogram.observe(duration)

        tasks = trace.tasks[t0:]
        by_name = dict.fromkeys([r.name for _rank, r in tasks])
        for name in by_name:
            kind = task_kind(name)
            by_name[name] = (
                metrics.counter("ompss.tasks_completed", name=kind),
                metrics.histogram("ompss.task_seconds", name=kind),
            )
        for _rank, r in tasks:
            completed, histogram = by_name[r.name]
            completed.inc()
            histogram.observe(r.duration)

        last: dict = {}
        peak: dict = {}
        for _now, rank, depth in self.queue_samples[q0:]:
            last[rank] = depth
            if depth > peak.get(rank, 0):
                peak[rank] = depth
        for rank, depth in last.items():
            metrics.gauge("ompss.task_queue_depth", rank=rank).set(depth)
            metrics.gauge("ompss.task_queue_depth_max", rank=rank).set_max(
                peak.get(rank, 0)
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "enabled" if self.enabled else "disabled"
        return (
            f"<Telemetry {state}: {len(self.metrics.families())} metric families, "
            f"{len(self.spans)} spans, {len(self.trace.compute)} compute records>"
        )


#: The inert default session; shared, never written to.
_DISABLED = Telemetry(enabled=False)


class _CurrentSession(threading.local):
    """Per-thread session slot (class attribute is the per-thread default).

    Thread-local so concurrent in-process runs — the sweep engine's thread
    mode — each see only their own session instead of trampling a shared
    global.
    """

    value: Telemetry = _DISABLED


_current = _CurrentSession()


def current() -> Telemetry:
    """The active session (the disabled singleton unless one is installed)."""
    return _current.value


def install(telemetry: Telemetry | None) -> Telemetry:
    """Install ``telemetry`` as this thread's session; returns the previous one.

    Passing ``None`` restores the disabled default.  Prefer :func:`session`
    where lexical scoping fits.
    """
    previous = _current.value
    _current.value = telemetry if telemetry is not None else _DISABLED
    return previous


@contextlib.contextmanager
def session(telemetry: Telemetry | None = None) -> _t.Iterator[Telemetry]:
    """Install a (fresh, enabled) session for the duration of a block."""
    tel = telemetry if telemetry is not None else Telemetry(enabled=True)
    previous = install(tel)
    try:
        yield tel
    finally:
        install(previous)
