"""The POP efficiency model (Rosas/Giménez/Labarta, the paper's ref. [10]).

The one factor model of the repository: :func:`decompose` condenses a run
into the multiplicative decomposition of Tables I/II — and the same
decomposition *per phase* and *per communicator layer* — from per-stream
timelines (the telemetry trace, or the hardware counters of an untraced
run); :func:`factor_rows` adds the scalability factors against a base run
and lays the nine rows out in the paper's table order.

A *stream* is what the analysis treats as a process: an MPI rank in the
original version, an (MPI rank, thread) pair in the task versions — exactly
how the tables compare "1-16 ranks with 8 FFT task groups / 8 OmpSs tasks
each".

Definitions (per stream ``s`` over the measured horizon ``T``):

* ``C(s)`` — useful compute time, ``S(s)`` — MPI synchronization (waiting
  for a partner), ``X(s)`` — MPI transfer (moving bytes);
* **load balance** = ``mean_s C(s) / max_s C(s)``;
* **communication efficiency** = ``max_s C(s) / T``, split multiplicatively
  into **serialization x transfer**.  With a real ideal-network replay time
  the split uses it (the Dimemas what-if, exact in a simulator); without
  one it is estimated trace-side as ``T_ideal ~= max_s (C(s) + S(s))`` —
  on an instantaneous network the transfer share vanishes while dependency
  waits remain;
* **parallel efficiency** = load balance x serialization x transfer
  ``= mean_s C(s) / T`` — the identity holds exactly by construction.

Per phase only the load-balance factor is identified (a phase has no
private network); per communicator layer the sync/transfer split of the
MPI time is reported instead.

Against a base run (the smallest of a sweep): **computation scalability**
= total useful compute time of the base / this run, split into **IPC** and
**instruction scalability**; **global efficiency** = parallel efficiency x
computation scalability.
"""

from __future__ import annotations

import dataclasses
import typing as _t
from repro.telemetry.layers import comm_layer

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.machine.counters import CounterSet
    from repro.telemetry.trace import Trace

__all__ = [
    "StreamTimeline",
    "PhaseEfficiency",
    "CommLayerSplit",
    "PopDecomposition",
    "timelines_from_trace",
    "timelines_from_counters",
    "compute_totals",
    "decompose",
    "factor_rows",
    "FACTOR_KEYS",
]

#: The factors of one run (``PopDecomposition`` attributes and
#: ``analysis.pop`` keys), in table order.
FACTOR_KEYS = (
    "parallel_efficiency",
    "load_balance",
    "communication_efficiency",
    "serialization_efficiency",
    "transfer_efficiency",
)

#: Row labels of the paper's Tables I/II over :data:`FACTOR_KEYS`.
_ROW_LABELS = (
    "Parallel efficiency",
    "-> Load Balance",
    "-> Communication Efficiency",
    "   -> Synchronization",
    "   -> Transfer",
)


@dataclasses.dataclass
class StreamTimeline:
    """One stream's time accounting, aggregated by phase and MPI layer."""

    stream: str
    compute_by_phase: dict[str, float] = dataclasses.field(default_factory=dict)
    mpi_sync_by_layer: dict[str, float] = dataclasses.field(default_factory=dict)
    mpi_transfer_by_layer: dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def compute_time(self) -> float:
        return sum(self.compute_by_phase.values())

    @property
    def mpi_sync(self) -> float:
        return sum(self.mpi_sync_by_layer.values())

    @property
    def mpi_transfer(self) -> float:
        return sum(self.mpi_transfer_by_layer.values())


def timelines_from_trace(trace: "Trace") -> list[StreamTimeline]:
    """Per-stream timelines from a run's record store (compute + MPI)."""
    out: dict[str, StreamTimeline] = {}
    of: dict[_t.Hashable, StreamTimeline] = {}
    for stream in {r.stream for r in trace.compute + trace.mpi}:
        key = repr(stream)
        of[stream] = out.setdefault(key, StreamTimeline(stream=key))
    layer_of = {c: comm_layer(c) for c in {r.comm_name for r in trace.mpi}}

    for r in trace.compute:
        tl = of[r.stream]
        tl.compute_by_phase[r.phase] = (
            tl.compute_by_phase.get(r.phase, 0.0) + r.duration
        )
    for r in trace.mpi:
        tl = of[r.stream]
        layer = layer_of[r.comm_name]  # pack3 -> pack
        tl.mpi_sync_by_layer[layer] = (
            tl.mpi_sync_by_layer.get(layer, 0.0) + r.sync_time
        )
        tl.mpi_transfer_by_layer[layer] = (
            tl.mpi_transfer_by_layer.get(layer, 0.0) + r.transfer_time
        )
    return [out[k] for k in sorted(out)]


def timelines_from_counters(counters: "CounterSet") -> list[StreamTimeline]:
    """Per-stream compute timelines from the hardware counters (no MPI split).

    The counter bank is always populated (telemetry or not), so efficiency
    factors remain computable for untraced runs — only the sync/transfer
    split degrades to the neutral estimate.
    """
    out = []
    for stream in counters.streams:
        tl = StreamTimeline(stream=repr(stream))
        for phase, c in counters.phases(stream).items():
            tl.compute_by_phase[phase] = c.compute_time
        out.append(tl)
    return out


def compute_totals(counters: "CounterSet") -> dict[str, float]:
    """The run-wide compute aggregates the scalability factors compare."""
    return {
        "total_compute_time": counters.total_compute_time(),
        "total_instructions": counters.total_instructions(),
        "average_ipc": counters.average_ipc(),
    }


@dataclasses.dataclass(frozen=True)
class PhaseEfficiency:
    """Load-balance view of one phase across streams."""

    phase: str
    load_balance: float
    time_total_s: float
    time_max_s: float
    time_mean_s: float
    n_streams: int

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class CommLayerSplit:
    """Sync/transfer split of one communicator layer's MPI time."""

    layer: str
    time_s: float
    sync_s: float
    transfer_s: float

    @property
    def sync_fraction(self) -> float:
        return self.sync_s / self.time_s if self.time_s > 0 else 0.0

    def to_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["sync_fraction"] = self.sync_fraction
        return doc


@dataclasses.dataclass
class PopDecomposition:
    """The multiplicative efficiency model of one run, with per-phase detail."""

    makespan_s: float
    n_streams: int
    load_balance: float
    serialization_efficiency: float
    transfer_efficiency: float
    communication_efficiency: float
    parallel_efficiency: float
    #: Ideal-network runtime used for the sync/transfer split: the measured
    #: replay when available, the trace-side estimate otherwise.
    ideal_runtime_s: float
    #: ``"replay"`` (measured ideal network), ``"estimate"`` (from MPI sync
    #: records) or ``"neutral"`` (no MPI data; transfer pinned to 1).
    split_source: str
    phases: list[PhaseEfficiency] = dataclasses.field(default_factory=list)
    comm_layers: list[CommLayerSplit] = dataclasses.field(default_factory=list)

    def factors(self) -> dict:
        """The run-level factors plus the provenance of their split."""
        out = {key: getattr(self, key) for key in FACTOR_KEYS}
        out["split_source"] = self.split_source
        return out

    def to_dict(self) -> dict:
        return {
            "makespan_s": self.makespan_s,
            "n_streams": self.n_streams,
            "load_balance": self.load_balance,
            "serialization_efficiency": self.serialization_efficiency,
            "transfer_efficiency": self.transfer_efficiency,
            "communication_efficiency": self.communication_efficiency,
            "parallel_efficiency": self.parallel_efficiency,
            "ideal_runtime_s": self.ideal_runtime_s,
            "split_source": self.split_source,
            "phases": {p.phase: p.to_dict() for p in self.phases},
            "comm_layers": {c.layer: c.to_dict() for c in self.comm_layers},
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "PopDecomposition":
        phases = [
            PhaseEfficiency(**{k: v for k, v in entry.items()})
            for entry in doc.get("phases", {}).values()
        ]
        layers = [
            CommLayerSplit(
                layer=entry["layer"],
                time_s=entry["time_s"],
                sync_s=entry["sync_s"],
                transfer_s=entry["transfer_s"],
            )
            for entry in doc.get("comm_layers", {}).values()
        ]
        return cls(
            makespan_s=doc["makespan_s"],
            n_streams=doc["n_streams"],
            load_balance=doc["load_balance"],
            serialization_efficiency=doc["serialization_efficiency"],
            transfer_efficiency=doc["transfer_efficiency"],
            communication_efficiency=doc["communication_efficiency"],
            parallel_efficiency=doc["parallel_efficiency"],
            ideal_runtime_s=doc["ideal_runtime_s"],
            split_source=doc.get("split_source", "estimate"),
            phases=sorted(phases, key=lambda p: p.phase),
            comm_layers=sorted(layers, key=lambda c: c.layer),
        )


def decompose(
    timelines: _t.Sequence[StreamTimeline],
    makespan_s: float,
    ideal_time_s: float | None = None,
) -> PopDecomposition:
    """Compute the efficiency decomposition from per-stream timelines.

    ``ideal_time_s`` — runtime of the same configuration on an ideal
    network (the Dimemas replay); when given it identifies the
    serialization/transfer split exactly.  Without it the split is
    estimated from the recorded MPI sync times (see module docstring), or
    left neutral (transfer = 1) when no MPI records exist.
    """
    if not timelines:
        raise ValueError("no stream timelines to decompose")
    if makespan_s <= 0.0:
        raise ValueError(f"makespan must be > 0, got {makespan_s}")

    compute = [tl.compute_time for tl in timelines]
    max_compute = max(compute)
    mean_compute = sum(compute) / len(compute)
    load_balance = mean_compute / max_compute if max_compute > 0 else 1.0
    comm_eff = max_compute / makespan_s
    parallel_eff = load_balance * comm_eff

    has_mpi = any(tl.mpi_sync or tl.mpi_transfer for tl in timelines)
    if ideal_time_s is not None and ideal_time_s > 0:
        split_source = "replay"
        ideal = ideal_time_s
        transfer_eff = min(ideal / makespan_s, 1.0)
        serialization_eff = min(max_compute / ideal, 1.0) if ideal > 0 else 1.0
    elif has_mpi:
        split_source = "estimate"
        busy = max(tl.compute_time + tl.mpi_sync for tl in timelines)
        # Serialization keeps the dependency waits; transfer removal cannot
        # make the run slower than measured or faster than its compute.
        ideal = min(max(busy, max_compute), makespan_s)
        transfer_eff = ideal / makespan_s
        serialization_eff = max_compute / ideal if ideal > 0 else 1.0
    else:
        split_source = "neutral"
        ideal = makespan_s
        transfer_eff = 1.0
        serialization_eff = comm_eff

    phase_names = sorted({p for tl in timelines for p in tl.compute_by_phase})
    phases = []
    for name in phase_names:
        times = [tl.compute_by_phase.get(name, 0.0) for tl in timelines]
        t_max = max(times)
        t_mean = sum(times) / len(times)
        phases.append(
            PhaseEfficiency(
                phase=name,
                load_balance=t_mean / t_max if t_max > 0 else 1.0,
                time_total_s=sum(times),
                time_max_s=t_max,
                time_mean_s=t_mean,
                n_streams=len(times),
            )
        )

    layer_names = sorted(
        {l for tl in timelines for l in tl.mpi_sync_by_layer}
        | {l for tl in timelines for l in tl.mpi_transfer_by_layer}
    )
    layers = []
    for name in layer_names:
        sync = sum(tl.mpi_sync_by_layer.get(name, 0.0) for tl in timelines)
        transfer = sum(tl.mpi_transfer_by_layer.get(name, 0.0) for tl in timelines)
        layers.append(
            CommLayerSplit(
                layer=name,
                time_s=sync + transfer,
                sync_s=sync,
                transfer_s=transfer,
            )
        )

    return PopDecomposition(
        makespan_s=makespan_s,
        n_streams=len(timelines),
        load_balance=load_balance,
        serialization_efficiency=serialization_eff,
        transfer_efficiency=transfer_eff,
        communication_efficiency=comm_eff,
        parallel_efficiency=parallel_eff,
        ideal_runtime_s=ideal,
        split_source=split_source,
        phases=phases,
        comm_layers=layers,
    )


def factor_rows(
    pop: PopDecomposition,
    totals: _t.Mapping[str, float],
    base: _t.Mapping[str, float] | None = None,
) -> dict[str, float]:
    """One column of Table I/II: paper row label -> fraction, in row order.

    ``totals`` / ``base`` are the :func:`compute_totals` of this run and of
    the smallest run of the sweep; ``base`` defaults to the run itself (the
    base column, every scalability 1).
    """
    if base is None:
        base = totals
    total_compute = totals["total_compute_time"]
    total_instr = totals["total_instructions"]
    comp_scal = base["total_compute_time"] / total_compute if total_compute > 0 else 1.0
    ipc_scal = (
        totals["average_ipc"] / base["average_ipc"] if base["average_ipc"] > 0 else 1.0
    )
    instr_scal = base["total_instructions"] / total_instr if total_instr > 0 else 1.0
    rows = {
        label: getattr(pop, key) for label, key in zip(_ROW_LABELS, FACTOR_KEYS)
    }
    rows["Computation Scalability"] = comp_scal
    rows["-> IPC Scalability"] = ipc_scal
    rows["-> Instructions Scalability"] = instr_scal
    rows["Global Efficiency"] = pop.parallel_efficiency * comp_scal
    return rows
