"""Automated regression triage: from "it got slower" to "here is why".

:func:`triage_pair` consumes two run manifests (baseline A, candidate B)
and produces a :class:`TriageReport` — a ranked list of
:class:`TriageFinding` rows naming what moved: the phase, the efficiency
factor, the MPI layer, the engine counter.  It is the one A/B path:
``analyze A B``, ``perf diff`` and ``compare`` print it, and ``perf check``
gates on it (:meth:`TriageReport.regressions`).  The report serializes to
JSON and renders to text via :mod:`repro.analysis.render`.

Findings are heuristic rankings over exact data — every number in a
finding comes straight from the manifests; only the ordering ("dominant")
is judgment, by absolute seconds moved (phases/MPI) and absolute factor
drop (efficiencies).
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.analysis import FACTOR_KEYS

__all__ = ["TriageFinding", "TriageReport", "triage_pair"]

#: Finding kinds, in severity/report order.
KIND_RUNTIME = "runtime"
KIND_PHASE = "phase"
KIND_FACTOR = "efficiency_factor"
KIND_MPI = "mpi_layer"
KIND_COUNTER = "counter"


@dataclasses.dataclass(frozen=True)
class TriageFinding:
    """One attributed change between baseline and candidate."""

    kind: str  # runtime | phase | efficiency_factor | mpi_layer | counter
    subject: str  # phase name, factor name, layer, counter path
    value_a: float
    value_b: float
    delta: float  # B - A, in the subject's unit
    relative: float  # (B - A) / A, or inf when A == 0
    severity: float  # ranking key within the report (unitless)
    detail: str

    def to_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        if self.relative == float("inf"):
            doc["relative"] = None
        return doc


@dataclasses.dataclass
class TriageReport:
    """The structured blame report of one A/B comparison."""

    label_a: str
    label_b: str
    verdict: str  # "regression" | "improvement" | "neutral"
    runtime_a_s: float
    runtime_b_s: float
    runtime_relative: float
    threshold: float
    findings: list[TriageFinding]

    def regressions(self) -> list[str]:
        """The ``perf check`` gate: one line per violation, empty to pass.

        Flags the phase runtime and each phase's compute time (in name
        order; a phase new in B is no regression) that grew by more than
        :attr:`threshold`.
        """
        violations = []
        if self.runtime_relative > self.threshold:
            violations.append(
                f"phase runtime regressed {self.runtime_relative * 100:+.1f}% "
                f"({self.runtime_a_s * 1e3:.3f} ms -> {self.runtime_b_s * 1e3:.3f} ms), "
                f"threshold {self.threshold * 100:.1f}%"
            )
        phases = sorted(
            (f for f in self.findings if f.kind == KIND_PHASE),
            key=lambda f: f.subject,
        )
        for f in phases:
            if f.value_a > 0 and f.relative > self.threshold:
                violations.append(
                    f"phase {f.subject!r} compute time regressed "
                    f"{f.relative * 100:+.1f}% "
                    f"({f.value_a * 1e3:.3f} ms -> {f.value_b * 1e3:.3f} ms)"
                )
        return violations

    @property
    def dominant(self) -> TriageFinding | None:
        """The highest-severity finding other than the runtime headline."""
        for f in self.findings:
            if f.kind != KIND_RUNTIME:
                return f
        return None

    @property
    def dominant_phase(self) -> str | None:
        for f in self.findings:
            if f.kind == KIND_PHASE:
                return f.subject
        return None

    @property
    def dominant_factor(self) -> str | None:
        for f in self.findings:
            if f.kind == KIND_FACTOR:
                return f.subject
        return None

    def to_dict(self) -> dict:
        return {
            "label_a": self.label_a,
            "label_b": self.label_b,
            "verdict": self.verdict,
            "runtime_a_s": self.runtime_a_s,
            "runtime_b_s": self.runtime_b_s,
            "runtime_relative": (
                self.runtime_relative
                if self.runtime_relative != float("inf")
                else None
            ),
            "threshold": self.threshold,
            "dominant_phase": self.dominant_phase,
            "dominant_factor": self.dominant_factor,
            "findings": [f.to_dict() for f in self.findings],
        }


def _relative(a: float, b: float) -> float:
    if a == 0.0:
        return float("inf") if b != 0.0 else 0.0
    return (b - a) / a


def _time_relative(a: float, b: float) -> float:
    """Relative time change ``b / a - 1`` (negative = faster; inf when new).

    The runtime and phase rows use this form and the other rows
    :func:`_relative`: the two can differ in the last bit, which the JSON
    report and ``perf check``'s lines show.
    """
    if a <= 0:
        return float("inf") if b > 0 else 0.0
    return b / a - 1.0


def _pop(manifest: dict) -> dict:
    """The factor dict of a manifest: ``analysis.pop``; the top-level ``pop``
    only as the reader of manifests written before that section went."""
    pop = (manifest.get("analysis") or {}).get("pop")
    if isinstance(pop, dict):
        return pop
    return manifest.get("pop") or {}


def _phases(manifest: dict) -> dict[str, tuple[float, float]]:
    """Phase name -> (compute seconds, IPC)."""
    return {
        name: (float(entry.get("time_s", 0.0)), float(entry.get("ipc", 0.0)))
        for name, entry in manifest.get("phases", {}).items()
        if isinstance(entry, dict)
    }


def _mpi(manifest: dict) -> dict[str, float]:
    """MPI layer -> seconds."""
    return {
        layer: float(entry.get("time_s", 0.0))
        for layer, entry in manifest.get("mpi", {}).items()
    }


#: Engine/dataplane counters worth naming in a blame report (paths into the
#: manifest; deltas are reported raw, severity is relative).
_COUNTERS = (
    ("engine.cpu.rebalances", "cpu rebalances"),
    ("engine.cpu.events", "cpu engine events"),
    ("engine.network.rebalances", "network rebalances"),
    ("engine.network.events", "network engine events"),
    ("dataplane.alloc_misses", "arena allocation misses"),
    ("dataplane.bytes_resident", "arena bytes resident"),
)


def _lookup(doc: dict, dotted: str) -> float | None:
    node: _t.Any = doc
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return float(node) if isinstance(node, (int, float)) else None


def triage_pair(
    baseline: dict, candidate: dict, threshold: float = 0.02
) -> TriageReport:
    """Build the blame report for ``candidate`` vs ``baseline``.

    ``threshold`` is the relative runtime change below which the verdict is
    ``"neutral"`` and findings are informational only.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    time_a = float(baseline["timing"]["phase_time_s"])
    time_b = float(candidate["timing"]["phase_time_s"])
    rel = _time_relative(time_a, time_b)
    if rel > threshold:
        verdict = "regression"
    elif rel < -threshold:
        verdict = "improvement"
    else:
        verdict = "neutral"

    findings: list[TriageFinding] = []
    runtime_delta = time_b - time_a
    findings.append(
        TriageFinding(
            kind=KIND_RUNTIME,
            subject="phase_runtime",
            value_a=time_a,
            value_b=time_b,
            delta=runtime_delta,
            relative=rel,
            severity=abs(runtime_delta),
            detail=(
                f"simulated phase runtime {time_a * 1e3:.3f} ms -> "
                f"{time_b * 1e3:.3f} ms"
            ),
        )
    )

    # Phases: ranked by absolute seconds moved (the same direction as the
    # runtime change ranks above opposite movers at equal magnitude).
    direction = 1.0 if runtime_delta >= 0 else -1.0
    phases_a, phases_b = _phases(baseline), _phases(candidate)
    for name in sorted(set(phases_a) | set(phases_b)):
        ta, ipc_a = phases_a.get(name, (0.0, 0.0))
        tb, ipc_b = phases_b.get(name, (0.0, 0.0))
        delta = tb - ta
        if delta == 0.0:
            continue
        findings.append(
            TriageFinding(
                kind=KIND_PHASE,
                subject=name,
                value_a=ta,
                value_b=tb,
                delta=delta,
                relative=_time_relative(ta, tb),
                severity=abs(delta) * (1.0 if delta * direction > 0 else 0.5),
                detail=(
                    f"compute time {ta * 1e3:.3f} ms -> {tb * 1e3:.3f} ms; "
                    f"IPC {ipc_a:.3f} -> {ipc_b:.3f}"
                ),
            )
        )

    # Efficiency factors: severity scales the factor drop into runtime terms.
    pop_a, pop_b = _pop(baseline), _pop(candidate)
    for name in FACTOR_KEYS:
        a, b = pop_a.get(name), pop_b.get(name)
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            continue
        delta = float(b) - float(a)
        if abs(delta) < 1e-12:
            continue
        findings.append(
            TriageFinding(
                kind=KIND_FACTOR,
                subject=name,
                value_a=float(a),
                value_b=float(b),
                delta=delta,
                relative=_relative(float(a), float(b)),
                # A factor drop of d explains ~d x runtime; weight against
                # the baseline runtime so factors and phases rank together.
                severity=abs(delta) * time_a
                * (1.0 if -delta * direction > 0 else 0.5),
                detail=f"{name.replace('_', ' ')} {a:.4f} -> {b:.4f}",
            )
        )

    mpi_a, mpi_b = _mpi(baseline), _mpi(candidate)
    for layer in sorted(set(mpi_a) | set(mpi_b)):
        a = mpi_a.get(layer, 0.0)
        b = mpi_b.get(layer, 0.0)
        delta = b - a
        if delta == 0.0:
            continue
        findings.append(
            TriageFinding(
                kind=KIND_MPI,
                subject=layer,
                value_a=a,
                value_b=b,
                delta=delta,
                relative=_relative(a, b),
                severity=abs(delta) * (1.0 if delta * direction > 0 else 0.5),
                detail=f"MPI {layer} time {a * 1e3:.3f} ms -> {b * 1e3:.3f} ms",
            )
        )

    # Counters rank by relative movement, scaled well below time findings —
    # they explain, they do not headline.
    counter_scale = max(abs(runtime_delta), time_a * threshold, 1e-12)
    for dotted, label in _COUNTERS:
        a = _lookup(baseline, dotted)
        b = _lookup(candidate, dotted)
        if a is None or b is None or a == b:
            continue
        findings.append(
            TriageFinding(
                kind=KIND_COUNTER,
                subject=dotted,
                value_a=a,
                value_b=b,
                delta=b - a,
                relative=_relative(a, b),
                severity=min(abs(_relative(a, b)), 1.0) * counter_scale * 0.25,
                detail=f"{label} {a:.0f} -> {b:.0f}",
            )
        )

    findings.sort(key=lambda f: (-f.severity, f.kind, f.subject))
    return TriageReport(
        label_a=baseline["config"]["label"],
        label_b=candidate["config"]["label"],
        verdict=verdict,
        runtime_a_s=time_a,
        runtime_b_s=time_b,
        runtime_relative=rel,
        threshold=threshold,
        findings=findings,
    )
