"""The sweep executor: grid points -> concurrent runs -> one manifest.

The paper's artifacts are all sweeps — the same simulated pipeline executed
over ranks x version x ntg x hyper-threading grids — and every point is an
independent, deterministic simulation.  :func:`run_sweep` exploits that:

* points execute on a ``concurrent.futures`` pool (processes by default,
  threads or in-process serial as fallbacks),
* each worker reduces its :class:`~repro.core.driver.RunResult` *in
  process* to a JSON-safe summary dict (results hold live generators and an
  entire simulated world — they never cross the process boundary),
* expensive shared setup (G-vector sphere, stick maps, FFT plans) is cached
  per worker keyed by the workload parameters
  (:func:`repro.core.driver.build_geometry`), so a grid builds its geometry
  once per worker instead of once per point,
* finished points stream into a sweep manifest
  (:mod:`repro.sweep.manifest`) so an interrupted sweep resumes with
  ``resume=`` skipping the points already on disk.

Determinism contract: results are assembled in *task order*, each point's
simulation is seeded and wall-clock free, and reducers run in the worker
that simulated the point — so a sweep at ``--jobs 8`` is byte-identical,
point for point, to the same sweep at ``--jobs 1``.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import importlib
import json
import pathlib
import time
import typing as _t

from repro.core.config import RunConfig
from repro.core.driver import RunResult, run_fft_phase, trace_run
from repro.machine.knl import KnlParameters, whatif_machine

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry import Trace
    from repro.sweep.grid import GridSpec

__all__ = [
    "SweepTask",
    "PointRecord",
    "SweepResult",
    "SweepError",
    "run_sweep",
    "canonical_json",
    "digest_summary",
]

#: Execution modes for the worker pool.
MODES = ("process", "thread", "serial")


class SweepError(RuntimeError):
    """A sweep point failed to execute; the message names the point."""


# -- reducers ------------------------------------------------------------------
#
# A reducer turns (task, result, ideal_result, trace) into the JSON-safe
# summary stored for its point.  Tasks reference reducers *by name* — either
# a builtin alias or a "module:function" path — so a task pickles by value
# under any pool start method and the manifest records which reduction
# produced each summary.


def reduce_summary(
    task: "SweepTask",
    result: RunResult,
    ideal: RunResult | None,
    trace: "Trace | None",
) -> dict:
    """Default reduction: the full stable run manifest of the point.

    ``wall_time_s`` stays unset and ``created`` is pinned, exactly like the
    CLI's ``--stable-manifest`` — two executions of the same seeded point
    produce byte-identical summaries regardless of host or worker count.
    """
    from repro.telemetry.manifest import build_manifest

    return build_manifest(
        result,
        wall_time_s=None,
        ideal_time_s=ideal.phase_time if ideal is not None else None,
        created="(stable)",
    )


_BUILTIN_REDUCERS: dict[str, _t.Callable] = {
    "summary": reduce_summary,
}


def _resolve_reducer(name: str) -> _t.Callable:
    if name in _BUILTIN_REDUCERS:
        return _BUILTIN_REDUCERS[name]
    if ":" in name:
        module_name, _, attr = name.partition(":")
        try:
            fn = getattr(importlib.import_module(module_name), attr)
        except (ImportError, AttributeError) as exc:
            raise SweepError(f"cannot resolve reducer {name!r}: {exc}") from exc
        if not callable(fn):
            raise SweepError(f"reducer {name!r} is not callable")
        return fn
    raise SweepError(
        f"unknown reducer {name!r}; use a builtin ({sorted(_BUILTIN_REDUCERS)}) "
        f"or a 'module:function' path"
    )


# -- tasks and records ---------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SweepTask:
    """One unit of sweep work: a config plus how to run and reduce it.

    ``ideal_replay`` additionally runs the configuration on the ideal
    network (the POP transfer-split replay); ``trace`` runs it through
    :func:`~repro.core.driver.trace_run` and hands the reducer its trace.
    Both feed the reducer, which must be named by ``reducer`` (builtin alias
    or ``module:function``).
    """

    key: str
    config: RunConfig
    knl: KnlParameters | None = None
    reducer: str = "summary"
    ideal_replay: bool = False
    trace: bool = False


@dataclasses.dataclass
class PointRecord:
    """The stored outcome of one executed (or resumed) point."""

    key: str
    summary: dict
    digest: str
    phase_time_s: float
    failed: bool
    reused: bool = False

    def to_manifest_entry(self) -> dict:
        return {
            "digest": self.digest,
            "phase_time_s": self.phase_time_s,
            "failed": self.failed,
            "summary": self.summary,
        }


@dataclasses.dataclass
class SweepResult:
    """All point records of a sweep, in task order."""

    records: list[PointRecord]
    jobs: int
    mode: str
    wall_time_s: float

    @property
    def computed_keys(self) -> list[str]:
        return [r.key for r in self.records if not r.reused]

    @property
    def reused_keys(self) -> list[str]:
        return [r.key for r in self.records if r.reused]

    def summaries(self) -> dict[str, dict]:
        """Point key -> reduced summary, in task order."""
        return {r.key: r.summary for r in self.records}

    def __getitem__(self, key: str) -> PointRecord:
        for r in self.records:
            if r.key == key:
                return r
        raise KeyError(key)


# -- canonical JSON and digests ------------------------------------------------


def _jsonify(value: _t.Any) -> _t.Any:
    """Reduce numpy scalars/arrays and tuples to plain JSON types."""
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "tolist"):  # numpy array or scalar
        return _jsonify(value.tolist())
    if hasattr(value, "item"):
        return value.item()
    raise TypeError(f"summary value {value!r} is not JSON-serializable")


def canonical_json(doc: _t.Any) -> str:
    """The byte-stable serialization digests and identity checks use."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def digest_summary(summary: dict) -> str:
    """Content digest of one point's summary (sha256 over canonical JSON)."""
    return "sha256:" + hashlib.sha256(canonical_json(summary).encode()).hexdigest()


# -- execution -----------------------------------------------------------------


def _execute_task(task: SweepTask) -> dict:
    """Worker body: simulate one point and reduce it to a record dict.

    Runs inside the pool worker (or inline for serial/thread modes); only
    the JSON-safe record crosses back to the parent.
    """
    reducer = _resolve_reducer(task.reducer)
    trace = None
    if task.trace:
        result, trace = trace_run(task.config, knl=task.knl)
    else:
        result = run_fft_phase(task.config, knl=task.knl)
    ideal = None
    if task.ideal_replay:
        ideal_config = (
            dataclasses.replace(task.config, telemetry=False)
            if task.config.telemetry
            else task.config
        )
        ideal = run_fft_phase(
            ideal_config, knl=whatif_machine("ideal_network", task.knl)
        )
    summary = _jsonify(reducer(task, result, ideal, trace))
    return {
        "key": task.key,
        "summary": summary,
        "digest": digest_summary(summary),
        "phase_time_s": float(result.phase_time),
        "failed": bool(result.failed),
    }


def _record_from_resume(key: str, entry: dict) -> PointRecord:
    return PointRecord(
        key=key,
        summary=entry["summary"],
        digest=entry["digest"],
        phase_time_s=entry["phase_time_s"],
        failed=entry.get("failed", False),
        reused=True,
    )


def run_sweep(
    tasks: _t.Sequence[SweepTask],
    jobs: int = 1,
    mode: str | None = None,
    resume: dict | None = None,
    out: str | pathlib.Path | None = None,
    grid: "GridSpec | dict | None" = None,
    stable: bool = False,
    on_point: _t.Callable[[PointRecord], None] | None = None,
) -> SweepResult:
    """Execute ``tasks`` and return their records in task order.

    Parameters
    ----------
    jobs:
        Concurrent workers.  ``1`` executes in-process (no pool).
    mode:
        ``"process"`` (default for ``jobs > 1``), ``"thread"`` or
        ``"serial"``.  Processes give real parallelism; threads are the
        fallback where fork is unavailable; serial is the reference path.
    resume:
        A previously written sweep manifest (the loaded dict).  Tasks whose
        key has a record there are not re-executed; their stored record is
        reused verbatim.
    out:
        Path to stream the sweep manifest to.  The file is rewritten after
        every finished point, so an interrupted sweep leaves a loadable
        partial manifest behind for ``resume``.
    grid:
        Optional grid description embedded in the manifest
        (:class:`~repro.sweep.grid.GridSpec` or an equivalent dict).
    stable:
        Omit wall-clock fields from the streamed manifest (the sweep
        analogue of ``--stable-manifest``).
    on_point:
        Callback invoked with each finished :class:`PointRecord`, in
        completion order (progress reporting).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if mode is None:
        mode = "process" if jobs > 1 else "serial"
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    keys = [t.key for t in tasks]
    dupes = {k for k in keys if keys.count(k) > 1}
    if dupes:
        raise ValueError(f"duplicate sweep point keys: {sorted(dupes)}")

    resume_entries: dict[str, dict] = {}
    if resume is not None:
        resume_entries = dict(resume.get("points", {}))

    t0 = time.perf_counter()
    records: list[PointRecord | None] = [None] * len(tasks)
    pending: list[tuple[int, SweepTask]] = []
    for i, task in enumerate(tasks):
        if task.key in resume_entries:
            records[i] = _record_from_resume(task.key, resume_entries[task.key])
        else:
            pending.append((i, task))

    def _emit(record: PointRecord) -> None:
        if out is not None:
            _stream_manifest(
                out, tasks, records, grid, jobs, mode,
                None if stable else time.perf_counter() - t0, stable,
            )
        if on_point is not None:
            on_point(record)

    for record in records:
        if record is not None:
            _emit(record)

    if pending:
        n_workers = min(jobs, len(pending))
        if mode == "serial" or n_workers == 1:
            for i, task in pending:
                records[i] = _run_one(task)
                _emit(records[i])
        else:
            pool_cls = (
                concurrent.futures.ProcessPoolExecutor
                if mode == "process"
                else concurrent.futures.ThreadPoolExecutor
            )
            with pool_cls(max_workers=n_workers) as pool:
                futures = {pool.submit(_execute_task, task): i for i, task in pending}
                for future in concurrent.futures.as_completed(futures):
                    i = futures[future]
                    try:
                        doc = future.result()
                    except SweepError:
                        raise
                    except Exception as exc:
                        raise SweepError(
                            f"sweep point {tasks[i].key!r} failed: "
                            f"{type(exc).__name__}: {exc}"
                        ) from exc
                    records[i] = PointRecord(reused=False, **doc)
                    _emit(records[i])

    wall = time.perf_counter() - t0
    done = _t.cast("list[PointRecord]", records)
    result = SweepResult(records=done, jobs=jobs, mode=mode, wall_time_s=wall)
    if out is not None:
        _stream_manifest(
            out, tasks, records, grid, jobs, mode, None if stable else wall, stable
        )
    return result


def _run_one(task: SweepTask) -> PointRecord:
    try:
        doc = _execute_task(task)
    except SweepError:
        raise
    except Exception as exc:
        raise SweepError(
            f"sweep point {task.key!r} failed: {type(exc).__name__}: {exc}"
        ) from exc
    return PointRecord(reused=False, **doc)


def _stream_manifest(
    out: str | pathlib.Path,
    tasks: _t.Sequence[SweepTask],
    records: _t.Sequence[PointRecord | None],
    grid: "GridSpec | dict | None",
    jobs: int,
    mode: str,
    wall_time_s: float | None,
    stable: bool,
) -> None:
    from repro.sweep.manifest import build_sweep_manifest, write_sweep_manifest

    finished = [r for r in records if r is not None]
    manifest = build_sweep_manifest(
        finished,
        grid=grid,
        jobs=jobs,
        mode=mode,
        wall_time_s=wall_time_s,
        n_tasks=len(tasks),
        created="(stable)" if stable else None,
    )
    write_sweep_manifest(out, manifest)
