"""The benchmark's four workloads: inputs, one operation each, output checks.

Names are fixed — later issues cite them.  ``BENCHMARK.json`` carries the
one-line *why* of each; ``README.md`` the full rationale.

Every runner exposes the same three calls:

* ``op(ledger=None)`` — run one operation, return ``(seconds, handle)``;
  only the program's own work is inside the timed span;
* ``check(handle, corrupt=False)`` — verify the operation's output (outside
  the timed span), return an error string or ``None``;
* ``finalize()`` — end-of-run verification that is too expensive or too
  memory-hungry to do before ``peak_rss_mb`` is sampled;
* ``reference_sha()`` — digest of what every op was compared with, so fresh
  processes of one run can be checked against each other.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC_DIR = os.path.join(REPO_ROOT, "src")
BENCHMARK_JSON = os.path.join(REPO_ROOT, "BENCHMARK.json")

PAPER = dict(ecutwfc=80.0, alat=20.0)  # nbnd: 16 in data mode, the paper's 128 in meta mode
#: ``--smoke`` shrinks the grid (the CLI's ``--quick`` workload) so both
#: passes of all four workloads finish in seconds; smoke numbers exercise
#: the plumbing and are not comparable with anything.
SMOKE = dict(ecutwfc=30.0, alat=10.0, nbnd=32)
CHILD_TIMEOUT_S = 300


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "data" | "meta" | "cli"
    #: Untraced timed reps of a full (``--out``) run.
    reps: int
    #: ``RunConfig`` keyword sets run back to back by one op (in-process
    #: kinds; the cli kind's flags live in :class:`CliRunner`).
    configs: tuple[dict, ...] = ()


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="paper_slab_data",
            kind="data",
            reps=40,
            configs=(
                dict(ranks=2, taskgroups=2, version="original", nbnd=16, data_mode=True),
            ),
        ),
        Workload(
            name="desync_meta",
            kind="meta",
            reps=40,
            configs=(
                dict(ranks=8, taskgroups=8, version="original", nbnd=128),
                dict(ranks=8, taskgroups=8, version="ompss_perfft", nbnd=128),
            ),
        ),
        Workload(
            name="pencil_multinode_data",
            kind="data",
            reps=30,
            configs=(
                dict(
                    ranks=4, taskgroups=2, version="original", nbnd=16,
                    data_mode=True, n_nodes=4, decomposition="pencil",
                ),
            ),
        ),
        Workload(
            name="cli_cold_manifest",
            kind="cli",
            reps=20,
        ),
    )
}


def _phase_signature(results) -> tuple:
    return tuple((r.phase_time, r.sim.n_dispatched) for r in results)


class PhaseRunner:
    """In-process workloads: one op = ``run_fft_phase`` over the configs."""

    def __init__(self, workload: Workload, seed: int, smoke: bool):
        t0 = time.perf_counter()
        from repro import core

        #: Seconds the program's import took in this process (``setup.import_s``).
        self.import_s = time.perf_counter() - t0
        self._core = core
        self.workload = workload
        size = SMOKE if smoke else PAPER
        self.configs = [
            core.RunConfig(seed=seed, **{**kw, **size}) for kw in workload.configs
        ]
        #: Complex bands one op transforms (the ``bands_per_s`` numerator).
        self.bands_per_op = sum(c.n_complex_bands for c in self.configs)
        self._signature: tuple | None = None
        self._reference: dict | None = None

    def with_telemetry(self) -> "PhaseRunner":
        """The same op with ``RunConfig.telemetry=True`` (trace pass only)."""
        twin = copy.copy(self)
        twin.configs = [dataclasses.replace(c, telemetry=True) for c in self.configs]
        twin._signature = twin._reference = None
        return twin

    def op(self, ledger=None):
        # Attribute lookup at call time, so an installed ledger is seen.
        run = self._core.run_fft_phase
        t0 = time.perf_counter()
        results = [run(c) for c in self.configs]
        return time.perf_counter() - t0, results

    def check(self, results, corrupt: bool = False) -> str | None:
        signature = _phase_signature(results)
        if corrupt:
            signature = ((signature[0][0] + 1e-9, signature[0][1]),) + signature[1:]
        if any(r.failed for r in results):
            return "run reported failed"
        if self._signature is None:
            self._signature = signature
        elif signature != self._signature:
            return f"simulated statistics changed: {signature} != {self._signature}"
        if self.workload.kind == "meta":
            original, perfft = results
            if not perfft.phase_time < original.phase_time:
                return "ompss_perfft phase time is not below original"
            return None
        out = results[0].output_coefficients()
        if corrupt:
            out = out.copy()
            out.flat[0] += 1.0
        if self._reference is None:
            first = results[0]
            self._reference = dict(
                desc=first.desc, coeffs=first.input_coeffs,
                potential=first.potential, out=out, raw=out.tobytes(),
            )
        elif out.tobytes() != self._reference["raw"]:
            return "output differs from the validated reference op"
        return None

    def reference_sha(self) -> str:
        raw = self._reference["raw"] if self._reference else b""
        return hashlib.sha256(raw + repr(self._signature).encode()).hexdigest()

    def finalize(self) -> str | None:
        """Dense-reference validation of the reference op (data kinds).

        Run after ``peak_rss_mb`` is sampled: the dense single-grid reference
        holds every band on the full grid, far more than the program does.
        """
        if self._reference is None:
            return None
        ref = self._reference
        dense = self._core.dense_reference(ref["desc"], ref["coeffs"], ref["potential"])
        err = self._core.max_relative_error(ref["out"], dense)
        if not err <= 1e-10:
            return f"dense-reference error {err:.3e} > 1e-10"
        return None

    def sim_phase_ms(self, results) -> float:
        return 1e3 * sum(r.phase_time for r in results)

    def counters(self, results) -> dict[str, float]:
        """Exact counters of one op, read from its ``RunResult`` objects."""
        out = dict.fromkeys(
            (
                "fft.kernel_calls", "fft.kernel_rows", "core.pack_copies",
                "core.bytes_resident_mb", "mpisim.inter_bytes",
                "mpisim.inter_messages", "simkit.events", "simkit.rebalances",
                "simkit.coalesced", "simkit.timer_skips",
            ),
            0.0,
        )
        acquires = reuse = hits = misses = 0
        for r in results:
            dp = r.dataplane or {}
            out["fft.kernel_calls"] += dp.get("kernel_calls", 0)
            out["fft.kernel_rows"] += dp.get("kernel_rows", 0)
            out["core.pack_copies"] += dp.get("pack_copies", 0)
            out["core.bytes_resident_mb"] += dp.get("bytes_resident", 0) / 2**20
            acquires += dp.get("acquires", 0)
            reuse += dp.get("reuse_hits", 0)
            internode = getattr(r.world.network, "internode_summary", None)
            if internode is not None:
                summary = internode()
                out["mpisim.inter_bytes"] += summary["inter_bytes"]
                out["mpisim.inter_messages"] += summary["inter_messages"]
            out["simkit.events"] += r.sim.n_dispatched
            engine = r.cpu.engine_stats()
            out["simkit.rebalances"] += engine["n_rebalances"]
            out["simkit.coalesced"] += engine["n_coalesced"]
            out["simkit.timer_skips"] += engine["n_timer_skips"]
            hits += engine.get("alloc_cache_hits", 0)
            misses += engine.get("alloc_cache_misses", 0)
        out["core.arena_reuse_ratio"] = reuse / acquires if acquires else 0.0
        out["machine.alloc_cache_hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0
        )
        # Compute-weighted over the op's configs would need per-run weights;
        # the last config is the one Table II's IPC relation is about.
        out["machine.avg_ipc"] = results[-1].average_ipc
        return out


class CliRunner:
    """``cli_cold_manifest``: two fresh ``python -m repro`` subprocesses."""

    def __init__(self, workload: Workload, workdir: str, smoke: bool):
        self.workload = workload
        self.workdir = workdir
        self.manifest = os.path.join(workdir, "m.json")
        self.analysis = os.path.join(workdir, "a.json")
        self.run_args = [
            "run", "--ranks", "8", "--taskgroups", "8",
            "--version", "ompss_perfft", "--manifest", self.manifest,
        ] + (["--quick"] if smoke else [])
        self.analyze_args = [
            "analyze", self.manifest, "--format", "json", "--out", self.analysis,
        ]
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC_DIR, os.environ.get("PYTHONPATH")) if p
        )
        self._phase_time: float | None = None
        self.import_s = 0.0  # each child pays its own import; see cli.import_s
        #: Untraced wall seconds of each subcommand, one entry per op.
        self.cmd_s: dict[str, list[float]] = {"run": [], "analyze": []}
        #: Complex bands one op transforms; read from the first manifest.
        self.bands_per_op = 0

    def _spawn(self, args: list[str], ledger=None, span: str = "") -> tuple[int, str]:
        """Run one subcommand; under a ledger, through the tracing launcher,
        adopting the child's spans beneath this command's span."""
        if ledger is None:
            cmd = [sys.executable, "-m", "repro", *args]
            proc = subprocess.run(cmd, cwd=self.workdir, env=self.env,
                                  capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            return proc.returncode, proc.stderr
        import numpy as np

        spans = os.path.join(self.workdir, f"spans_{span}.npz")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--cli-launch", spans, "--", *args]
        s = ledger.begin(span)
        proc = subprocess.run(cmd, cwd=self.workdir, env=self.env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        ledger.end(s)
        if proc.returncode == 0:
            with np.load(spans) as child:
                ledger.adopt({k: child[k] for k in child.files}, parent=s)
        return proc.returncode, proc.stderr

    def op(self, ledger=None):
        for path in (self.manifest, self.analysis):
            if os.path.exists(path):
                os.remove(path)
        t0 = time.perf_counter()
        rc1, err1 = self._spawn(self.run_args, ledger, "cli.run_cmd")
        t1 = time.perf_counter()
        rc2, err2 = self._spawn(self.analyze_args, ledger, "cli.analyze_cmd")
        t2 = time.perf_counter()
        if ledger is None:
            self.cmd_s["run"].append(t1 - t0)
            self.cmd_s["analyze"].append(t2 - t1)
        return t2 - t0, dict(rc=(rc1, rc2), stderr=(err1, err2))

    def telemetry_on_overhead_frac(self) -> float:
        """The ``run`` command's wall with ``--manifest`` over the same
        command with no export flag (telemetry off), minus one."""
        def wall(run_args: list[str]) -> float:
            t0 = time.perf_counter()
            self._spawn(run_args)
            return time.perf_counter() - t0

        off_args = [a for a in self.run_args if a not in ("--manifest", self.manifest)]
        off = statistics.median(wall(off_args) for _ in range(2))
        on = statistics.median(wall(self.run_args) for _ in range(2))
        return on / off - 1.0

    def check(self, handle, corrupt: bool = False) -> str | None:
        if handle["rc"] != (0, 0):
            tail = " | ".join(e.strip().splitlines()[-1] for e in handle["stderr"] if e.strip())
            return f"exit codes {handle['rc']}: {tail}"
        from repro.telemetry.manifest import validate_manifest

        try:
            with open(self.manifest, encoding="utf-8") as fh:
                doc = json.load(fh)
            with open(self.analysis, encoding="utf-8") as fh:
                text = fh.read()
            json.loads(text[: len(text) // 2] if corrupt else text)
        except (OSError, ValueError) as exc:
            return f"unreadable output: {exc}"
        errors = validate_manifest(doc)
        if errors:
            return f"manifest schema errors: {errors[:3]}"
        phase_time = doc["timing"]["phase_time_s"]
        if self._phase_time is None:
            self._phase_time = phase_time
        elif phase_time != self._phase_time:
            return f"simulated phase time changed: {phase_time} != {self._phase_time}"
        self.bands_per_op = doc["config"]["nbnd"] // 2
        handle["doc"] = doc
        return None

    def reference_sha(self) -> str:
        return hashlib.sha256(repr(self._phase_time).encode()).hexdigest()

    def finalize(self) -> str | None:
        return None

    def sim_phase_ms(self, handle) -> float:
        return 1e3 * handle["doc"]["timing"]["phase_time_s"]

    def counters(self, handle) -> dict[str, float]:
        doc = handle["doc"]
        engine = doc["engine"]["cpu"]
        hits = engine.get("alloc_cache_hits", 0)
        misses = engine.get("alloc_cache_misses", 0)
        pop = (doc.get("analysis") or {}).get("pop") or {}
        return {
            "simkit.events": float(doc["timing"]["sim_events"]),
            "simkit.rebalances": float(engine["n_rebalances"]),
            "simkit.coalesced": float(engine["n_coalesced"]),
            "simkit.timer_skips": float(engine["n_timer_skips"]),
            "machine.alloc_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "machine.avg_ipc": float(doc["average_ipc"]),
            "analysis.parallel_eff": float(pop.get("parallel_efficiency", 0.0)),
            "analysis.transfer_eff": float(pop.get("transfer_efficiency", 0.0)),
            "telemetry.manifest_bytes": float(os.path.getsize(self.manifest)),
        }
