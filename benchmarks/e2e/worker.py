"""One workload in one fresh process (spawned by ``run.py``; not a CLI for people).

A fresh process per workload keeps ``setup_s`` and ``peak_rss_mb`` honest
and stops geometry/plan/arena caches leaking between workloads.  The flow:

1. cold op — ``setup_s`` is process start to the end of it (import included);
2. two untimed warm-up ops (the third op is the first at steady speed);
3. the untraced timed loop, every op checked against this process's first
   op (``reference_sha`` lets the caller check processes against each other);
4. with ``--trace``: install the ledger, traced loop, uninstall, a second
   untraced loop (the overhead baseline brackets the traced ops so host
   drift cancels), then the telemetry/export probe.

Prints one JSON object as the last line of stdout.

``--cli-launch SPANS -- ARGS`` is the tracing launcher for the
``cli_cold_manifest`` children: it runs ``repro.cli.main(ARGS)`` under a
ledger and writes the spans where the parent will adopt them.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

WARMUP_OPS = 2
MIN_OPS = 3


def _cli_launch(spans_path: str, argv: list[str]) -> int:
    # Import the program before the ledger: the ledger needs numpy, and the
    # program's own import must pay for numpy as it does untraced.
    t0 = time.perf_counter()
    import repro.cli

    t1 = time.perf_counter()
    from ledger import Ledger

    led = Ledger()
    led.add_span("cli.import", t0, t1)
    led.install()
    try:
        rc = repro.cli.main(argv)
    finally:
        led.uninstall()
        led.save(spans_path)
    return int(rc or 0)


class _Tally:
    """Attempted/failed op counts and the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(error)

    def as_dict(self) -> dict:
        return {"ops_attempted": self.attempted, "ops_failed": self.failed,
                "failures": self.messages}


class _Session:
    """The runner, the tally and (traced pass) the ledger of one worker."""

    def __init__(self, runner, ledger, wrap_here: bool):
        self.runner = runner
        self.ledger = ledger
        self.tally = _Tally()
        #: Whether wrappers go into this process (in-process kinds) or only
        #: into the children the runner launches (cli).
        self.wrap_here = wrap_here
        #: ``(sim_phase_ms, exact counters)`` of the last op that passed its
        #: check.  The op's result objects themselves are dropped before the
        #: next op runs, so peak_rss_mb is the program's, not the harness's.
        self.last_stats: tuple[float, dict] = (0.0, {})

    def one_op(self, root: str | None = None, corrupt: bool = False) -> float:
        """Run and check one op; under ``root`` it is recorded as that span."""
        led = self.ledger if root is not None else None
        if led is not None:
            span = led.begin(root)
        try:
            seconds, handle = self.runner.op(led)
        finally:
            if led is not None:
                led.end(span)
        error = self.runner.check(handle, corrupt=corrupt)
        self.tally.record(error)
        if error is None:
            self.last_stats = (
                self.runner.sim_phase_ms(handle), self.runner.counters(handle)
            )
        return seconds

    def loop(self, n_ops: int | None, seconds: float | None,
             root: str | None = None, corrupt_at: int = -1) -> list[float]:
        """Closed loop: ``n_ops`` ops, or ops until ``seconds`` have passed
        (never fewer than ``MIN_OPS``).  With ``root`` the ops are traced
        (wrappers installed for the loop) as spans of that name.  Returns the
        op seconds."""
        samples: list[float] = []
        if root is not None and self.wrap_here:
            self.ledger.install()
        try:
            t0 = time.perf_counter()
            while True:
                if n_ops is not None:
                    if len(samples) >= n_ops:
                        return samples
                elif len(samples) >= MIN_OPS and time.perf_counter() - t0 >= seconds:
                    return samples
                samples.append(self.one_op(root, corrupt=len(samples) == corrupt_at))
        finally:
            if root is not None:
                self.ledger.uninstall()


def _telemetry_probe(session: _Session, op_s: list[float], workdir: str) -> dict:
    """What telemetry costs on this workload (trace pass, after the reps).

    cli: see :meth:`CliRunner.telemetry_on_overhead_frac`.  In-process: the
    op with ``RunConfig.telemetry=True`` over the plain op, then one such op
    traced together with the manifest export and analysis entry points.
    """
    runner, ledger = session.runner, session.ledger
    if not session.wrap_here:
        return {"telemetry.on_overhead_frac": runner.telemetry_on_overhead_frac()}

    from repro import analysis as analysis_mod
    from repro.telemetry import manifest as manifest_mod

    probe = runner.with_telemetry()
    on = statistics.median(probe.op()[0] for _ in range(2))
    out = {"telemetry.on_overhead_frac": on / statistics.median(op_s) - 1.0}
    path = os.path.join(workdir, "probe_manifest.json")
    ledger.install()
    span = ledger.begin("export")
    try:
        wall, results = probe.op()
        for result in results:
            manifest_mod.write_manifest(
                path, manifest_mod.build_manifest(result, wall_time_s=wall)
            )
            pop = analysis_mod.analyze_run(result).pop
    finally:
        ledger.end(span)
        ledger.uninstall()
    out["telemetry.manifest_bytes"] = float(os.path.getsize(path))
    out["analysis.parallel_eff"] = pop.parallel_efficiency if pop else 0.0
    out["analysis.transfer_eff"] = pop.transfer_efficiency if pop else 0.0
    return out


def _mean_rows(rows: list[dict[str, float]]) -> dict[str, float]:
    keys = dict.fromkeys(k for row in rows for k in row)
    return {k: statistics.fmean(row.get(k, 0.0) for row in rows) for k in keys}


def main(argv: list[str]) -> int:
    if argv[:1] == ["--cli-launch"]:
        return _cli_launch(argv[1], argv[3:])
    # A terminated worker must not leave cli children behind: as an
    # exception, SIGTERM makes subprocess.run kill and reap its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--reps", type=int, default=None,
                    help="timed ops (with --trace: on each side of the traced ops)")
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed seconds instead of --reps (with --trace: a quarter "
                    "before, half traced, a quarter after)")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--trace-reps", type=int, default=None)
    ap.add_argument("--no-dense-check", action="store_true",
                    help="skip the dense-reference validation (a sibling "
                    "process with the same reference_sha performs it)")
    ap.add_argument("--setup-samples", type=int, default=1,
                    help="cold ops whose median is setup_s (cli kind only)")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--corrupt-op", type=int, default=-1,
                    help="test hook: corrupt this timed op's output before the check")
    args = ap.parse_args(argv)

    from workloads import SRC_DIR, WORKLOADS, CliRunner, PhaseRunner

    sys.path.insert(0, SRC_DIR)
    workload = WORKLOADS[args.workload]
    is_cli = workload.kind == "cli"
    ledger = None
    if args.trace:
        from ledger import Ledger, per_op_layers

        ledger = Ledger()
    if is_cli:
        runner = CliRunner(workload, args.workdir, args.smoke)
    else:
        runner = PhaseRunner(workload, args.seed, args.smoke)
    session = _Session(runner, ledger, wrap_here=not is_cli)
    root = "setup" if args.trace else None

    # 1. Cold op.  In-process kinds imported the program just now, so
    # setup_s is "import repro + first op"; every cli op is cold, so its
    # setup_s is the median of a few untimed ones.
    setup_samples = session.loop(args.setup_samples if is_cli else 1, None, root)
    if not is_cli:
        setup_samples = [time.perf_counter() - _T0]

    # 2. Warm-up (in-process kinds: ops 2 and 3 still fill caches/arenas).
    if not is_cli:
        for _ in range(WARMUP_OPS):
            session.one_op()

    # 3. Untraced timed loop (traced pass: the first bracket).
    share = 4 if args.trace else 1
    seconds = None if args.seconds is None else args.seconds / share
    op_s = session.loop(args.reps, seconds, corrupt_at=args.corrupt_op)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF)
    sim_phase_ms, counters = session.last_stats
    out: dict = {
        "workload": workload.name,
        "seed": args.seed,
        "setup_s": statistics.median(setup_samples),
        "setup_samples": setup_samples,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "sim_phase_ms": sim_phase_ms,
        "bands_per_op": runner.bands_per_op,
        "import_s": runner.import_s,
        "counters": counters,
    }

    # 4. Traced pass.
    if ledger is not None:
        traced_s = session.loop(
            args.trace_reps, None if seconds is None else 2 * seconds, root="op"
        )
        post_s = session.loop(args.reps, seconds)
        trace: dict = {"pre_op_s": op_s, "traced_op_s": traced_s, "post_op_s": post_s}
        op_s = op_s + post_s
        probe = _telemetry_probe(session, op_s, args.workdir)
        trace["telemetry_on_overhead_frac"] = probe.pop("telemetry.on_overhead_frac")
        out["counters"].update(probe)

        arrays = ledger.arrays()
        trace["op_rows"] = per_op_layers(arrays, "op")
        trace["layers"] = _mean_rows(trace["op_rows"])
        trace["setup_layers"] = _mean_rows(per_op_layers(arrays, "setup"))
        trace["export_layers"] = _mean_rows(per_op_layers(arrays, "export"))
        trace["n_spans"] = len(arrays["start"])
        trace["spans_file"] = os.path.join(args.workdir, f"spans_{workload.name}.npz")
        ledger.save(trace["spans_file"])
        out["trace"] = trace

    out["reference_sha"] = runner.reference_sha()
    error = None if args.no_dense_check else runner.finalize()
    if error is not None:
        # The reference every op was compared with is itself wrong.
        session.tally.failed = session.tally.attempted
        session.tally.messages.insert(0, error)

    out["op_s"] = op_s
    out["cli_cmd_s"] = runner.cmd_s if is_cli else {"run": [], "analyze": []}
    print(json.dumps({**out, **session.tally.as_dict()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
