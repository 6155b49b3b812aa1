"""``sweep``: a ranks x version x taskgroups grid through :mod:`repro.sweep`."""

from __future__ import annotations

import pathlib
import sys
import typing as _t

from repro.cli.faults import load_scenario_arg
from repro.cli.parser import QUICK_WORKLOAD, VERSIONS
from repro.sweep import (
    GridSpec,
    SweepError,
    SweepManifestError,
    SweepTask,
    load_sweep_manifest,
    run_sweep,
)


def cmd_sweep(args) -> int:
    scenario, code = load_scenario_arg(args.faults)
    if code is not None:
        return code

    def _int_axis(raw: str, flag: str) -> tuple[int, ...]:
        try:
            values = tuple(int(part) for part in raw.split(",") if part.strip())
        except ValueError:
            raise ValueError(f"{flag} expects comma-separated integers, got {raw!r}")
        if not values:
            raise ValueError(f"{flag} needs at least one value")
        return values

    try:
        ranks = _int_axis(args.ranks, "--ranks")
        taskgroups = _int_axis(args.taskgroups, "--taskgroups")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    versions = tuple(v for v in args.versions.split(",") if v.strip())
    unknown = [v for v in versions if v not in VERSIONS]
    if unknown or not versions:
        print(
            f"error: --versions must name executors from {', '.join(VERSIONS)}; "
            f"got {args.versions!r}",
            file=sys.stderr,
        )
        return 2

    base: dict[str, _t.Any] = dict(QUICK_WORKLOAD) if args.quick else {}
    base["telemetry"] = True
    base["decomposition"] = args.decomposition
    base["tuning"] = args.tuning
    if args.wisdom is not None:
        base["wisdom_path"] = args.wisdom
    if scenario is not None:
        base["faults"] = scenario
    try:
        grid = GridSpec(
            axes={"ranks": ranks, "version": versions, "taskgroups": taskgroups},
            base=base,
        )
        points = grid.points()
    except ValueError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2
    tasks = [
        SweepTask(key=p.key, config=p.config, ideal_replay=args.pop)
        for p in points
    ]

    resume = None
    if args.resume:
        if args.out is None:
            print("error: --resume needs --out (the manifest to resume)", file=sys.stderr)
            return 2
        if pathlib.Path(args.out).exists():
            try:
                resume = load_sweep_manifest(args.out)
            except SweepManifestError as exc:
                print(f"error: cannot resume from {args.out}: {exc}", file=sys.stderr)
                return 2

    def _progress(record) -> None:
        status = "reused" if record.reused else (
            "FAILED" if record.failed else f"{record.phase_time_s * 1e3:8.2f} ms"
        )
        print(f"  [{record.key}] {status}")

    print(
        f"sweep: {grid.n_points} point(s) "
        f"(ranks {','.join(map(str, ranks))} x versions "
        f"{','.join(versions)} x taskgroups {','.join(map(str, taskgroups))}), "
        f"jobs {args.jobs}"
    )
    try:
        result = run_sweep(
            tasks,
            jobs=args.jobs,
            mode=args.mode,
            resume=resume,
            out=args.out,
            grid=grid,
            stable=args.stable,
            on_point=_progress,
        )
    except SweepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    n_reused = len(result.reused_keys)
    line = (
        f"{len(result.records)} point(s) in {result.wall_time_s:.2f} s "
        f"wall ({result.mode} mode, {result.jobs} job(s)"
    )
    line += f", {n_reused} reused)" if n_reused else ")"
    print(line)
    if args.out:
        print(f"sweep manifest written: {args.out}")
    failed = [r.key for r in result.records if r.failed]
    if failed:
        print(
            "error: point(s) did not recover from the injected fault scenario: "
            + ", ".join(failed),
            file=sys.stderr,
        )
        return 1
    return 0
