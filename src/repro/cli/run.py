"""``run`` (one configuration, with every telemetry export) and ``compare``
(two versions traced side by side)."""

from __future__ import annotations

import dataclasses
import sys
import time

from repro.cli.faults import load_scenario_arg
from repro.cli.parser import QUICK_WORKLOAD
from repro.core import RunConfig, run_fft_phase, trace_run
from repro.machine.knl import whatif_machine


def cmd_run(args) -> int:
    scenario, code = load_scenario_arg(args.faults)
    if code is not None:
        return code

    workload = dict(QUICK_WORKLOAD) if args.quick else {}
    want_telemetry = bool(
        args.telemetry
        or args.manifest
        or args.chrome
        or args.prometheus
        or args.prv
        or args.pop
    )
    try:
        config = RunConfig(
            ranks=args.ranks,
            taskgroups=args.taskgroups,
            version=args.version,
            data_mode=args.validate,
            n_nodes=args.nodes,
            telemetry=want_telemetry,
            faults=scenario,
            decomposition=args.decomposition,
            tuning=args.tuning,
            wisdom_path=args.wisdom,
            link_capacity=args.link_capacity,
            **workload,
        )
    except ValueError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    result = run_fft_phase(config)
    wall = time.perf_counter() - t0
    print(f"{result.config.label()}: FFT phase {result.phase_time * 1e3:.2f} ms "
          f"(simulated), avg IPC {result.average_ipc:.3f}")
    if result.tuning is not None:
        info = result.tuning
        outcome = (
            "hit" if info["hit"] else
            ("searched" if info["source"] == "search" else "miss")
        )
        applied = "applied" if info["applied"] else "not applied"
        print(
            f"tuning: {info['mode']} -> {outcome} ({applied}); "
            f"digest {info['digest'][:19]}..."
        )
    if result.fault_report is not None:
        report = result.fault_report
        print(
            f"faults: scenario '{report['scenario'].get('name', '')}' "
            f"injected {report['injected']} event(s), "
            f"recovered {report['recovered_events']}, "
            f"{result.n_attempts} attempt(s)"
        )

    ideal_time = None
    if args.pop:
        ideal_time = run_fft_phase(
            dataclasses.replace(config, telemetry=False),
            knl=whatif_machine("ideal_network"),
        ).phase_time
    if args.manifest:
        from repro.telemetry.manifest import build_manifest, write_manifest

        path = write_manifest(
            args.manifest,
            build_manifest(
                result,
                wall_time_s=None if args.stable_manifest else wall,
                ideal_time_s=ideal_time,
                created="(stable)" if args.stable_manifest else None,
            ),
        )
        print(f"manifest written: {path}")
    if args.chrome or args.prometheus or args.prv:
        from repro.telemetry.exporters import export_run

        if args.chrome:
            print(f"chrome trace written: {export_run(result, 'chrome', args.chrome)}")
        if args.prometheus:
            print(f"metrics written: {export_run(result, 'prometheus', args.prometheus)}")
        if args.prv:
            prv = export_run(result, "prv", args.prv)
            print(f"trace written: {prv} (+ .pcf, .row)")
    if result.failed:
        failure = (result.fault_report or {}).get("failure")
        print(
            f"error: run did not recover from the injected fault scenario"
            f" ({failure})" if failure else
            "error: run did not recover from the injected fault scenario",
            file=sys.stderr,
        )
        return 1
    if args.validate:
        err = result.validate()
        print(f"max relative error vs dense reference: {err:.2e}")
        if err > 1e-10:
            print("VALIDATION FAILED", file=sys.stderr)
            return 1
    return 0


def cmd_compare(args) -> int:
    from repro.machine import knl_parameters
    from repro.perf import compare_runs, format_run_comparison

    workload = dict(QUICK_WORKLOAD) if args.quick else {}
    traces = {}
    times = {}
    for version in (args.version_a, args.version_b):
        cfg = RunConfig(
            ranks=args.ranks, taskgroups=args.taskgroups, version=version, **workload
        )
        result, trace = trace_run(cfg)
        traces[version] = trace
        times[version] = result.phase_time
    cmp = compare_runs(
        traces[args.version_a],
        traces[args.version_b],
        knl_parameters().frequency_hz,
    )
    print(
        f"phase time: {args.version_a} {times[args.version_a] * 1e3:.2f} ms, "
        f"{args.version_b} {times[args.version_b] * 1e3:.2f} ms"
    )
    print(format_run_comparison(cmp, labels=(args.version_a[:8], args.version_b[:8])))
    return 0
