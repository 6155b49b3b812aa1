"""``run`` (one configuration, with every telemetry export) and ``compare``
(two versions run with telemetry on, their manifests triaged)."""

from __future__ import annotations

import dataclasses
import sys
import time

from repro.cli.faults import load_scenario_arg
from repro.cli.parser import QUICK_WORKLOAD
from repro.core import RunConfig, run_fft_phase
from repro.machine.knl import whatif_machine


def _config(**fields) -> RunConfig | None:
    """``RunConfig(**fields)``; None after a one-line ``error:`` on stderr
    when the fields are invalid (the caller exits 2)."""
    try:
        return RunConfig(**fields)
    except ValueError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return None


def cmd_run(args) -> int:
    scenario, code = load_scenario_arg(args.faults)
    if code is not None:
        return code

    workload = dict(QUICK_WORKLOAD) if args.quick else {}
    want_telemetry = bool(
        args.telemetry
        or args.manifest
        or args.chrome
        or args.prv
        or args.pop
    )
    config = _config(
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
        **workload,
    )
    if config is None:
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
    if args.chrome:
        from repro.telemetry.chrometrace import write_chrome_trace

        tel = result.telemetry
        path = write_chrome_trace(
            args.chrome,
            tel.trace,
            spans=tel.spans,
            frequency_hz=result.cpu.frequency_hz,
            queue_depth_samples=tel.queue_samples,
            label=result.config.label(),
        )
        print(f"chrome trace written: {path}")
    if args.prv:
        from repro.telemetry.paraver import write_prv

        prv = write_prv(args.prv, result.telemetry.trace, label=result.config.version)
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
    from repro.analysis import analyze_pair
    from repro.analysis.render import render_triage_text
    from repro.telemetry.manifest import build_manifest

    workload = dict(QUICK_WORKLOAD) if args.quick else {}
    configs = []
    for version in (args.version_a, args.version_b):
        config = _config(
            ranks=args.ranks,
            taskgroups=args.taskgroups,
            version=version,
            telemetry=True,
            **workload,
        )
        if config is None:
            return 2
        configs.append(config)
    baseline, candidate = (build_manifest(run_fft_phase(c)) for c in configs)
    print(render_triage_text(analyze_pair(baseline, candidate).to_dict()))
    return 0
