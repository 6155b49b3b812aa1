"""``serve`` and ``loadgen``: the resilient async front end (:mod:`repro.service`)."""

from __future__ import annotations

import asyncio
import json
import sys
import typing as _t

from repro.cli.faults import load_chaos_arg
from repro.service import (
    AsyncService,
    LoadSpec,
    ServiceConfig,
    SoakEngine,
    generate_arrivals,
    request_from_dict,
    run_loadgen,
)
from repro.service.manifest import build_service_manifest, write_service_manifest
from repro.service.request import RequestError
from repro.service.server import latency_percentiles


def _parse_mix(text: str) -> dict[str, float]:
    mix: dict[str, float] = {}
    for part in text.split(","):
        name, _, weight = part.partition("=")
        mix[name.strip()] = float(weight)
    return mix


def cmd_serve(args) -> int:
    """Serve a JSONL request stream through the live async front end."""
    chaos, code = load_chaos_arg(args.chaos)
    if code is not None:
        return code
    try:
        config = ServiceConfig(
            workers=args.workers,
            max_queue_depth=args.queue_depth,
            default_deadline_s=args.deadline,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2

    if args.requests == "-":
        lines = sys.stdin.read().splitlines()
        source = "<stdin>"
    else:
        try:
            with open(args.requests, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            print(f"error: cannot read requests: {exc}", file=sys.stderr)
            return 2
        source = args.requests
    requests = []
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            requests.append(request_from_dict(json.loads(line)))
        except (json.JSONDecodeError, RequestError) as exc:
            print(f"error: {source}:{lineno}: {exc}", file=sys.stderr)
            return 2

    async def run() -> tuple[list[dict], dict]:
        service = AsyncService(config, chaos)
        await service.start()
        results = await asyncio.gather(*[service.submit(r) for r in requests])
        report = await service.drain()
        if args.manifest:
            write_service_manifest(
                args.manifest,
                build_service_manifest(
                    service.core, load={"source": source}, stable=False, slo=report
                ),
            )
        return list(results), report

    results, report = asyncio.run(run())
    out = open(args.responses, "w", encoding="utf-8") if args.responses else sys.stdout
    try:
        for response in results:
            out.write(json.dumps(response, sort_keys=True) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    counts = report["counts"]
    print(
        f"served {report['served']}/{counts['submitted']} request(s) at "
        f"{report['requests_per_s']:g} req/s "
        f"(shed {counts['shed']}, failed {counts['failed']}, "
        f"expired {counts['expired']})",
        file=sys.stderr,
    )
    if args.manifest:
        print(f"service manifest written: {args.manifest}", file=sys.stderr)
    # Exit contract: 0 only when every request was served (ok / memoized /
    # batched); degraded-but-completed sessions report 1 for scripting.
    return 0 if report["served"] == counts["submitted"] else 1


def cmd_loadgen(args) -> int:
    """Open-loop load generation: live wall-clock or deterministic soak."""
    chaos, code = load_chaos_arg(args.chaos)
    if code is not None:
        return code
    try:
        spec = LoadSpec(
            rate_rps=args.rate,
            duration_s=args.duration,
            mix=_parse_mix(args.mix),
            versions=tuple(v.strip() for v in args.versions.split(",") if v.strip()),
            deadline_s=args.deadline,
            seed=args.seed,
        )
        config = ServiceConfig(
            workers=args.workers,
            max_queue_depth=args.queue_depth,
            seed=args.seed,
        )
    except (RequestError, ValueError) as exc:
        print(f"error: invalid load spec: {exc}", file=sys.stderr)
        return 2

    if args.mode == "soak":
        engine = SoakEngine(config, chaos)
        core = engine.run(generate_arrivals(spec, chaos), drain_at=spec.duration_s)
        report = {
            "mode": "soak",
            "virtual_makespan_s": round(engine.makespan, 9),
            "latency": latency_percentiles(core.latencies),
            "counts": dict(core.counts),
            "shed_reasons": dict(core.shed_reasons),
            "breaker_trips": core.breakers.total_trips(),
        }
        manifest = build_service_manifest(core, load=spec.to_dict(), stable=True)
    else:

        async def run() -> tuple[dict, _t.Any]:
            service = AsyncService(config, chaos)
            await service.start()
            slo = await run_loadgen(service, spec, chaos)
            return slo, service.core

        slo, core = asyncio.run(run())
        report = {"mode": "live", **slo}
        manifest = build_service_manifest(
            core, load=spec.to_dict(), stable=False, slo=slo
        )

    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if args.manifest:
        write_service_manifest(args.manifest, manifest)
        print(f"service manifest written: {args.manifest}", file=sys.stderr)
    return 0
