"""``perf diff|check|validate`` and ``analyze``: offline work on manifest
JSON files.  Nothing here simulates — these commands load neither numpy nor
``repro.core`` (pinned by ``tests/test_import_budget.py``)."""

from __future__ import annotations

import json
import pathlib
import sys

from repro import analysis as _analysis
from repro.analysis import render as _render
from repro.perf import diff_manifests, format_manifest_diff, manifest_regressions
from repro.telemetry.manifest import ManifestError, load_manifest


def cmd_perf(args) -> int:
    def _load(path):
        try:
            return load_manifest(path)
        except FileNotFoundError:
            raise SystemExit(f"error: no such manifest: {path}")
        except json.JSONDecodeError as exc:
            raise SystemExit(f"error: {path} is not JSON: {exc}")

    if args.perf_command == "validate":
        try:
            with open(args.manifest, encoding="utf-8") as fh:
                doc = json.load(fh)
            kind = doc.get("kind") if isinstance(doc, dict) else None
        except FileNotFoundError:
            print(f"error: no such manifest: {args.manifest}", file=sys.stderr)
            return 2
        except json.JSONDecodeError as exc:
            print(f"error: {args.manifest} is not JSON: {exc}", file=sys.stderr)
            return 2
        if kind == "repro.sweep_manifest":
            from repro.sweep import SweepManifestError, load_sweep_manifest

            try:
                load_sweep_manifest(args.manifest)
            except SweepManifestError as exc:
                print(f"INVALID: {exc}", file=sys.stderr)
                return 1
            print(f"{args.manifest}: valid sweep manifest")
            return 0
        if kind == "repro.service_manifest":
            from repro.service.manifest import (
                ServiceManifestError,
                load_service_manifest,
            )

            try:
                load_service_manifest(args.manifest)
            except ServiceManifestError as exc:
                print(f"INVALID: {exc}", file=sys.stderr)
                return 1
            print(f"{args.manifest}: valid service manifest")
            return 0
        try:
            _load(args.manifest)
        except ManifestError as exc:
            print(f"INVALID: {exc}", file=sys.stderr)
            return 1
        print(f"{args.manifest}: valid run manifest")
        return 0
    if args.perf_command == "diff":
        doc_a, doc_b = _load(args.manifest_a), _load(args.manifest_b)
        print(format_manifest_diff(diff_manifests(doc_a, doc_b)))
        report = _analysis.analyze_pair(doc_a, doc_b)
        dom = report.dominant
        line = f"\ntriage: {report.verdict.upper()}"
        if dom is not None:
            line += f" — dominant mover: {dom.kind} {dom.subject} ({dom.detail})"
        print(line)
        if report.dominant_factor:
            print(f"triage: dominant efficiency factor: {report.dominant_factor}")
        return 0
    # perf check
    baseline_doc = _load(args.baseline)
    candidate_doc = _load(args.candidate)
    violations = manifest_regressions(
        baseline_doc,
        candidate_doc,
        threshold=args.threshold,
    )
    if violations:
        for v in violations:
            print(f"REGRESSION: {v}", file=sys.stderr)
        report = _analysis.analyze_pair(
            baseline_doc, candidate_doc, threshold=args.threshold
        )
        print("\n" + _render.render_triage_text(report.to_dict()), file=sys.stderr)
        if args.triage:
            pathlib.Path(args.triage).write_text(
                json.dumps(report.to_dict(), indent=2) + "\n"
            )
            print(f"triage report written: {args.triage}", file=sys.stderr)
        return 1
    print(
        f"{args.candidate}: no regression vs {args.baseline} "
        f"(threshold {args.threshold * 100:.1f}%)"
    )
    return 0


def cmd_analyze(args) -> int:
    if len(args.manifests) > 2:
        print(
            "error: analyze takes one manifest (run or sweep) or two run "
            f"manifests (baseline candidate); got {len(args.manifests)}",
            file=sys.stderr,
        )
        return 2
    if args.check and len(args.manifests) != 2:
        print("error: --check needs two manifests (A/B mode)", file=sys.stderr)
        return 2

    def _load_doc(path: str) -> dict:
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            raise SystemExit(f"error: no such manifest: {path}")
        except json.JSONDecodeError as exc:
            raise SystemExit(f"error: {path} is not JSON: {exc}")
        if not isinstance(doc, dict):
            raise SystemExit(f"error: {path} is not a manifest object")
        return doc

    def _load_run(path: str) -> dict:
        try:
            return load_manifest(path)
        except FileNotFoundError:
            raise SystemExit(f"error: no such manifest: {path}")
        except json.JSONDecodeError as exc:
            raise SystemExit(f"error: {path} is not JSON: {exc}")
        except ManifestError as exc:
            raise SystemExit(f"error: {exc}")

    exit_code = 0
    if len(args.manifests) == 2:
        report = _analysis.analyze_pair(
            _load_run(args.manifests[0]),
            _load_run(args.manifests[1]),
            threshold=args.threshold,
        ).to_dict()
        if args.fmt == "json":
            output = json.dumps(report, indent=2) + "\n"
        elif args.fmt == "markdown":
            output = _render.render_triage_markdown(report, top=args.top)
        else:
            output = _render.render_triage_text(report, top=args.top) + "\n"
        if args.check and report["verdict"] == "regression":
            exit_code = 1
    else:
        doc = _load_doc(args.manifests[0])
        if doc.get("kind") == "repro.sweep_manifest":
            rows = _analysis.analyze_sweep(doc)
            if args.fmt == "json":
                output = json.dumps(rows, indent=2) + "\n"
            elif args.fmt == "markdown":
                output = _render.render_sweep_markdown(rows)
            else:
                output = _render.render_sweep_text(rows) + "\n"
        else:
            run_doc = _load_run(args.manifests[0])
            try:
                info = _analysis.analyze_manifest(run_doc)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            if args.fmt == "json":
                output = json.dumps(info, indent=2) + "\n"
            elif args.fmt == "markdown":
                output = _render.render_analysis_markdown(info)
            else:
                output = _render.render_analysis_text(info) + "\n"
    if args.out:
        pathlib.Path(args.out).write_text(output)
        print(f"analysis written: {args.out}")
    else:
        sys.stdout.write(output)
    return exit_code
