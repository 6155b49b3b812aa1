"""``perf diff|check|validate`` and ``analyze``: offline work on manifest
JSON files.  Nothing here simulates — these commands load neither numpy nor
``repro.core`` (pinned by ``tests/test_import_budget.py``).  The A/B code
(``repro.perf``, ``repro.analysis.triage``) loads inside ``perf diff``,
``perf check`` and two-manifest ``analyze`` only."""

from __future__ import annotations

import json
import pathlib
import sys

from repro import analysis as _analysis
from repro._lazy import resolve
from repro.analysis import render as _render
from repro.telemetry.manifest import validate_manifest


def _bad_input(message: str) -> SystemExit:
    """One-line ``error:`` on stderr, exit 2 — never a traceback."""
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(2)


def _load_doc(path: str):
    """The parsed JSON of a manifest file of any kind."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise _bad_input(f"no such manifest: {path}")
    except json.JSONDecodeError as exc:
        raise _bad_input(f"{path} is not JSON: {exc}")


def _load_run(path: str, doc: object = None) -> dict:
    """A valid run manifest (``doc`` when the caller already parsed ``path``)."""
    doc = _load_doc(path) if doc is None else doc
    errors = validate_manifest(doc)
    if errors:
        raise _bad_input(f"{path}: " + "; ".join(errors))
    return doc


#: ``perf validate`` dispatch: manifest kind -> (validator, what it is called).
_VALIDATORS = {
    "repro.run_manifest": ("repro.telemetry.manifest:validate_manifest", "run"),
    "repro.sweep_manifest": ("repro.sweep.manifest:validate_sweep_manifest", "sweep"),
}


def cmd_perf(args) -> int:
    if args.perf_command == "validate":
        doc = _load_doc(args.manifest)
        kind = doc.get("kind") if isinstance(doc, dict) else None
        if isinstance(kind, str) and kind not in _VALIDATORS:
            print(
                f"INVALID: {args.manifest}: unknown manifest kind {kind!r} "
                "(expected run or sweep manifest)",
                file=sys.stderr,
            )
            return 1
        validator, noun = _VALIDATORS.get(kind, _VALIDATORS["repro.run_manifest"])
        errors = resolve(validator)(doc)
        if errors:
            print(f"INVALID: {args.manifest}: " + "; ".join(errors), file=sys.stderr)
            return 1
        print(f"{args.manifest}: valid {noun} manifest")
        return 0
    from repro.perf import diff_manifests, format_manifest_diff, manifest_regressions

    if args.perf_command == "diff":
        doc_a, doc_b = _load_run(args.manifest_a), _load_run(args.manifest_b)
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
    baseline_doc = _load_run(args.baseline)
    candidate_doc = _load_run(args.candidate)
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
        if isinstance(doc, dict) and doc.get("kind") == "repro.sweep_manifest":
            rows = _analysis.analyze_sweep(doc)
            if args.fmt == "json":
                output = json.dumps(rows, indent=2) + "\n"
            elif args.fmt == "markdown":
                output = _render.render_sweep_markdown(rows)
            else:
                output = _render.render_sweep_text(rows) + "\n"
        else:
            run_doc = _load_run(args.manifests[0], doc)
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
