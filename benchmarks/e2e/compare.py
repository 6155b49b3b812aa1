"""Compare two sets of ``run.py --out`` result files under the benchmark's bounds.

    python benchmarks/e2e/compare.py --base A1.json A2.json ... --cand B1.json B2.json ...
    python benchmarks/e2e/compare.py A.json B.json          # one file per side

For every end-to-end metric x workload: each set's median and quartiles, the
candidate median's worsening as a share of the base median, and a verdict —

* ``ok`` / ``improved`` / ``REGRESSION`` when the run-to-run spread (the wider
  set's interquartile range over its median) is within the metric's bound;
* ``unresolved`` when the spread exceeds the bound — unless every candidate
  run reads better (``improved``) or worse (``REGRESSION``) than every base run.

``sim_phase_ms`` and the exact counters must be identical in every file of
both sets (``CHANGED`` otherwise): a host-speed change leaves every simulated
statistic bit-identical.  Other per-layer metrics are listed with their
medians and carry no verdict.  Exits 1 on any ``REGRESSION``, ``CHANGED`` or
a higher failed-op share in the candidate set.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import BENCHMARK_JSON  # noqa: E402

#: Deterministic for a given commit and workload, whatever the host does.
EXACT_METRICS = (
    "sim_phase_ms", "grids.build_calls", "fft.kernel_calls", "fft.kernel_rows",
    "core.arena_reuse_ratio", "core.pack_copies", "core.bytes_resident_mb",
    "mpisim.collective_calls", "mpisim.inter_bytes", "mpisim.inter_messages",
    "simkit.events", "simkit.rebalances", "simkit.coalesced", "simkit.timer_skips",
    "machine.compute_calls", "machine.alloc_cache_hit_ratio", "machine.avg_ipc",
    "ompss.tasks", "analysis.parallel_eff", "analysis.transfer_eff",
)


def load_results(paths: list[str]) -> list[dict]:
    docs = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("kind") != "repro.e2e_benchmark":
            raise SystemExit(f"error: {path} is not a run.py result file")
        docs.append(doc)
    return docs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def judge(base: list[float], cand: list[float], better: str, bound: float) -> tuple[str, float]:
    """Verdict and the candidate median's worsening (share of base median)."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(base), statistics.median(cand)
    worsening = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    if max(spread(base), spread(cand)) > bound:
        worse = [sign * v for v in cand]
        ref = [sign * v for v in base]
        if max(worse) < min(ref):
            return "improved", worsening
        if min(worse) > max(ref) and worsening > bound:
            return "REGRESSION", worsening
        return "unresolved", worsening
    if worsening > bound:
        return "REGRESSION", worsening
    if worsening < -bound:
        return "improved", worsening
    return "ok", worsening


def collect(docs: list[dict], workload: str, metric: str) -> list[float]:
    """The metric's value in every file that has it (either pass's group)."""
    values = []
    for d in docs:
        section = d["workloads"][workload]
        for group in ("end_to_end", "per_layer"):
            if metric in section[group]:
                values.append(section[group][metric])
                break
    return values


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("files", nargs="*", help="exactly two files: base candidate")
    ap.add_argument("--base", nargs="+", default=[], metavar="A.json")
    ap.add_argument("--cand", nargs="+", default=[], metavar="B.json")
    args = ap.parse_args(argv)
    if args.files:
        if len(args.files) != 2 or args.base or args.cand:
            ap.error("give two positional files, or --base ... --cand ...")
        args.base, args.cand = [args.files[0]], [args.files[1]]
    if not args.base or not args.cand:
        ap.error("need a base set and a candidate set")

    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    base, cand = load_results(args.base), load_results(args.cand)
    bad = unresolved = 0
    for workload in (w["name"] for w in spec["workloads"]):
        if not all(workload in d["workloads"] for d in base + cand):
            continue
        print(f"\n== {workload}  (base n={len(base)}, candidate n={len(cand)}) ==")
        shares = []
        for docs in (base, cand):
            attempted = sum(d["workloads"][workload]["ops_attempted"] for d in docs)
            failed = sum(d["workloads"][workload]["ops_failed"] for d in docs)
            shares.append(failed / attempted if attempted else 1.0)
        verdict = "ok" if shares[1] <= shares[0] else "REGRESSION"
        bad += verdict != "ok"
        print(f"  {'failed-op share':30s} base {shares[0]:.4f}  cand {shares[1]:.4f}  {verdict}")

        for m in spec["end_to_end"]:
            a = collect(base, workload, m["name"])
            b = collect(cand, workload, m["name"])
            if not a or not b:
                continue
            verdict, worsening = judge(a, b, m["better"], m["bound"])
            bad += verdict == "REGRESSION"
            unresolved += verdict == "unresolved"
            qa, qb = quartiles(a), quartiles(b)
            print(
                f"  {m['name']:30s} base {qa[1]:.5g} [{qa[0]:.5g}, {qa[2]:.5g}]  "
                f"cand {qb[1]:.5g} [{qb[0]:.5g}, {qb[2]:.5g}] {m['unit']}  "
                f"worse by {worsening:+.1%} (bound {m['bound']:.0%}, "
                f"spread {max(spread(a), spread(b)):.1%})  {verdict}"
            )

        for m in spec["per_layer"]:
            name = m["name"]
            a = collect(base, workload, name)
            b = collect(cand, workload, name)
            if not a or not b:
                continue
            if name in EXACT_METRICS:
                same = len(set(a + b)) == 1
                bad += not same
                print(f"  {name:30s} {a[0]!r:>22} {'identical' if same else 'CHANGED: ' + repr(sorted(set(a + b)))}")
            else:
                med_a, med_b = statistics.median(a), statistics.median(b)
                delta = f"{(med_b - med_a) / abs(med_a):+.1%}" if med_a else "n/a"
                print(f"  {name:30s} base {med_a:.5g}  cand {med_b:.5g} {m['unit']}  ({delta})")

    print(f"\n{bad} regression(s)/change(s), {unresolved} unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
