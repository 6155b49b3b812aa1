"""The paper's experiments (``fig2`` ... ``tuning``) and ``all``."""

from __future__ import annotations

from repro._lazy import resolve
from repro.cli.parser import EXPERIMENTS, QUICK_RANKS, QUICK_WORKLOAD


def _experiment_kwargs(name: str, quick: bool) -> dict:
    if not quick:
        return {}
    kwargs: dict = dict(QUICK_WORKLOAD)
    if name in ("fig2", "table1", "table2", "fig6"):
        kwargs["ranks"] = QUICK_RANKS
    if name == "ablation-ntg":
        kwargs["total_procs"] = 16
    if name == "multinode":
        kwargs["nodes"] = (1, 2)
    if name == "validation":
        kwargs.update(ecutwfc=15.0, alat=6.0, nbnd=8)
    if name == "resilience":
        kwargs.update(nbnd=16, taskgroups=4)
    if name == "tuning":
        kwargs.update(
            ecutwfc=12.0,
            alat=5.0,
            nbnd=8,
            cells=(
                ("2x2 original", 2, "original", 2, 1),
                ("4x2 original 2n", 4, "original", 2, 2),
            ),
            top_k=4,
            survivors=2,
        )
    return kwargs


def cmd_experiments(args) -> int:
    """Run ``args.names`` (one experiment, or every one for ``all``)."""
    for name in args.names:
        kwargs = _experiment_kwargs(name, args.quick)
        if name != "validation":  # validation checks full results; no sweep grid
            kwargs["jobs"] = args.jobs
        report = resolve(EXPERIMENTS[name][0])(**kwargs)
        print(f"\n{'=' * 72}\n{report.text}")
    return 0
