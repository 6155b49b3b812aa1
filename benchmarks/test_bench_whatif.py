"""Benchmark: what-if runtime attribution (the Dimemas-style replays)."""

from repro.experiments import run_ablation_whatif
from repro.machine import WHATIF_MACHINES


def test_bench_ablation_whatif(run_once):
    report = run_once(run_ablation_whatif)
    print("\n" + report.text)

    orig = report.data["original"]
    ompss = report.data["ompss_perfft"]
    assert list(orig) == ["measured", *WHATIF_MACHINES]

    # On a single node, communication transfer is not the dominant cost for
    # either version at full occupancy.
    assert orig["ideal_network"] > 0.8 * orig["measured"]

    # Memory contention owns a large slice of the original's runtime ...
    contention_orig = 1.0 - orig["infinite_bandwidth"] / orig["measured"]
    assert contention_orig > 0.15
    # ... and the per-FFT schedule has already recovered part of it: the
    # remaining contention share is smaller in absolute terms.
    orig_loss = orig["measured"] - orig["infinite_bandwidth"]
    ompss_loss = ompss["measured"] - ompss["infinite_bandwidth"]
    assert ompss_loss < orig_loss
