"""A run's manifest does not depend on what the process ran before it.

The simulator core memoizes aggressively — contention compositions,
transport mixes, verified Alltoallw descriptor sets — and every one of
those tables lives on a per-run object (allocator, communicator).  A table
shared across runs would leak one run's history into the next run's memo
counters (they are in the manifest) or, worse, into its pricing.  Pin it:
run A, then a different run B, then A again; A's stable manifests must be
byte-identical.
"""

import json

from repro.core import RunConfig, run_fft_phase
from repro.telemetry.manifest import build_manifest

QUICK = dict(ecutwfc=30.0, alat=10.0, nbnd=32, telemetry=True)


def stable_manifest(config: RunConfig) -> str:
    result = run_fft_phase(config)
    manifest = build_manifest(result, wall_time_s=None, created="(stable)")
    return json.dumps(manifest, sort_keys=True)


def test_interleaved_run_leaves_no_trace_in_the_next_manifest():
    a = RunConfig(ranks=4, taskgroups=4, version="ompss_perfft", **QUICK)
    # Same grid (shared geometry and exchange plans), other executor, other
    # process grid, two nodes: different compositions, senders and plans.
    b = RunConfig(ranks=2, taskgroups=4, version="original", n_nodes=2, **QUICK)
    first = stable_manifest(a)
    other = stable_manifest(b)
    assert other != first
    assert stable_manifest(a) == first
