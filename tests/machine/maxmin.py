"""Max-min fairness, three ways, for checking the engine's one water filling.

* :func:`waterfill` is the definition: a fixpoint that grants every demand
  below the fair share in full and splits the rest, round after round.  It
  is the tolerance oracle.
* :func:`waterfill_vec` is the closed form in numpy (stable sort,
  cumulated sums, first feasible level), the pipeline behind the committed
  fixtures and the bitwise reference of the pricing tests.  Its
  over-subscription total is cumulated in sequence, as the engine sums it
  (numpy's ``sum`` pairs eight or more elements).
* :func:`grants` runs :func:`repro.machine.contention.water_level` on
  demands in any order, the way its callers do: they sum the total in
  their own order and walk the groups stably by demand.
"""

import numpy as np

from repro.machine.contention import water_level

_EPS = 1e-12


def waterfill(demands, capacity) -> list[float]:
    """Max-min fair allocation of ``capacity`` over ``demands`` (fixpoint)."""
    if capacity < 0:
        raise ValueError(f"capacity must be >= 0, got {capacity}")
    grants = [0.0] * len(demands)
    remaining = capacity
    unsat = [i for i, d in enumerate(demands) if d > 0.0]
    while unsat:
        fair = remaining / len(unsat)
        still_unsat = []
        for i in unsat:
            if demands[i] <= fair + _EPS:
                grants[i] = demands[i]
                remaining -= demands[i]
            else:
                still_unsat.append(i)
        if len(still_unsat) == len(unsat):
            for i in unsat:
                grants[i] = fair
            return grants
        unsat = still_unsat
        if remaining <= 0.0:
            break
    return grants


def waterfill_vec(demands, capacity, weights=None) -> np.ndarray:
    """Per-task grants of weighted demand groups, in numpy."""
    if capacity < 0:
        raise ValueError(f"capacity must be >= 0, got {capacity}")
    d = np.asarray(demands, dtype=float)
    m = d.size
    if m == 0:
        return np.empty(0)
    w = np.ones(m) if weights is None else np.asarray(weights, dtype=float)
    total = float(np.cumsum(w * d)[-1])
    if total <= capacity * (1.0 + _EPS):
        return d.copy()
    order = np.argsort(d, kind="stable")
    ds = d[order]
    ws = w[order]
    cum_w = np.cumsum(ws)
    cum_wd = np.cumsum(ws * ds)
    prev_w = np.concatenate(([0.0], cum_w[:-1]))
    prev_wd = np.concatenate(([0.0], cum_wd[:-1]))
    levels = (capacity - prev_wd) / (cum_w[-1] - prev_w)
    feasible = levels <= ds * (1.0 + _EPS)
    j = int(np.argmax(feasible)) if feasible.any() else m - 1
    return np.minimum(d, max(float(levels[j]), 0.0))


def grants(demands, capacity, weights=None) -> list[float]:
    """Per-task grants from the engine's :func:`water_level`."""
    demands = [float(d) for d in demands]
    weights = [1] * len(demands) if weights is None else list(weights)
    total = 0.0
    for w, d in zip(weights, demands):
        total += w * d
    order = sorted(range(len(demands)), key=demands.__getitem__)
    level = water_level(capacity, total, sum(weights), order, demands, weights)
    return [min(d, level) for d in demands]
