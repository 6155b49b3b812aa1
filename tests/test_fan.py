"""The data plane's fan helper: row shares cover every row once, balanced."""

import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _fan


@settings(max_examples=200, deadline=None)
@given(
    items=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 7)), min_size=1, max_size=6),
    k=st.integers(2, 5),
)
def test_shares_cover_every_row_with_points_once(items, k):
    total = sum(rows * per for rows, per in items)
    if total == 0:
        return
    shares = _fan._shares(items, k, total)
    assert 1 <= len(shares) <= k
    covered = sorted((i, row) for share in shares for i, lo, hi in share for row in range(lo, hi))
    assert covered == [(i, row) for i, (rows, per) in enumerate(items) if per for row in range(rows)]
    # Shares take the rows in order, and none exceeds an equal split by
    # more than one row of the largest item.
    pieces = [piece for share in shares for piece in share]
    assert pieces == sorted(pieces)
    biggest = max(per for _rows, per in items)
    for share in shares:
        points = sum((hi - lo) * items[i][1] for i, lo, hi in share)
        assert points <= total / k + biggest


def test_over_rows_runs_every_row_once_at_every_width(monkeypatch):
    items = [(5, 3), (0, 4), (7, 1), (2, 9)]
    for width in (1, 2, 3, 4):
        monkeypatch.setattr(_fan, "_cpus", lambda width=width: width)
        seen, lock = [], threading.Lock()

        def body(i, lo, hi):
            with lock:
                seen.extend((i, row) for row in range(lo, hi))

        _fan.over_rows(body, items, 1)
        assert sorted(seen) == [(i, row) for i, (rows, _per) in enumerate(items) for row in range(rows)]


def test_one_slice_never_asks_for_the_pool(monkeypatch):
    monkeypatch.setattr(_fan, "_cpus", lambda: 4)

    def no_pool():
        raise AssertionError("an unfanned pass asked for the pool")

    monkeypatch.setattr(_fan, "_executor", no_pool)
    calls = []
    _fan.over_rows(lambda i, lo, hi: calls.append((i, lo, hi)), [(3, 10)], 1 << 20)
    assert calls == [(0, 0, 3)]
