"""Hierarchical spans over the simulated clock.

A :class:`Span` is one named interval on one *track* (an execution stream —
usually a ``(rank, thread)`` tuple — or a logical track like ``"driver"``).
Nesting is positional, as in Perfetto/Chrome tracing: spans on the same track
nest by time containment, so the run span contains each rank's executor span,
which contains its per-iteration spans, which contain the compute-phase and
MPI slices derived from the trace records.

Because rank programs are generators multiplexed on one simulator, there is
no usable thread-local "current span"; callers open and close spans
explicitly (or with :meth:`SpanLog.span`, whose context manager samples a
caller-supplied clock — safe across ``yield`` because the generator frame
owns the ``with`` block).
"""

from __future__ import annotations

import contextlib
import dataclasses
import typing as _t

__all__ = ["Span", "SpanLog"]


@dataclasses.dataclass
class Span:
    """One (possibly still open) interval on a track."""

    name: str
    category: str
    track: _t.Hashable
    t_begin: float
    t_end: float | None = None
    args: dict = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span length; 0.0 while still open."""
        if self.t_end is None:
            return 0.0
        return self.t_end - self.t_begin


class SpanLog:
    """Append-only store of spans with explicit begin/end."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._spans: list[Span] = []

    def __len__(self) -> int:
        return len(self._spans)

    def begin(
        self,
        track: _t.Hashable,
        name: str,
        category: str,
        t: float,
        **args: _t.Any,
    ) -> Span | None:
        """Open a span at time ``t``; returns its handle (None if disabled)."""
        if not self.enabled:
            return None
        span = Span(name=name, category=category, track=track, t_begin=t, args=args)
        self._spans.append(span)
        return span

    def end(self, span: Span | None, t: float) -> None:
        """Close a span handle returned by :meth:`begin` (None is a no-op)."""
        if span is None:
            return
        if span.t_end is not None:
            raise ValueError(f"span {span.name!r} already closed")
        if t < span.t_begin:
            raise ValueError(
                f"span {span.name!r} would close at {t} before its begin {span.t_begin}"
            )
        span.t_end = t

    def add(
        self,
        track: _t.Hashable,
        name: str,
        category: str,
        t_begin: float,
        t_end: float,
        **args: _t.Any,
    ) -> None:
        """Record an already-complete span (no-op if disabled)."""
        if not self.enabled:
            return
        if t_end < t_begin:
            raise ValueError(f"span {name!r} ends ({t_end}) before it begins ({t_begin})")
        self._spans.append(
            Span(name=name, category=category, track=track, t_begin=t_begin, t_end=t_end, args=args)
        )

    @contextlib.contextmanager
    def span(
        self,
        track: _t.Hashable,
        name: str,
        category: str,
        clock: _t.Callable[[], float],
        **args: _t.Any,
    ) -> _t.Iterator[Span | None]:
        """Context manager sampling ``clock()`` at entry and exit.

        A span someone already ended (the driver closes what an aborted
        attempt left open) is left as it is when its abandoned generator
        frame is finally collected.
        """
        handle = self.begin(track, name, category, clock(), **args)
        try:
            yield handle
        finally:
            if handle is not None and handle.t_end is None:
                self.end(handle, clock())

    # -- queries -------------------------------------------------------------

    def all(self) -> list[Span]:
        """All spans in creation order (open ones included)."""
        return list(self._spans)

    def closed(self) -> list[Span]:
        """Completed spans sorted by (track, begin time, -duration)."""
        done = [s for s in self._spans if s.t_end is not None]
        return sorted(done, key=lambda s: (repr(s.track), s.t_begin, -s.duration))

    def tracks(self) -> list:
        """Distinct tracks, sorted by repr."""
        return sorted({s.track for s in self._spans}, key=repr)

    def of_track(self, track: _t.Hashable) -> list[Span]:
        """Closed spans of one track, outermost first at equal begin times."""
        return [s for s in self.closed() if s.track == track]
