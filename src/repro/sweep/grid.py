"""Declarative sweep grids over :class:`~repro.core.config.RunConfig`.

A :class:`GridSpec` is the cartesian product of a few *axes* (``ranks``,
``version``, ``taskgroups``, ...) over a shared base of workload parameters.
Expansion order is deterministic: axes vary right-to-left in declaration
order (the last axis fastest), exactly like nested loops — so a grid is a
reproducible, addressable list of points no matter where or in what order
they later execute.

Every point gets a stable *key* (``"ranks=8,version=original"``) that names
it in sweep manifests; resuming a partial sweep matches on these keys.
"""

from __future__ import annotations

import dataclasses
import itertools
import typing as _t

from repro.core.config import RunConfig

__all__ = ["GridSpec", "SweepPoint", "point_key"]

#: Axis values must be scalars (JSON-safe and embeddable in a point key).
AxisValue = _t.Union[int, float, str, bool, None]


def point_key(assignment: _t.Mapping[str, AxisValue]) -> str:
    """The canonical name of one grid point: ``"axis=value,..."`` in axis order."""
    return ",".join(f"{k}={v}" for k, v in assignment.items())


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """One expanded grid point: its key, axis assignment and full config."""

    key: str
    assignment: dict[str, AxisValue]
    config: RunConfig


@dataclasses.dataclass(frozen=True)
class GridSpec:
    """A sweep = base config parameters x named axes.

    Parameters
    ----------
    axes:
        Mapping of :class:`RunConfig` field name to the sequence of values
        that axis takes.  Declaration order is the expansion order.
    base:
        Keyword arguments shared by every point (workload, seed, faults...).

    An axis or base name that is not a :class:`RunConfig` field is a
    ``ValueError`` here, naming the field — not a ``TypeError`` at expansion.
    """

    axes: dict[str, tuple[AxisValue, ...]]
    base: dict[str, _t.Any] = dataclasses.field(default_factory=dict)

    def __init__(
        self,
        axes: _t.Mapping[str, _t.Sequence[AxisValue]],
        base: _t.Mapping[str, _t.Any] | None = None,
    ):
        if not axes:
            raise ValueError("a grid needs at least one axis")
        normalized = {name: tuple(values) for name, values in axes.items()}
        for name, values in normalized.items():
            if not values:
                raise ValueError(f"axis {name!r} has no values")
        fields = [f.name for f in dataclasses.fields(RunConfig)]
        for what, names in (("axis", normalized), ("base parameter", base or {})):
            for name in names:
                if name not in fields:
                    raise ValueError(
                        f"{what} {name!r} is not a RunConfig field; "
                        f"valid fields: {', '.join(fields)}"
                    )
        overlap = set(normalized) & set(base or {})
        if overlap:
            raise ValueError(f"axes shadow base parameters: {sorted(overlap)}")
        object.__setattr__(self, "axes", normalized)
        object.__setattr__(self, "base", dict(base or {}))

    @property
    def n_points(self) -> int:
        n = 1
        for values in self.axes.values():
            n *= len(values)
        return n

    def points(self) -> list[SweepPoint]:
        """Expand the grid into its ordered list of points."""
        names = list(self.axes)
        out = []
        for combo in itertools.product(*self.axes.values()):
            assignment = dict(zip(names, combo))
            config = RunConfig(**{**self.base, **assignment})
            out.append(
                SweepPoint(key=point_key(assignment), assignment=assignment, config=config)
            )
        return out

    def to_dict(self) -> dict:
        """JSON-safe description for the sweep manifest's ``sweep.grid``."""
        base: dict[str, _t.Any] = {}
        for k, v in self.base.items():
            if k == "faults" and v is not None:
                from repro.faults.plan import scenario_to_dict

                v = scenario_to_dict(v)
            base[k] = v
        return {
            "axes": {name: list(values) for name, values in self.axes.items()},
            "base": base,
            "n_points": self.n_points,
        }
