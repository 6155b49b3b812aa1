"""GridSpec expansion: ordering, keys, validation, serialization."""

import pytest

from repro.faults import FaultScenario
from repro.sweep import GridSpec, point_key

WORKLOAD = dict(ecutwfc=15.0, alat=6.0, nbnd=8)


class TestPointKey:
    def test_axis_order_is_key_order(self):
        assert point_key({"ranks": 8, "version": "original"}) == "ranks=8,version=original"

    def test_scalar_formatting(self):
        assert point_key({"a": 1.5, "b": True, "c": None}) == "a=1.5,b=True,c=None"


class TestGridSpec:
    def test_expansion_order_is_nested_loops(self):
        grid = GridSpec(
            axes={"ranks": (1, 2), "version": ("original", "ompss_perfft")},
            base=dict(WORKLOAD, taskgroups=2),
        )
        assert [p.key for p in grid.points()] == [
            "ranks=1,version=original",
            "ranks=1,version=ompss_perfft",
            "ranks=2,version=original",
            "ranks=2,version=ompss_perfft",
        ]

    def test_points_carry_full_configs(self):
        grid = GridSpec(axes={"ranks": (2,)}, base=dict(WORKLOAD, taskgroups=2))
        (point,) = grid.points()
        assert point.config.ranks == 2
        assert point.config.ecutwfc == WORKLOAD["ecutwfc"]
        assert point.assignment == {"ranks": 2}

    def test_n_points(self):
        grid = GridSpec(axes={"ranks": (1, 2, 3), "taskgroups": (1, 2)})
        assert grid.n_points == 6

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError, match="at least one axis"):
            GridSpec(axes={})

    def test_empty_axis_values_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            GridSpec(axes={"ranks": ()})

    def test_axis_shadowing_base_rejected(self):
        with pytest.raises(ValueError, match="shadow"):
            GridSpec(axes={"ranks": (1,)}, base={"ranks": 2})

    @pytest.mark.parametrize(
        "axes,base,named",
        [
            ({"rank": (1, 2)}, {}, "axis 'rank'"),
            ({"ranks": (1,)}, {"fft_backend": "numpy"}, "base parameter 'fft_backend'"),
        ],
    )
    def test_unknown_field_rejected_at_construction(self, axes, base, named):
        with pytest.raises(ValueError, match=named) as exc:
            GridSpec(axes=axes, base=base)
        assert "valid fields: ecutwfc, alat, nbnd" in str(exc.value)

    def test_invalid_config_surfaces_at_expansion(self):
        grid = GridSpec(axes={"ranks": (1,)}, base={"version": "bogus"})
        with pytest.raises(ValueError):
            grid.points()

    def test_to_dict_is_json_safe(self):
        grid = GridSpec(
            axes={"ranks": (1, 2)},
            base=dict(WORKLOAD, taskgroups=2),
        )
        doc = grid.to_dict()
        assert doc["axes"] == {"ranks": [1, 2]}
        assert doc["n_points"] == 2
        assert doc["base"]["taskgroups"] == 2

    def test_to_dict_serializes_fault_scenarios(self):
        scenario = FaultScenario(name="noise", seed=7, os_noise=0.25)
        grid = GridSpec(axes={"ranks": (1,)}, base={"faults": scenario})
        doc = grid.to_dict()
        assert doc["base"]["faults"]["name"] == "noise"
        assert doc["base"]["faults"]["os_noise"] == 0.25
