"""Sweep writers on generated results, the constructors that define what they
write, and their work bound.

ClusterPlan, SweepPoint and SweepResult convert and check their own fields,
so every result the writers see has a rising grid of finite Decimals, curves
of known policies that follow it point for point, and plans of exact types.
On every such result, including grids whose floats collide, NaN and infinite
raws and runs that do or do not share their objects, the writers equal the
reference writers of test_sweep_output byte for byte; each invariant the
constructors hold is refused in one ValueError line.
"""
import dataclasses
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spotplan import (ScalingSource, SweepSpec, bundled_simulated_catalog, recommend, run_sweep, sweep_rows,
                      sweep_to_csv, sweep_to_json)
from spotplan.catalog import InstanceSpec, Kind
from spotplan.planner import ClusterPlan, PlanRequest
from spotplan.scaling import LogisticParams
from spotplan.simulator import DEFAULT_POLICIES, SweepPoint, SweepResult

from test_sweep_output import assert_same_output

WRITERS = (sweep_rows, sweep_to_csv, sweep_to_json)

# Grid values, in rising order: two that round to the float 3.0, one that is
# -0.0 and one 0.0 as floats, and two beyond float range.
PWS = ("-1e-400", "0", "0.5", "1.25", "3", "3.00000000000000000001", "7.5", "1e400", "1e401")
RAWS = (0.0, -0.0, 0.5, 1e300, 5e-324, math.nan, math.inf, -math.inf)


def _plans(simulated_catalog):
    gpu, cpu, other = (simulated_catalog.by_name(name) for name in ("A", "M", "K"))
    return [
        None,
        ClusterPlan("single_anchor", gpu, 3, None, None, Decimal("1.25"), 12.5),
        ClusterPlan("tiering", gpu, 9, cpu, 2, Decimal("2.5"), 40.0),
        ClusterPlan("tiering", simulated_catalog.by_name("J"), 1, other, 1, Decimal("1E+2"), 5e-324),
    ]


@st.composite
def _results(draw, plans):
    values = sorted(set(draw(st.lists(st.sampled_from(PWS), max_size=8))), key=PWS.index)
    grid = tuple(Decimal(x) for x in values)
    curves = {}
    for policy in draw(st.permutations(DEFAULT_POLICIES))[:draw(st.integers(0, len(DEFAULT_POLICIES)))]:
        # The grid's own objects, or copies: equal values of the same digits, other objects.
        pws = grid if draw(st.booleans()) else [Decimal(str(pw)) for pw in grid]
        points, i = [], 0
        while i < len(pws):
            size = draw(st.integers(1, 3))
            raw, plan = draw(st.sampled_from(RAWS)), draw(st.sampled_from(plans))
            normalized = raw / 2
            shared = draw(st.booleans())
            for pw in pws[i:i + size]:
                if not shared:  # equal, but not the same objects
                    raw, normalized = float(str(raw)), float(str(normalized))
                    plan = plan and dataclasses.replace(plan)
                points.append(SweepPoint(pw, raw, normalized, plan))
            i += size
        curves[policy] = tuple(points)
    return SweepResult(grid=grid, curves=curves, normalizer=draw(st.sampled_from(RAWS)))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_generated_results_match_reference(simulated_catalog, data):
    assert_same_output(data.draw(_results(_plans(simulated_catalog))))


_GPU, _CPU = (bundled_simulated_catalog().by_name(name) for name in ("A", "M"))
_TIERING = dict(architecture="tiering", gpu_instance=_GPU, n_gpu=9, cpu_instance=_CPU, m_cpu=2,
                hourly_price=Decimal("2.5"), score_z=40.0)
_ANCHOR = dict(_TIERING, architecture="single_anchor", cpu_instance=None, m_cpu=None)
_GRID = (Decimal("0.5"), Decimal(1))
_POINTS = tuple(SweepPoint(pw, 1.0, 0.5, None) for pw in _GRID)


class _Name(str):
    def __repr__(self):
        return f"_Name({str.__repr__(self)})"


# name -> a constructor call that breaks one invariant.
_REFUSED = {
    **{f"plan {key}={value!r}": lambda key=key, value=value: ClusterPlan(**{**_TIERING, key: value})
       for key, value in [
        ("architecture", "single_anchor"), ("architecture", _Name("tiering")), ("architecture", ["tiering"]),
        ("n_gpu", True), ("n_gpu", 0), ("n_gpu", 2.0), ("m_cpu", None), ("m_cpu", 0), ("m_cpu", "2"),
        ("m_cpu", [4, 5]), ("hourly_price", 2.5), ("score_z", [6.5]), ("score_z", "fast"), ("score_z", 10**400),
        ("gpu_instance", None), ("cpu_instance", "M")]},
    **{f"single-anchor plan {key}={value!r}": lambda key=key, value=value: ClusterPlan(**{**_ANCHOR, key: value})
       for key, value in [("architecture", "tiering"), ("m_cpu", 4), ("m_cpu", {"m": [1, 2]})]},
    **{f"point {key}={value!r}": lambda key=key, value=value: SweepPoint(**{"pw": _GRID[0], "raw": 1.0,
                                                                            "normalized": 0.5, "plan": None,
                                                                            key: value})
       for key, value in [("raw", None), ("raw", True), ("normalized", "x"), ("normalized", 10**400),
                          ("plan", _ANCHOR)]},
    **{f"grid {grid!r}": lambda grid=grid: SweepResult(grid) for grid in [
        [Decimal(1)], (Decimal(1), Decimal(1)), (Decimal(2), Decimal(1)), (Decimal("NaN"),), (Decimal("sNaN"),),
        (Decimal(1), Decimal("Infinity")), (0.5, 1.0), ("0.5",)]},
    "normalizer None": lambda: SweepResult(_GRID, {"planner": _POINTS}, None),
    "curves as pairs": lambda: SweepResult(_GRID, [("planner", _POINTS)]),
    **{f"policy {policy!r}": lambda policy=policy: SweepResult(_GRID, {policy: _POINTS})
       for policy in ("unknown", _Name("planner"), 7, math.nan, None, ("planner",))},
    **{f"curve {name}": lambda curve=curve: SweepResult(_GRID, {"noscale": curve}) for name, curve in [
        ("short", _POINTS[:1]), ("long", _POINTS + _POINTS[1:]), ("shuffled", _POINTS[::-1]),
        ("as a list", [*_POINTS]), ("off the grid", (_POINTS[0], SweepPoint(Decimal(2), 1.0, 0.5, None))),
        ("with a pw of other digits", (_POINTS[0], SweepPoint(Decimal("1.0"), 1.0, 0.5, None))),
        ("with a pw of another type", (_POINTS[0], SweepPoint(1, 1.0, 0.5, None))),
        ("of plain values", ((_GRID[0], 1.0, 0.5, None), _POINTS[1]))]},
    "curve with a pw of the other sign": lambda: SweepResult(
        (Decimal("-0"),), {"noscale": (SweepPoint(Decimal(0), 1.0, 0.5, None),)}),
    # The CSV writer keys names on equality, so a str subclass would share an equal plain name's field.
    "instance name _Name('A')": lambda: InstanceSpec(name=_Name("A"), kind=Kind.GPU, od_price="1", spot_price="1",
                                                     network_bw=10, eflops=1),
    "logistic a=10**400": lambda: LogisticParams(10**400, 1, 1),
}
# Cases refused in words that name the field: ints beyond float range, which float() refuses with an OverflowError.
_NAMED = {f"plan score_z={10**400!r}": "score_z", f"point normalized={10**400!r}": "normalized",
          "logistic a=10**400": "a"}


@pytest.mark.parametrize("case", sorted(_REFUSED))
def test_each_invariant_is_refused_by_its_constructor(case):
    with pytest.raises(ValueError) as excinfo:
        _REFUSED[case]()
    assert "\n" not in str(excinfo.value)
    if case in _NAMED:
        assert str(excinfo.value) == f"{_NAMED[case]}: int too large to convert to float"


def test_a_non_finite_z_is_refused_in_the_planner_s_words(simulated_catalog):
    gpu, cpu = simulated_catalog.by_name("A"), simulated_catalog.by_name("M")
    for architecture, m, w, z in [("single_anchor", None, None, math.inf), ("tiering", 2, cpu, math.nan),
                                  ("tiering", 1, cpu, -math.inf)]:
        with pytest.raises(ValueError) as excinfo:
            ClusterPlan(architecture, gpu, 3, w, m, Decimal("1.25"), z)
        assert str(excinfo.value) == (f"the {architecture} plan of 3 x 'A' scores Z = {z}: "
                                      "the instance's eflops, prices or scaling overflow float")


def test_numbers_of_other_types_are_converted(simulated_catalog):
    gpu, cpu = simulated_catalog.by_name("A"), simulated_catalog.by_name("M")
    exact = ClusterPlan("tiering", gpu, 9, cpu, 2, Decimal("2.5"), 40.0)
    converted = ClusterPlan("tiering", gpu, np.int64(9), cpu, np.int32(2), Decimal("2.5"), np.float64(40.0))
    assert converted == exact
    assert [type(x) for x in (converted.n_gpu, converted.m_cpu, converted.score_z)] == [int, int, float]
    assert ClusterPlan("tiering", gpu, 9, cpu, 2, Decimal("2.5"), "40").score_z == 40.0
    point = SweepPoint(Decimal(1), np.float64(0.25), Decimal("0.125"), exact)
    assert (type(point.raw), type(point.normalized)) == (float, float)
    assert point == SweepPoint(Decimal(1), 0.25, 0.125, exact)
    result = SweepResult((Decimal(1),), {"planner": (point,)}, np.float64(2.0))
    assert type(result.normalizer) is float
    assert_same_output(result)


class _NumpyScaling(ScalingSource):
    """K(n) as numpy.float64, a float subclass, bit for bit the default's."""

    def factor(self, instance, n):
        return np.float64(super().factor(instance, n))


def test_a_numpy_scaling_source_plans_and_writes_as_the_default(simulated_catalog, aws_catalog):
    for catalog in (simulated_catalog, aws_catalog):
        plans = recommend(catalog, PlanRequest(pw="7.5", top_k=5), scaling=_NumpyScaling())
        assert plans == recommend(catalog, PlanRequest(pw="7.5", top_k=5))
        assert {type(plan.score_z) for plan in plans} == {float}
        result, default = run_sweep(catalog, SweepSpec(), _NumpyScaling()), run_sweep(catalog, SweepSpec())
        assert sweep_to_csv(result) == sweep_to_csv(default)
        assert sweep_to_json(result) == sweep_to_json(default)


class _CountedPw(Decimal):
    """A budget that counts its float() conversions."""

    floats = 0

    def __float__(self):
        _CountedPw.floats += 1
        return super().__float__()


def _counted(result):
    """result with each budget a _CountedPw, shared by the grid and the curves as before."""
    pws = {id(pw): _CountedPw(pw) for pw in result.grid}
    curves = {policy: tuple(dataclasses.replace(p, pw=pws[id(p.pw)]) for p in points)
              for policy, points in result.curves.items()}
    return SweepResult(tuple(pws.values()), curves, result.normalizer)


@pytest.mark.parametrize("fixture", ["simulated_catalog", "aws_catalog"])
@pytest.mark.parametrize("writer", WRITERS)
def test_writers_render_each_plan_once_and_sort_no_row(request, fixture, writer, writer_work):
    result = _counted(run_sweep(request.getfixturevalue(fixture), SweepSpec()))
    plans = {id(p.plan) for points in result.curves.values() for p in points if p.plan}
    _CountedPw.floats = 0
    reads, sorts = writer_work(writer, result)
    assert len(plans) > 100
    assert reads == dict.fromkeys(plans, 1)
    assert max(sorts, default=0) <= len(result.curves)  # the policy order only
    assert _CountedPw.floats == len(result.grid)  # so no row has a sort key


@pytest.mark.parametrize("writer", WRITERS)
def test_a_result_out_of_grid_order_is_sorted(simulated_catalog, writer, writer_work):
    # A curve out of grid order is refused, so no writer sees one; curves inserted
    # out of policy order give rows in grid-major, policy order with no sort (the
    # JSON "plans" map alone keeps the curves' own order, as the reference does).
    result = _counted(run_sweep(simulated_catalog, SweepSpec(pw_max="2", pw_step="0.5")))
    with pytest.raises(ValueError, match="in grid order"):
        dataclasses.replace(result, curves={policy: points[::-1] for policy, points in result.curves.items()})
    reversed_policies = dataclasses.replace(result, curves=dict(reversed(result.curves.items())))
    assert list(reversed_policies.curves) != list(result.curves)
    _CountedPw.floats = 0
    _, sorts = writer_work(writer, reversed_policies)
    assert sorts == []
    assert _CountedPw.floats == len(result.grid)
    assert sweep_rows(reversed_policies) == sweep_rows(result)
    assert_same_output(reversed_policies)
