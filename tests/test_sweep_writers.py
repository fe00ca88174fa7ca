"""Sweep writers on generated results, and their work bound.

Each hand-built SweepResult mixes what run_sweep never makes: grids whose
floats collide or hold NaN, curves that are short or shuffled against the
grid, unknown policies, and runs that do or do not share their objects.  On
results of planner types the writers must still equal the reference writers
of test_sweep_output byte for byte; sweep_to_csv and sweep_to_json refuse
any other result in one line, and sweep_rows still equals its reference.
"""
import dataclasses
import math
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spotplan import SweepSpec, run_sweep, sweep_rows, sweep_to_csv, sweep_to_json
from spotplan.planner import ClusterPlan
from spotplan.simulator import SweepPoint, SweepResult

from test_sweep_output import _named, assert_same_output, reference_sweep_rows

WRITERS = (sweep_rows, sweep_to_csv, sweep_to_json)

# Grid values: two that round to the float 3.0, a NaN, and plain budgets.
PWS = ("0", "0.5", "1.25", "3", "3.00000000000000000001", "7.5", "NaN")
POLICIES = ("planner", "noscale", "cost_first", "performance_first", "unknown", "z-last")
RAWS = (0.0, -0.0, 0.5, 1e300, 5e-324, math.nan, math.inf, -math.inf)


def _plans(simulated_catalog):
    gpu, cpu = simulated_catalog.by_name("A"), simulated_catalog.by_name("M")
    return [
        None,
        ClusterPlan("single_anchor", gpu, 3, None, None, Decimal("1.25"), 12.5),
        ClusterPlan("tiering", gpu, 9, cpu, 2, Decimal("2.5"), 40.0),
        ClusterPlan("tiering", gpu, 1, cpu, None, Decimal("0.75"), math.nan),  # m None with a CPU
        ClusterPlan("single_anchor", gpu, 3, None, 4, Decimal("1"), math.inf),  # m without a CPU
    ]


@st.composite
def _results(draw, plans):
    values = draw(st.lists(st.sampled_from(PWS), max_size=8))
    if draw(st.booleans()):  # rising, as run_sweep makes grids
        values = sorted(set(values) - {"NaN"}, key=Decimal)
    grid = tuple(Decimal(x) for x in values)
    if draw(st.booleans()):  # one pw object twice
        grid += grid[-1:]
    curves = {}
    for policy in draw(st.lists(st.sampled_from(POLICIES), unique_by=id, max_size=5)):
        shape = draw(st.sampled_from(["grid", "short", "shuffled", "copies"]))
        pws = list(grid)
        if shape == "short":
            pws = pws[:draw(st.integers(0, len(pws)))]
        elif shape == "shuffled":
            pws = draw(st.permutations(pws))
        elif shape == "copies":  # equal values, other objects
            pws = [Decimal(str(pw)) for pw in pws]
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


def _foreign(simulated_catalog):
    """name -> a result of planner types but for one value."""
    gpu = simulated_catalog.by_name("A")
    plan = ClusterPlan("single_anchor", gpu, 3, None, None, Decimal("1.25"), 12.5)
    pw = Decimal(1)

    def result(policy="planner", raw=1.0, normalized=0.5, p=plan, normalizer=2.0):
        return SweepResult((pw,), {policy: (SweepPoint(pw, raw, normalized, p),)}, normalizer)

    cases = {f"policy {policy!r}": result(policy=policy) for policy in (7, 1.5, True, None, math.nan, ("planner",))}
    cases["an empty curve of policy 7"] = SweepResult((pw,), {"planner": (), 7: ()}, 2.0)
    cases.update((f"raw {raw!r}", result(raw=raw)) for raw in (1, True, None, "1.0"))
    cases.update((f"normalized {x!r}", result(normalized=x, p=None)) for x in (0, None))
    cases.update((f"normalizer {x!r}", result(normalizer=x)) for x in (0, None))
    fields = dict(n_gpu=True, hourly_price=1.25, score_z=12, architecture=["single", "anchor"], m_cpu="2",
                  gpu_instance=_named(gpu, ("g", "pu")))
    cases.update((f"plan {key}={value!r}", result(p=dataclasses.replace(plan, **{key: value})))
                 for key, value in fields.items())
    return cases


def test_results_of_other_types_are_refused_by_the_writers(simulated_catalog):
    for name, result in _foreign(simulated_catalog).items():
        for writer in (sweep_to_csv, sweep_to_json):
            with pytest.raises(ValueError, match="^sweep_to_csv and sweep_to_json write only results of planner types"):
                writer(result)
        assert repr(sweep_rows(result)) == repr(reference_sweep_rows(result)), name


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


def test_a_lone_nan_budget_keeps_the_curve_order():
    """The rows of a one-point NaN grid compare equal in the reference's sort,
    so the curves keep their insertion order, noscale first here; the
    grid-major order put the planner first."""
    point = SweepPoint(Decimal("NaN"), 0.0, 0.0, None)
    result = SweepResult(grid=(point.pw,), curves={"noscale": (point,), "planner": (point,)})
    assert_same_output(result)
    assert [row["policy"] for row in sweep_rows(result)] == ["noscale", "planner"]


@pytest.mark.parametrize("writer", WRITERS)
def test_a_result_out_of_grid_order_is_sorted(simulated_catalog, writer, writer_work):
    # The counts see the sort that the grid-major order skips.
    result = _counted(run_sweep(simulated_catalog, SweepSpec(pw_max="2", pw_step="0.5")))
    shuffled = dataclasses.replace(result, curves={policy: points[::-1] for policy, points in result.curves.items()})
    _CountedPw.floats = 0
    _, sorts = writer_work(writer, shuffled)
    rows = len(result.grid) * len(result.curves)
    assert max(sorts, default=0) == rows
    assert _CountedPw.floats == len(result.grid) + rows
