import csv
import dataclasses
import hashlib
import io
import itertools
import json
import math
import random
import warnings
from bisect import bisect_right
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spotplan import (
    SINGLE_ANCHOR,
    TIERING,
    Catalog,
    InstanceSpec,
    Kind,
    LogisticParams,
    PlanRequest,
    ScalingSource,
    SweepPoint,
    SweepSpec,
    UnitScaling,
    default_saturation_table,
    estimate_cost,
    evaluate_performance,
    flopp,
    plan_cost_first,
    plan_noscale,
    plan_performance_first,
    recommend,
    run_sweep,
    sweep_rows,
    sweep_to_csv,
    sweep_to_json,
)
from spotplan.planner import MAX_INSTANCES, FloppScore, _rows, _SingleAnchorRow, _TieringRow
from spotplan.simulator import DEFAULT_POLICIES, MAX_GRID_POINTS, _noscale_wake, _undominated, _z_tables

# L(1) with the reference parameters; frozen from direct evaluation.
K_AT_1 = 0.633170399973


@pytest.fixture(scope="module")
def default_sweep(simulated_catalog):
    return run_sweep(simulated_catalog, SweepSpec())


class TestEvaluatePerformance:
    def test_none_plan_scores_zero(self):
        assert evaluate_performance(None) == 0.0

    def test_single_tiering_node(self, simulated_catalog, sat_table, best_of):
        cat_a = simulated_catalog.by_name("A")
        cat_m = simulated_catalog.by_name("M")
        plan = best_of(TIERING, Catalog((cat_a, cat_m)), PlanRequest(pw="0.4"), sat=sat_table)
        assert plan.n_gpu == 1
        assert evaluate_performance(plan) == pytest.approx(100 * K_AT_1, rel=1e-9)

    def test_linear_in_eflops(self, simulated_catalog):
        from spotplan import Catalog, InstanceSpec, Kind

        def perf(eflops):
            v = InstanceSpec(name="v", kind=Kind.GPU, od_price="1", spot_price="0.5",
                             network_bw=10, eflops=eflops, memory=16)
            plans = recommend(Catalog((v,)), PlanRequest(pw="3"))
            return evaluate_performance(plans[0])

        assert perf(200) == pytest.approx(2 * perf(100), rel=1e-12)

    def test_anchor_counts_as_trainer(self, simulated_catalog, best_of):
        cat = Catalog((simulated_catalog.by_name("J"),))
        plan = best_of(SINGLE_ANCHOR, cat, PlanRequest(pw="0.5"))
        source = ScalingSource()
        expected = plan.n_gpu * 50 * source.factor(plan.gpu_instance, plan.n_gpu)
        assert evaluate_performance(plan, source) == pytest.approx(expected, rel=1e-12)


class TestEstimateCost:
    def test_unit_workload(self, simulated_catalog):
        plan = recommend(simulated_catalog, PlanRequest(pw="3"))[0]
        perf = evaluate_performance(plan)
        makespan, cost = estimate_cost(plan, total_ops=3600 * perf)
        assert makespan == pytest.approx(1.0, rel=1e-12)
        assert cost == pytest.approx(float(plan.hourly_price), rel=1e-12)

    def test_linearity(self, simulated_catalog):
        plan = recommend(simulated_catalog, PlanRequest(pw="3"))[0]
        m1, c1 = estimate_cost(plan, total_ops=1e9)
        m2, c2 = estimate_cost(plan, total_ops=2e9)
        assert m2 == pytest.approx(2 * m1, rel=1e-12)
        assert c2 == pytest.approx(2 * c1, rel=1e-12)

    def test_cheaper_plan_costs_less_at_equal_performance(self, simulated_catalog, best_of):
        v = simulated_catalog.by_name("D")
        cheap = best_of(TIERING, Catalog((v, simulated_catalog.by_name("M"))), PlanRequest(pw="3"))
        pricey = best_of(TIERING, Catalog((v, simulated_catalog.by_name("N"))), PlanRequest(pw="3"))
        assert cheap.n_gpu == pricey.n_gpu  # same performance
        assert cheap.hourly_price < pricey.hourly_price
        _, cost_cheap = estimate_cost(cheap, 1e9)
        _, cost_pricey = estimate_cost(pricey, 1e9)
        assert cost_cheap < cost_pricey

    def test_zero_performance_rejected(self):
        with pytest.raises(ValueError, match="cannot make progress"):
            estimate_cost(None, total_ops=1e9)

    def test_zero_workload_rejected(self, simulated_catalog):
        plan = recommend(simulated_catalog, PlanRequest(pw="3"))[0]
        with pytest.raises(ValueError, match="total_ops"):
            estimate_cost(plan, total_ops=0)

    @pytest.mark.parametrize("total_ops", [math.inf, math.nan])
    def test_non_finite_workload_rejected(self, simulated_catalog, total_ops):
        plan = recommend(simulated_catalog, PlanRequest(pw="3"))[0]
        with pytest.raises(ValueError, match="total_ops must be positive and finite"):
            estimate_cost(plan, total_ops=total_ops)

    def test_overflowing_throughput_is_not_a_free_plan(self):
        # performance * 3600 overflows float, which made the makespan and cost 0.0.
        gpu = InstanceSpec(name="g", kind=Kind.GPU, od_price="1", spot_price="1", network_bw=10,
                           eflops=1e305, memory=16)
        plan = recommend(Catalog((gpu,)), PlanRequest(pw="3", top_k=1))[0]
        assert (plan.architecture, plan.n_gpu) == (SINGLE_ANCHOR, 3)
        with pytest.raises(ValueError, match="not finite and positive"):
            estimate_cost(plan, total_ops=1e9)


class TestSweepSpec:
    def test_default_grid_has_101_points(self):
        grid = SweepSpec().grid()
        assert len(grid) == 101
        assert grid[0] == Decimal("0")
        assert grid[-1] == Decimal("10")
        assert grid[3] == Decimal("0.3")  # exact decimal, no drift

    def test_coarse_grid(self):
        grid = SweepSpec(pw_min="0", pw_max="10", pw_step="5").grid()
        assert [str(g) for g in grid] == ["0", "5", "10"]

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(pw_min="5", pw_max="5")
        with pytest.raises(ValueError):
            SweepSpec(pw_step="0")
        with pytest.raises(ValueError):
            SweepSpec(policies=("nonsense",))

    def test_step_beyond_the_range_gives_one_infeasible_point(self, simulated_catalog):
        spec = SweepSpec(pw_max="0.05", pw_step="0.1")
        assert spec.grid() == (Decimal(0),)
        result = run_sweep(simulated_catalog, spec)
        assert result.normalizer == 0.0
        for policy in spec.policies:
            assert result.curve(policy) == (SweepPoint(pw=Decimal(0), raw=0.0, normalized=0.0, plan=None),)

    def test_grid_size_is_capped(self):
        with pytest.raises(ValueError, match="grid has 10000000001 points"):
            SweepSpec(pw_step="1e-9")
        with pytest.raises(ValueError, match=r"grid has more than 10\*\*28 points"):
            SweepSpec(pw_step="1e-40")
        step = Decimal("0.001")
        largest = SweepSpec(pw_max=(MAX_GRID_POINTS - 1) * step, pw_step=step)
        assert len(largest.grid()) == MAX_GRID_POINTS
        with pytest.raises(ValueError, match=f"grid has {MAX_GRID_POINTS + 1} points"):
            SweepSpec(pw_max=MAX_GRID_POINTS * step, pw_step=step)

    def test_max_instances_is_capped(self):
        assert SweepSpec(max_instances=MAX_INSTANCES).max_instances == MAX_INSTANCES
        with pytest.raises(ValueError, match=f"max_instances must be in 1..{MAX_INSTANCES}, not 10001"):
            SweepSpec(max_instances=MAX_INSTANCES + 1)


class TestRunSweep:
    def test_planner_curve_non_decreasing(self, default_sweep):
        raws = [p.raw for p in default_sweep.curve("planner")]
        assert all(b >= a for a, b in zip(raws, raws[1:]))

    def test_self_normalization_at_top(self, default_sweep):
        assert default_sweep.curve("planner")[-1].normalized == 1.0

    def test_planner_dominates_baselines(self, default_sweep):
        curves = default_sweep.curves
        for policy in ("noscale", "cost_first", "performance_first"):
            for planner_pt, other_pt in zip(curves["planner"], curves[policy]):
                assert planner_pt.raw >= other_pt.raw

    def test_stepwise_pattern(self, default_sweep):
        raws = [p.raw for p in default_sweep.curve("planner")]
        flat_pairs = sum(1 for a, b in zip(raws, raws[1:]) if a == b)
        assert flat_pairs > 0  # constant between transition points
        assert len(set(raws)) < len(raws)

    def test_zero_budget_point_has_no_plan(self, default_sweep):
        for policy, points in default_sweep.curves.items():
            assert points[0].plan is None
            assert points[0].raw == 0.0

    def test_curves_share_grid_length(self, default_sweep):
        lengths = {len(points) for points in default_sweep.curves.values()}
        assert lengths == {101}

    def test_huge_budgets_fill_max_instances(self, simulated_catalog):
        spec = SweepSpec(pw_min="1e39", pw_max="1e40", pw_step="1e39")
        result = run_sweep(simulated_catalog, spec)
        assert len(result.grid) == 10
        for policy in spec.policies:
            plans = [point.plan for point in result.curve(policy)]
            assert all(p.n_gpu == spec.max_instances for p in plans)
            assert len({p.summary()["hourly_price"] for p in plans}) == 1

    def test_deterministic_across_runs(self, simulated_catalog):
        spec = SweepSpec(pw_max="3", pw_step="0.7")
        first = sweep_to_csv(run_sweep(simulated_catalog, spec))
        second = sweep_to_csv(run_sweep(simulated_catalog, spec))
        assert first == second


class TestSerialization:
    def test_csv_columns_and_row_count(self, default_sweep):
        text = sweep_to_csv(default_sweep)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 101 * 4
        assert list(rows[0].keys()) == [
            "pw", "policy", "raw", "normalized", "architecture",
            "gpu", "gpu_count", "cpu", "cpu_count", "hourly_price",
        ]

    def test_json_matches_csv_content(self, default_sweep):
        payload = json.loads(sweep_to_json(default_sweep))
        csv_rows = list(csv.DictReader(io.StringIO(sweep_to_csv(default_sweep))))
        assert len(payload["rows"]) == len(csv_rows)
        for jrow, crow in zip(payload["rows"], csv_rows):
            assert float(crow["pw"]) == jrow["pw"]
            assert crow["policy"] == jrow["policy"]
            assert float(crow["raw"]) == pytest.approx(jrow["raw"], rel=1e-15)
            if crow["gpu"]:
                assert crow["gpu"] == jrow["gpu"]
                assert int(crow["gpu_count"]) == jrow["gpu_count"]
            else:
                assert jrow["gpu"] is None

    def test_json_carries_full_plans(self, default_sweep):
        payload = json.loads(sweep_to_json(default_sweep))
        planner_plans = payload["plans"]["planner"]
        assert len(planner_plans) == 101
        last = planner_plans[-1]["plan"]
        assert set(last) == {
            "architecture", "gpu", "gpu_count", "cpu", "cpu_count",
            "hourly_price", "score_z",
        }

    def test_rows_sorted_by_grid_then_policy(self, default_sweep):
        rows = sweep_rows(default_sweep)
        pws = [r["pw"] for r in rows]
        assert pws == sorted(pws)
        first_four = [r["policy"] for r in rows[:4]]
        assert first_four == ["planner", "noscale", "cost_first", "performance_first"]


# sha256 of the default sweep's CSV per bundled catalog; the benchmark's
# output check (perfbench/check.py) pins the same values.
PINNED_SWEEP_CSV_SHA256 = {
    "simulated_catalog": "453c0da135057f7cc8cfa9b3bdc268a454d54869968d3d0ce32fa1b97c7c1398",
    "aws_catalog": "ca1ca79993477537d3cffbf8a6a989302863ffb2dc3568c3c509f696db6a5544",
}


@pytest.mark.parametrize("fixture", sorted(PINNED_SWEEP_CSV_SHA256))
def test_bundled_sweep_csv_bytes_are_pinned(request, fixture):
    text = sweep_to_csv(run_sweep(request.getfixturevalue(fixture), SweepSpec()))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SWEEP_CSV_SHA256[fixture]


def _sweep_case(rng):
    """A random catalog and SweepSpec.

    Half the catalogs price everything in multiples of the grid step or of a
    half or quarter of it, so grid points land exactly on the price of some
    row's next n, several of them within one step.  About a third of the GPU
    types carry their own scaling fit (some superlinear).  A quarter of the
    cases have cheap spot prices and max_instances 300, which reaches the
    float plateau of Z, where Z stops rising and ties.
    """
    step = Decimal(rng.choice(["0.05", "0.07", "0.1", "0.13", "0.25"]))
    unit = step / rng.choice([1, 2, 4]) if rng.random() < 0.5 else None
    plateau = rng.random() < 0.25

    def price(lo, hi):
        if unit is not None:
            return unit * rng.randint(max(1, int(lo / unit)), max(1, int(hi / unit)))
        return Decimal(rng.randint(int(lo * 10000), int(hi * 10000))) / 10000

    specs = []
    for i in range(rng.randint(1, 4)):
        od = price(Decimal("0.1"), Decimal("2.5"))
        spot = price(Decimal("0.01"), Decimal("0.03")) if plateau else price(Decimal("0.03"), od)
        scaling = None
        if rng.random() < 0.35:
            a = rng.uniform(0.05, 0.4)
            scaling = LogisticParams(a=a, b=rng.uniform(0.5, 1 + 1.9 / a), c=rng.uniform(1.5, 40))
        specs.append(InstanceSpec(
            name=f"g{i}", kind=Kind.GPU, od_price=od, spot_price=min(od, spot),
            network_bw=rng.choice([1.7, 5, 10, 25, 40]), eflops=rng.randint(20, 1200),
            memory=16, scaling_params=scaling,
        ))
    for i in range(rng.randint(0, 4)):
        od = price(Decimal("0.03"), Decimal("0.6"))
        specs.append(InstanceSpec(
            name=f"c{i}", kind=Kind.CPU, od_price=od, spot_price=od,
            network_bw=rng.choice([5, 10]), eflops=0, memory=rng.choice([0.5, 8]),
        ))
    pw_min = rng.choice([Decimal(0), step * rng.randint(1, 5), Decimal("0.31")])
    if plateau:
        pw_min += rng.randint(8, 30)
    spec = SweepSpec(
        pw_min=pw_min,
        pw_max=pw_min + step * rng.randint(5, 60),
        pw_step=step,
        policies=rng.choice([DEFAULT_POLICIES, ("noscale", "cost_first"), ("performance_first",)]),
        buffer_count=rng.choice([1, 2, 20]),
        max_instances=300 if plateau else rng.choice([1, 2, 5, 17, 40, 256]),
    )
    return Catalog(tuple(specs)), spec


def test_equal_z_goes_to_the_cheaper_cpu(sat_table):
    # In the step to pw = 0.5 both tiering rows of v reach n = 2 = max_instances.
    # The dearer CPU's row comes first in that step, and the tie on Z must
    # still go to the cheaper CPU.
    v = InstanceSpec(name="v", kind=Kind.GPU, od_price="0.4403", spot_price="0.1012",
                     network_bw=1.7, eflops=100, memory=16)
    dear, cheap = (
        InstanceSpec(name=name, kind=Kind.CPU, od_price=price, spot_price=price,
                     network_bw=10, eflops=0, memory=8)
        for name, price in (("dear", "0.1798"), ("cheap", "0.1116"))
    )
    catalog = Catalog((v, dear, cheap))
    spec = SweepSpec(pw_max="0.5", pw_step="0.25", max_instances=2)
    plan = run_sweep(catalog, spec, sat=sat_table).curve("planner")[-1].plan
    assert (plan.n_gpu, plan.cpu_instance.name) == (2, "cheap")
    assert plan == recommend(catalog, spec.request_at(Decimal("0.5")), sat=sat_table)[0]


def test_superlinear_catalog_plans_the_same_twice_without_warnings(sat_table):
    # K(n) > 1 from n = 1 for "S" and from n = 2 for "T"; planning is pure.
    fits = {"S": LogisticParams(0.1, 10.0, 30.0), "T": LogisticParams(0.5, 4.9, 30.0), "U": None}
    catalog = Catalog(tuple(
        InstanceSpec(name=name, kind=Kind.GPU, od_price="1", spot_price="0.3", network_bw=10,
                     eflops=100, memory=16, scaling_params=params)
        for name, params in fits.items()
    ) + (InstanceSpec(name="w", kind=Kind.CPU, od_price="0.1", spot_price="0.1", network_bw=10),))
    req = PlanRequest(pw="9", top_k=5)
    spec = SweepSpec(pw_max="9", pw_step="0.5")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plans = [recommend(catalog, req, sat=sat_table) for _ in range(2)]
        sweeps = [run_sweep(catalog, spec, sat=sat_table) for _ in range(2)]
    assert plans[0] == plans[1] and len(plans[0]) == 5
    assert {p.gpu_instance.name for p in plans[0]} <= {"S", "T"}
    assert sweeps[0] == sweeps[1]
    assert sweep_to_json(sweeps[0]) == sweep_to_json(sweeps[1])


def test_sweep_equals_per_point_policies(sat_table):
    """run_sweep's one pass gives each point what the per-point calls give."""
    rng = random.Random(20261018)
    for _ in range(60):
        catalog, spec = _sweep_case(rng)
        result = run_sweep(catalog, spec, sat=sat_table)
        scaling = ScalingSource()

        def at(pw):
            if pw <= 0:
                return dict.fromkeys(DEFAULT_POLICIES)
            req = spec.request_at(pw)
            return {
                "planner": next(iter(recommend(catalog, req, scaling, sat_table)), None),
                "noscale": next(iter(plan_noscale(catalog, req, sat_table)), None),
                "cost_first": plan_cost_first(catalog, req, scaling),
                "performance_first": plan_performance_first(catalog, req, scaling),
            }

        normalizer = evaluate_performance(at(spec.grid()[-1])["planner"], scaling)
        assert result.normalizer == normalizer
        assert result.grid == spec.grid()
        assert tuple(result.curves) == spec.policies
        for i, pw in enumerate(spec.grid()):
            expected = at(pw)
            for policy in spec.policies:
                point = result.curve(policy)[i]
                raw = evaluate_performance(expected[policy], scaling)
                assert (point.pw, point.plan, point.raw) == (pw, expected[policy], raw), (spec, policy)
                assert point.normalized == (raw / normalizer if normalizer > 0 else 0.0)


def _policies_at(catalog, spec, pw, scaling, sat):
    """The plan of every policy at pw from the per-point calls."""
    if pw <= 0:
        return dict.fromkeys(DEFAULT_POLICIES)
    req = spec.request_at(pw)
    return {
        "planner": next(iter(recommend(catalog, req, scaling, sat)), None),
        "noscale": next(iter(plan_noscale(catalog, req, sat)), None),
        "cost_first": plan_cost_first(catalog, req, scaling),
        "performance_first": plan_performance_first(catalog, req, scaling),
    }


def _crowded_case(rng):
    """A catalog whose rows tie on Z and wake together, and a coarse grid.

    The GPUs share one FLOPP: each is a base GPU with its prices and eflops
    times 1, 2 or 4, a power of two, so SPFP and ODFP are equal as floats,
    and noscale's Z ties exactly across GPUs at equal n, the planner's across
    GPUs with the same fit (and across duplicates at equal price too); the
    fits differ, so the two policies' plans part.  5-10 CPU types give each
    GPU many tiering rows on one table.  Spot prices are small against a
    step of 0.5-2.5, so several rows wake, and step past several n, in the
    same step.
    """
    od = Decimal(rng.randint(2, 12)) / 8
    spot = Decimal(rng.randint(1, int(od * 8))) / 8 if rng.random() < 0.5 else Decimal(rng.randint(400, 1500)) / 10000
    eflops = rng.randint(20, 1200)
    fits = (None, None, LogisticParams(0.2, 5.0, 20.0), LogisticParams(0.1, 8.0, 60.0))
    specs = [
        InstanceSpec(name=f"g{i}", kind=Kind.GPU, od_price=od * f, spot_price=min(od, spot) * f,
                     network_bw=rng.choice([1.7, 10, 40]), eflops=eflops * f, memory=16,
                     scaling_params=rng.choice(fits))
        for i, f in enumerate(rng.choice([1, 1, 2, 4]) for _ in range(rng.randint(2, 4)))
    ]
    for j in range(rng.randint(5, 10)):
        price = Decimal(rng.randint(300, 6000)) / 10000
        specs.append(InstanceSpec(name=f"c{j}", kind=Kind.CPU, od_price=price, spot_price=price,
                                  network_bw=rng.choice([5, 10, 25]), eflops=0, memory=rng.choice([0.5, 8])))
    step = Decimal(rng.choice(["0.5", "1", "1.25", "2.5"]))
    spec = SweepSpec(
        pw_min=rng.choice([Decimal(0), Decimal("0.3")]),
        pw_max=step * rng.randint(3, 12),
        pw_step=step,
        buffer_count=rng.choice([1, 2]),
        max_instances=rng.choice([5, 17, 64, 300]),
    )
    return Catalog(tuple(specs)), spec


def test_sweep_with_crowded_rows_equals_per_point_policies(sat_table):
    """Rows that tie on Z and wake in one step still give each point the
    per-point plans: a sleeping row could not have changed any of them."""
    rng = random.Random(20261019)
    scaling = ScalingSource()
    for _ in range(50):
        catalog, spec = _crowded_case(rng)
        result = run_sweep(catalog, spec, sat=sat_table)
        for i, pw in enumerate(spec.grid()):
            expected = _policies_at(catalog, spec, pw, scaling, sat_table)
            for policy in spec.policies:
                point = result.curve(policy)[i]
                assert (point.plan, point.raw) == (expected[policy], evaluate_performance(expected[policy], scaling)), (
                    spec, policy, pw)


@st.composite
def _table_rows(draw):
    """The rows of a random catalog that fit a budget, with their n_top.

    About a third of the GPUs carry their own fit, superlinear ones included;
    half the cases price spot cheaply at max_instances 300, which reaches the
    float plateau of Z.
    """
    plateau = draw(st.booleans())
    specs = []
    for i in range(draw(st.integers(1, 3))):
        od = Decimal(draw(st.integers(1000, 25000))) / 10000
        spot = Decimal(draw(st.integers(100, 300) if plateau else st.integers(300, int(od * 10000)))) / 10000
        params = None
        if draw(st.integers(0, 2)) == 0:
            a = draw(st.floats(0.05, 0.4))
            params = LogisticParams(a=a, b=draw(st.floats(0.5, 1 + 1.9 / a)), c=draw(st.floats(1.5, 40)))
        specs.append(InstanceSpec(name=f"g{i}", kind=Kind.GPU, od_price=od, spot_price=min(od, spot),
                                  network_bw=draw(st.sampled_from([1.7, 10, 40])),
                                  eflops=draw(st.integers(20, 1200)), memory=16, scaling_params=params))
    for j in range(draw(st.integers(0, 2))):
        price = Decimal(draw(st.integers(300, 6000))) / 10000
        specs.append(InstanceSpec(name=f"c{j}", kind=Kind.CPU, od_price=price, spot_price=price,
                                  network_bw=10, eflops=0, memory=8))
    req = PlanRequest(
        pw=Decimal(draw(st.integers(50, 600))) / (1 if plateau else 10),
        buffer_count=1,
        max_instances=300 if plateau else draw(st.sampled_from([1, 5, 17, 64])),
    )
    return [(row, top) for row in _rows(Catalog(tuple(specs)), req, default_saturation_table())
            if (top := row.n_top(req.pw, req.max_instances)) >= 1]


@settings(max_examples=60, deadline=None)
@given(rows=_table_rows())
def test_z_tables_hold_the_prefix_maximum(rows):
    """peaks[t - 1] is the largest Z over n <= t and firsts[t - 1] the index of
    the first n that reaches it, so peaks never falls: what lets the sweep
    bisect a row's table for the next n that can beat a plan."""
    for scaling in (ScalingSource(), UnitScaling()):
        tables = _z_tables(rows, scaling)
        for row, top in rows:
            peaks, firsts = tables[row.v_idx, row.rank]
            assert len(peaks) == len(firsts) == max(t for r, t in rows if r.v_idx == row.v_idx)
            zs = [row.z(n, scaling.factor(row.v, n)) for n in range(1, len(peaks) + 1)]
            for t in range(1, len(peaks) + 1):
                assert peaks[t - 1] == max(zs[:t])
                assert firsts[t - 1] == zs.index(peaks[t - 1])
            assert all(lo <= hi for lo, hi in zip(peaks, peaks[1:]))


# SPFP drawn over its whole range, with the extremes: 0 where eflops / price
# underflows, the smallest subnormal, and values whose Z overflows to inf.
_SPFPS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-300, 1e300, 1e306, 1.7976931348623157e308]),
    st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
    st.floats(min_value=1e-3, max_value=1e4),
)


def _unit_row(architecture: int, spfp: float, odfp: float):
    """A row of either architecture with the given FLOPPs; its z() reads nothing else."""
    v = InstanceSpec(name="v", kind=Kind.GPU, od_price="1", spot_price="1", network_bw=10, eflops=1, memory=16)
    score = FloppScore(instance=v, spfp=spfp, odfp=odfp)
    if architecture == 0:
        return _SingleAnchorRow(0, v, score)
    w = InstanceSpec(name="w", kind=Kind.CPU, od_price="1", spot_price="1", network_bw=10, eflops=0, memory=8)
    return _TieringRow(0, v, score, 0, w, n_sat=3)


@settings(max_examples=300, deadline=None)
@given(
    architecture=st.sampled_from([0, 1]),
    spfp=st.floats(min_value=5e-324, max_value=1e300),
    share=st.floats(min_value=0.0, max_value=1.0),
    start=st.integers(1, 10**6 - 64),
)
def test_noscale_z_rises_strictly_with_n(architecture, spfp, share, start):
    """With K = 1, Z = (n - 1) * SPFP + ODFP or n * SPFP rises strictly in
    float for any SPFP > 0 with ODFP <= SPFP while Z is finite (here n up to
    10^6).  So noscale's best candidate in a row is the one at n_top, and the
    sweep keeps no table for noscale."""
    row = _unit_row(architecture, spfp, share * spfp)
    zs = [row.z(n, 1.0) for n in range(start, start + 65)]
    assert all(lo < hi for lo, hi in zip(zs, zs[1:]))
    assert row.z(1, 1.0) < row.z(2, 1.0) and row.z(10**6 - 1, 1.0) < row.z(10**6, 1.0)


@st.composite
def _wake_cases(draw):
    row = _unit_row(draw(st.sampled_from([0, 1])), spfp := draw(_SPFPS), draw(st.floats(0.0, 1.0)) * spfp)
    top = draw(st.integers(1, 3000))
    n_top = draw(st.integers(1, top))
    at = row.z(draw(st.integers(1, top + 1)), 1.0)  # ties and near-ties with the row's own Z
    best = draw(st.one_of(
        st.just(at), st.just(math.nextafter(at, -math.inf)), st.just(math.nextafter(at, math.inf)),
        st.floats(min_value=0.0, allow_nan=False),
    ))
    return row, n_top, top, best


@settings(max_examples=300, deadline=None)
@given(case=_wake_cases())
def test_noscale_wake_equals_bisection_of_a_prefix_max_table(case):
    """The sweep finds the n at which a row's noscale Z first beats the best
    without a table.  It must equal bisect_right over a table of the prefix
    maxima of Z(n) = row.z(n, 1.0) for n = 1..top, including where Z is 0
    throughout (SPFP underflows) or overflows to inf."""
    row, n_top, top, best = case
    peaks = list(itertools.accumulate((row.z(n, 1.0) for n in range(1, top + 1)), max))
    assert _noscale_wake(row, n_top, top, best) == bisect_right(peaks, best, n_top, top)


def test_sweep_with_a_flopp_that_underflows_equals_per_point_policies(sat_table):
    """eflops / price rounds to SPFP = ODFP = 0, so every Z of the GPU's rows
    is 0 and ties; each policy then takes the cheapest n, n = 1, as the
    per-point calls do, rather than the noscale shortcut's n_top."""
    v = InstanceSpec(name="v", kind=Kind.GPU, od_price="2", spot_price="2", network_bw=10, eflops=5e-324, memory=16)
    w = InstanceSpec(name="w", kind=Kind.CPU, od_price="0.5", spot_price="0.5", network_bw=10, eflops=0, memory=8)
    catalog, spec = Catalog((v, w)), SweepSpec(pw_max="12", pw_step="4", buffer_count=1)
    assert (flopp(v).spfp, flopp(v).odfp) == (0.0, 0.0)
    result = run_sweep(catalog, spec, sat=sat_table)
    for i, pw in enumerate(spec.grid()):
        expected = _policies_at(catalog, spec, pw, ScalingSource(), sat_table)
        assert {policy: result.curve(policy)[i].plan for policy in DEFAULT_POLICIES} == expected
    assert result.curve("noscale")[-1].plan.n_gpu == 1 and result.curve("cost_first")[-1].plan.n_gpu == 6


def test_sweep_plans_only_the_requested_policies():
    """cost_first and noscale would take 3 x 'a', whose raw performance
    overflows; a sweep that asks only for the planner must not plan them, nor
    evaluate the planner's 3 x 'a', which 2 x 'b' beats at the same point."""
    a = InstanceSpec(name="a", kind=Kind.GPU, od_price="10", spot_price="10", network_bw=10, eflops=1e308, memory=16)
    b = InstanceSpec(name="b", kind=Kind.GPU, od_price="11", spot_price="11", network_bw=10, eflops=100, memory=16,
                     scaling_params=LogisticParams(0.1, 10.0, 5e306))
    catalog = Catalog((a, b))
    (top,) = recommend(catalog, PlanRequest(pw="30", top_k=1))
    result = run_sweep(catalog, SweepSpec(pw_max="30", pw_step="30", policies=("planner",)))
    point = result.curve("planner")[-1]
    assert (point.plan.gpu_instance.name, point.plan.n_gpu) == ("b", 2)
    assert point.plan == top and point.normalized == 1.0 and list(result.curves) == ["planner"]
    with pytest.raises(ValueError, match="the plan of 3 x 'a' performs inf"):
        run_sweep(catalog, SweepSpec(pw_max="30", pw_step="30", policies=("planner", "cost_first")))


def test_sweep_wakes_rows_only_when_they_can_change_a_plan(price_calls, simulated_catalog):
    """The price() calls of the rows in two sweeps of the simulated catalog.
    Stepping every row through every affordable n makes 5,201 and 31,367;
    sleeping rows until they can beat a plan makes 2,051 and 7,453."""
    counts = [price_calls(run_sweep, simulated_catalog, spec)
              for spec in (SweepSpec(), SweepSpec(pw_max="60", pw_step="0.05", max_instances=1024))]
    assert counts[0] <= 2600 and counts[1] <= 9400, counts


def test_sweep_prices_only_rows_that_can_win(price_calls, simulated_catalog, aws_catalog):
    """Dropping the dominated tiering rows (simulated 80 rows -> 38, AWS 27 ->
    11) takes the price() calls of the default simulated sweep from 2,051 to
    1,196, of the simulated sweep to pw 60 at 1024 from 7,453 to 5,684, and
    of the default AWS sweep from 1,272 to 800."""
    counts = [
        price_calls(run_sweep, catalog, spec)
        for catalog, spec in (
            (simulated_catalog, SweepSpec()),
            (simulated_catalog, SweepSpec(pw_max="60", pw_step="0.05", max_instances=1024)),
            (aws_catalog, SweepSpec()),
        )
    ]
    assert counts[0] <= 1400 and counts[1] <= 6200 and counts[2] <= 950, counts


@st.composite
def _tied_cpus(draw):
    """A catalog whose CPUs tie: prices from a few values, bandwidths below
    and above each GPU's (above it, the GPU is the bottleneck and n_sat ties),
    and copies of earlier CPUs under another name, which tie on price and
    n_sat and differ only in catalog order.  Also a budget and a cap."""
    specs = []
    for i in range(draw(st.integers(1, 2))):
        od = Decimal(draw(st.integers(1, 20))) / 10
        specs.append(InstanceSpec(
            name=f"g{i}", kind=Kind.GPU, od_price=od, spot_price=od * draw(st.sampled_from([1, Decimal("0.3")])),
            network_bw=draw(st.sampled_from([1.7, 5, 12.5])), eflops=draw(st.integers(20, 1200)), memory=16,
        ))
    cpus = []
    for j in range(draw(st.integers(1, 8))):
        if cpus and draw(st.integers(0, 2)) == 0:
            cpus.append(dataclasses.replace(draw(st.sampled_from(cpus)), name=f"c{j}"))
        else:
            price = Decimal(draw(st.integers(1, 4))) / 20
            cpus.append(InstanceSpec(name=f"c{j}", kind=Kind.CPU, od_price=price, spot_price=price,
                                     network_bw=draw(st.sampled_from([0.3, 1.7, 5, 10, 12.5, 15, 25])),
                                     memory=draw(st.sampled_from([0.5, 8]))))
    return Catalog(tuple(specs + cpus)), Decimal(draw(st.integers(1, 300))) / 10, draw(st.sampled_from([3, 30, 300]))


def _dominates(a, b) -> bool:
    """Tiering row a beats tiering row b at every n: the same GPU, a CPU as
    cheap or cheaper (earlier in the catalog at an equal price) and an n_sat
    no lower."""
    return (a.v_idx == b.v_idx and a.n_sat >= b.n_sat
            and (a.cpu < b.cpu or a.cpu == b.cpu and a.w_idx < b.w_idx))


@settings(max_examples=200, deadline=None)
@given(case=_tied_cpus(), order=st.randoms(use_true_random=False))
def test_sweep_drops_exactly_the_dominated_rows(case, order):
    """_undominated drops a tiering row exactly when another row of its GPU
    dominates it, whatever the order of the rows; and a dominator's candidate
    key is smaller at every n up to the dropped row's n_top, which is no
    higher than the dominator's, so a dropped row never gives a top-1 plan."""
    catalog, pw, cap = case
    rows = _rows(catalog, PlanRequest(pw=pw, buffer_count=1, max_instances=cap), default_saturation_table())
    shuffled = order.sample(rows, len(rows))
    kept = _undominated(shuffled)
    assert kept == [row for row in shuffled if row in kept]
    tiering = [row for row in rows if row.rank]
    assert [row for row in rows if row not in kept] == [b for b in tiering if any(_dominates(a, b) for a in tiering)]
    scaling = ScalingSource()
    for b in tiering:
        for a in (a for a in kept if a.rank and _dominates(a, b)):
            top = b.n_top(pw, cap)
            assert a.n_top(pw, cap) >= top
            for n in range(1, top + 1):
                z = b.z(n, scaling.factor(b.v, n))
                assert a.z(n, scaling.factor(a.v, n)) == z and a.candidate(n, z)[0] < b.candidate(n, z)[0]


@settings(max_examples=100, deadline=None)
@given(case=_tied_cpus(), policies=st.lists(st.sampled_from(DEFAULT_POLICIES), min_size=1, max_size=4, unique=True),
       step=st.sampled_from(["0.05", "0.25", "1.5"]), points=st.integers(1, 12))
def test_sweep_with_tied_cpus_equals_per_point_policies(sat_table, case, policies, step, points):
    """With the dominated rows dropped, run_sweep on CPU-crowded catalogs
    still gives each point of each requested policy the per-point plan."""
    catalog, _, cap = case
    step = Decimal(step)
    spec = SweepSpec(pw_max=step * points, pw_step=step, policies=policies, buffer_count=1, max_instances=cap)
    result = run_sweep(catalog, spec, sat=sat_table)
    scaling = ScalingSource()
    assert tuple(result.curves) == spec.policies
    for i, pw in enumerate(spec.grid()):
        expected = _policies_at(catalog, spec, pw, scaling, sat_table)
        for policy in policies:
            point = result.curve(policy)[i]
            assert (point.plan, point.raw) == (expected[policy], evaluate_performance(expected[policy], scaling))


@pytest.mark.parametrize("eflops, params", [(100, LogisticParams(0.1, 10.0, 1e308)), (1e307, None)])
def test_overflowing_scores_are_refused(sat_table, eflops, params):
    # Z overflows to inf, through K(n) or through (n - 1) * SPFP.
    v = InstanceSpec(name="v", kind=Kind.GPU, od_price="0.2", spot_price="0.1", network_bw=10,
                     eflops=eflops, memory=16, scaling_params=params)
    catalog = Catalog((v,))
    for plans in (
        lambda: recommend(catalog, PlanRequest(pw="3", top_k=30), sat=sat_table),
        lambda: run_sweep(catalog, SweepSpec(pw_max="3", pw_step="0.5"), sat=sat_table),
    ):
        with pytest.raises(ValueError, match="x 'v' scores Z = inf: .* overflow float"):
            plans()


def test_overflowing_raw_performance_is_refused(sat_table):
    # Z = ((n - 1) * SPFP + ODFP) * K(n) stays finite; n * eflops * K(n) does not.
    v = InstanceSpec(name="v", kind=Kind.GPU, od_price="100", spot_price="100", network_bw=10,
                     eflops=1e308, memory=16)
    catalog = Catalog((v,))
    assert recommend(catalog, PlanRequest(pw="2000"), sat=sat_table)[0].score_z < 1e307
    with pytest.raises(ValueError, match="plan of 5 x 'v' performs inf"):
        run_sweep(catalog, SweepSpec(pw_max="2000", pw_step="500"), sat=sat_table)


def test_overflowing_normalized_performance_is_refused(sat_table):
    # The planner takes "tiny" (raw ~6e-300); performance_first takes "huge" (raw ~8e99).
    tiny, huge = (
        InstanceSpec(name=name, kind=Kind.GPU, od_price=price, spot_price=price, network_bw=10,
                     eflops=eflops, memory=16)
        for name, price, eflops in (("tiny", "1e-300", 1e-300), ("huge", "1e120", 1e100))
    )
    catalog = Catalog((tiny, huge))
    spec = SweepSpec(pw_max="2e120", pw_step="1e120")
    planner_only = run_sweep(catalog, SweepSpec(pw_max="2e120", pw_step="1e120", policies=("planner",)), sat=sat_table)
    assert [p.normalized for p in planner_only.curve("planner")] == [0.0, 1.0, 1.0]
    with pytest.raises(ValueError, match="overflows float"):
        run_sweep(catalog, spec, sat=sat_table)
