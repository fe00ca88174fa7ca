import collections
import csv
import dataclasses
import hashlib
import heapq
import io
import itertools
import json
import math
import random
import re
import warnings
from array import array
from bisect import bisect_left, bisect_right
from decimal import MAX_PREC, Context, Decimal, localcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spotplan import (
    SINGLE_ANCHOR,
    TIERING,
    Catalog,
    CatalogParseError,
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
    n_sat_lookup,
    plan_cost_first,
    plan_noscale,
    plan_performance_first,
    recommend,
    run_sweep,
    sweep_rows,
    sweep_to_csv,
    sweep_to_json,
)
from spotplan.catalog import MAX_PRICE_PLACES
from spotplan.planner import MAX_INSTANCES, FloppScore, _rows, _SingleAnchorRow, _TieringRow
from spotplan.simulator import DEFAULT_POLICIES, MAX_GRID_POINTS, _noscale_wake, _z_tables

from oracles import brute_force_best, brute_force_candidates, plan_tuple

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

    def test_a_plan_performing_below_one_is_priced_and_an_overflowing_cost_refused(self):
        # Raw performance about 6.3e-4, so no bound of 1 on it holds; 1e300 ops take 4.4e299 h, costing inf.
        gpu = InstanceSpec(name="g", kind=Kind.GPU, od_price="1e10", spot_price="1e10", network_bw=10,
                           eflops=1e-3, memory=16)
        plan = recommend(Catalog((gpu,)), PlanRequest(pw="1e10", top_k=1))[0]
        assert (plan.architecture, plan.n_gpu) == (SINGLE_ANCHOR, 1) and 0 < evaluate_performance(plan) < 1e-3
        makespan, cost = estimate_cost(plan, total_ops=1e6)
        assert 0 < makespan < math.inf and 0 < cost < math.inf
        assert cost == pytest.approx(makespan * 1e10, rel=1e-12)
        with pytest.raises(ValueError, match="not finite and positive"):
            estimate_cost(plan, total_ops=1e300)


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

    @pytest.mark.parametrize("policies", ["planner", "", 5, None, {"planner": 1}])
    def test_policies_must_be_a_tuple_of_names(self, policies):
        """A str was read as one-letter policies: unknown policies: ['p', 'l', 'a', ...]."""
        message = f"^policies must be a tuple of policy names, not {re.escape(repr(policies))}$"
        with pytest.raises(ValueError, match=message):
            SweepSpec(policies=policies)
        assert SweepSpec(policies=["planner", "noscale"]).policies == ("planner", "noscale")

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
        with pytest.raises(ValueError, match=f"grid has {10**41 + 1} points"):
            SweepSpec(pw_step="1e-40")
        # The limit's literal value, so that moving it by one fails.
        assert len(SweepSpec(pw_max="9.999", pw_step="0.001").grid()) == 10_000 == MAX_GRID_POINTS
        with pytest.raises(ValueError, match="^the PW grid has 10001 points; the limit is 10000$"):
            SweepSpec(pw_max="10", pw_step="0.001")

    def test_max_instances_is_capped(self):
        assert SweepSpec(max_instances=MAX_INSTANCES).max_instances == MAX_INSTANCES
        with pytest.raises(ValueError, match=f"max_instances must be in 1..{MAX_INSTANCES}, not 10001"):
            SweepSpec(max_instances=MAX_INSTANCES + 1)

    @pytest.mark.parametrize(
        "kw",
        [
            {"pw_max": "1e999999999", "pw_step": "1e999999990"},
            {"pw_max": "1e400000", "pw_step": "1e399999"},
            {"pw_max": "1e309", "pw_step": "1"},
            {"pw_min": "1e309", "pw_max": "1e310"},
            {"pw_step": "1e309"},
        ],
    )
    def test_budgets_beyond_float_range_rejected(self, kw):
        """Budgets are reported as floats: a grid to 1e400000 wrote inf (Infinity in JSON) after its first row."""
        name, value = next((k, v) for k, v in kw.items() if Decimal(v) > Decimal("1.8e308"))
        with pytest.raises(ValueError, match=f"^{name} must be a finite float, not {re.escape(str(Decimal(value)))}$"):
            SweepSpec(**kw)

    @pytest.mark.parametrize("name", ["pw_min", "pw_max", "pw_step"])
    def test_budgets_that_are_0_as_a_float_rejected(self, name):
        """A nonzero budget must be a nonzero float, so that exact budget sums
        stay within float's range of digits; 0 itself is a budget."""
        kw = {"pw_min": "1e-400", "pw_max": "1", "pw_step": "1e-400"} if name == "pw_min" else {name: "1e-400"}
        with pytest.raises(ValueError, match=f"^{name} must be a nonzero float, not 1E-400$"):
            SweepSpec(**kw)

    def test_a_zero_pw_min_of_any_exponent_sweeps_from_0(self, simulated_catalog):
        """pw_min 0E-999999999 made each exact grid point a billion-digit
        Decimal; a zero budget is Decimal(0), whatever its exponent."""
        spec = SweepSpec(pw_min="0E-999999999", pw_max="1", pw_step="0.1")
        assert spec.pw_min.as_tuple() == Decimal(0).as_tuple()
        assert spec.grid() == tuple(Decimal(i) / 10 for i in range(11))
        assert max(len(pw.as_tuple().digits) for pw in spec.grid()) == 2
        assert [float(pw) for pw in run_sweep(simulated_catalog, spec).grid] == [i / 10 for i in range(11)]

    @pytest.mark.parametrize("name", ["pw_min", "pw_max", "pw_step"])
    def test_budgets_of_more_than_max_price_places_rejected(self, name):
        """An exact sum has the places of its most precise operand: a pw_step
        of 100,001 places made 1,000 grid points take 57 MiB."""
        assert SweepSpec(pw_step="0.1" + "0" * (MAX_PRICE_PLACES - 1)).pw_step == Decimal("0.1")
        with pytest.raises(CatalogParseError, match=f"^a price has at most {MAX_PRICE_PLACES} decimal places, not 1001$"):
            SweepSpec(**{name: "1." + "0" * 1001} if name != "pw_min" else {name: "0.1" + "0" * 1000})

    def test_largest_finite_budgets_sweep(self, simulated_catalog):
        result = run_sweep(simulated_catalog, SweepSpec(pw_max="1.7e308", pw_step="1e308", max_instances=4))
        assert [float(pw) for pw in result.grid] == [0.0, 1e308]
        assert result.curve("planner")[-1].plan.n_gpu == 4

    @pytest.mark.parametrize("value", [5.5, "5", None])
    def test_non_integer_max_instances_rejected(self, value):
        """SweepSpec(max_instances=5.5) used to fail with a TypeError inside run_sweep."""
        with pytest.raises(ValueError, match=f"^max_instances must be an integer, not {value!r}$"):
            SweepSpec(max_instances=value)

    def test_numpy_integer_max_instances_sweeps_as_an_int(self, simulated_catalog):
        np = pytest.importorskip("numpy")
        spec = SweepSpec(pw_max="2", pw_step="0.5", max_instances=np.int64(6))
        assert run_sweep(simulated_catalog, spec) == run_sweep(simulated_catalog, dataclasses.replace(spec, max_instances=6))

    @pytest.mark.parametrize("value", [math.nan, math.inf, 1.5, "2"])
    def test_non_integer_buffer_count_rejected(self, value):
        """SweepSpec(buffer_count=math.nan) used to sweep only single_anchor plans."""
        with pytest.raises(ValueError, match=f"^buffer_count must be an integer, not {re.escape(repr(value))}$"):
            SweepSpec(buffer_count=value)

    @pytest.mark.parametrize("value", [0, 10**400], ids=["zero", "401-digits"])
    def test_buffer_count_out_of_float_range_rejected(self, value):
        with pytest.raises(ValueError, match=r"^buffer_count must be in 1\.\.1\.798e\+308$"):
            SweepSpec(buffer_count=value)

    def test_numpy_integer_buffer_count_sweeps_as_an_int(self, simulated_catalog):
        np = pytest.importorskip("numpy")
        spec = SweepSpec(pw_max="2", pw_step="0.5", buffer_count=np.int64(3))
        plain = dataclasses.replace(spec, buffer_count=3)
        assert run_sweep(simulated_catalog, spec) == run_sweep(simulated_catalog, plain)


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
    """peaks[t - 1] is the largest Z over n <= t, so peaks never falls: what
    lets the sweep bisect a row's table for the next n that can beat a plan,
    and bisect_left for the index of the first n that reaches peaks[t - 1]."""
    for scaling in (ScalingSource(), UnitScaling()):
        tables = _z_tables(rows, scaling)
        for row, top in rows:
            peaks = tables[row.v_idx, row.rank]
            assert len(peaks) == max(t for r, t in rows if r.v_idx == row.v_idx)
            zs = [row.z(n, scaling.factor(row.v, n)) for n in range(1, len(peaks) + 1)]
            for t in range(1, len(peaks) + 1):
                assert peaks[t - 1] == max(zs[:t])
                assert bisect_left(peaks, peaks[t - 1], 0, t) == zs.index(peaks[t - 1])
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
    anchor = _SingleAnchorRow(0, v, FloppScore(instance=v, spfp=spfp, odfp=odfp))
    if architecture == 0:
        return anchor
    w = InstanceSpec(name="w", kind=Kind.CPU, od_price="1", spot_price="1", network_bw=10, eflops=0, memory=8)
    return _TieringRow(anchor, 0, w, n_sat=3)


@settings(max_examples=200, deadline=None)
@given(architecture=st.sampled_from([0, 1]), spfp=_SPFPS, share=st.floats(0.0, 1.0), top=st.integers(1, 300))
def test_z_tables_hold_row_z_bit_for_bit(architecture, spfp, share, top):
    """_z_tables fills its peaks through row.z, over K(n) taken once per n.
    They are the prefix maxima of row.z's values bit for bit, infinities
    included, bisect_left finds the first n of each, and its K(n) list is the
    scaling source's."""
    row = _unit_row(architecture, spfp, share * spfp)
    for scaling in (ScalingSource(), UnitScaling()):
        tables = _z_tables([(row, top)], scaling)
        ks = [scaling.factor(row.v, n) for n in range(1, top + 1)]
        zs = [row.z(n, k) for n, k in enumerate(ks, 1)]
        peaks = tables[row.v_idx, row.rank]
        assert tables[row.v_idx] == ks
        firsts = list(itertools.accumulate(range(top), lambda best, i: i if zs[i] > zs[best] else best))
        assert all(bisect_left(peaks, peaks[t - 1], 0, t) == zs.index(peaks[t - 1]) for t in range(1, top + 1))
        assert peaks.tobytes() == array("d", (zs[i] for i in firsts)).tobytes()


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


def test_sweep_baselines_fit_their_count_as_the_per_point_calls_do():
    """With 28 significant digits, the price of 15 nodes rounds to exactly pw in
    the budget context, while n_top, as plan_cost_first and
    plan_performance_first take it, finds that 15 does not fit.  The sweep's
    baselines used to compare that rounded price with pw and pack 15."""
    v = InstanceSpec(name="v", kind=Kind.GPU, od_price="1.483680350204430285870941394",
                     spot_price="0.6731075930107863862554201556", network_bw=10, eflops=1)
    catalog, pw = Catalog((v,)), Decimal("10.90718665235543969344682357")  # the rounded od + 14 * spot
    result = run_sweep(catalog, SweepSpec(pw_min=pw, pw_max=pw + 1, pw_step=1))
    for policy, baseline in (("cost_first", plan_cost_first), ("performance_first", plan_performance_first)):
        plan = result.curve(policy)[0].plan
        assert plan == baseline(catalog, PlanRequest(pw=pw, top_k=1)) and plan.n_gpu == 14


def test_sweep_planner_and_noscale_fit_their_count_exactly():
    """The sweep's planner and noscale used to raise a row's count by its price
    rounded to 28 digits, exactly pw for 15 nodes here, and planned 15 at
    10.9071866523554396934468235724 > pw, where recommend() and plan_noscale()
    plan 14.  Budget arithmetic is exact now."""
    v = InstanceSpec(name="v", kind=Kind.GPU, od_price="1.483680350204430285870941394",
                     spot_price="0.6731075930107863862554201556", network_bw=10, eflops=1)
    catalog, pw = Catalog((v,)), Decimal("10.90718665235543969344682357")  # the rounded od + 14 * spot
    result, req = run_sweep(catalog, SweepSpec(pw_min=pw, pw_max=pw + 1, pw_step=1)), PlanRequest(pw=pw, top_k=1)
    for policy, plans in (("planner", recommend(catalog, req)), ("noscale", plan_noscale(catalog, req))):
        plan = result.curve(policy)[0].plan
        assert [plan] == plans and plan.n_gpu == 14 and plan.hourly_price <= pw


# A price in [1, 10) of 28 to 34 significant digits.
_long_prices = st.integers(28, 34).flatmap(
    lambda d: st.integers(10 ** (d - 1), 10**d - 1).map(lambda i: Decimal(i).scaleb(1 - d)))


@settings(max_examples=80, deadline=None)
@given(prices=st.lists(_long_prices, min_size=2, max_size=2), k=st.integers(2, 60))
def test_long_digit_prices_sweep_within_pw_exactly(sat_table, prices, k):
    """pw is the 28-digit rounding of the price of k nodes; when it rounds
    down, k nodes no longer fit, and every curve must take k - 1, as each
    per-point policy and the brute force in exact arithmetic do."""
    spot, od = sorted(prices)
    catalog = Catalog((InstanceSpec(name="v", kind=Kind.GPU, od_price=od, spot_price=spot, network_bw=10,
                                    eflops=1),))
    pw = Context(prec=28).fma(k - 1, spot, od)
    spec = SweepSpec(pw_min=pw, pw_max=pw + 1, pw_step=1)
    result = run_sweep(catalog, spec, sat=sat_table)
    with localcontext(Context(prec=MAX_PREC)):
        best = brute_force_best(catalog, spec.request_at(pw), ScalingSource(), sat_table)
    expected = _policies_at(catalog, spec, pw, ScalingSource(), sat_table)
    for policy in DEFAULT_POLICIES:
        plan = result.curve(policy)[0].plan
        assert plan == expected[policy] and plan.hourly_price <= pw
        assert (plan_tuple(plan), plan.hourly_price) == (best["config"], best["price"])


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


@pytest.mark.parametrize(
    ("catalog", "spec", "calls", "counts"),
    [
        ("simulated_catalog", SweepSpec(), 734, 725),
        ("aws_catalog", SweepSpec(), 405, 341),
        ("simulated_catalog", SweepSpec(pw_max="60", pw_step="0.05", max_instances=1024), 3225, 3198),
    ],
    ids=["simulated", "aws", "simulated-1024"],
)
def test_sweep_prices_each_row_count_about_once(request, monkeypatch, catalog, spec, calls, counts):
    """A row's candidates at its n_top reuse that count's price, the heap key
    just popped or the last step of raising n_top; when candidate() priced
    again the default sweeps made 1,196 calls on the simulated catalog and 800
    on AWS.  What is priced again is a baseline's plan, which prices its own
    n_top at each grid point where that count rises (the row may be priced
    there too, or never woken there), and a planner candidate below n_top: at
    the cap, Z stops rising at n = 296 on three tiering rows of one GPU, and
    two later wakes offer that n again."""
    priced: collections.Counter = collections.Counter()
    for cls in (_SingleAnchorRow, _TieringRow):
        def price(row, n, real=cls.price):
            priced[row.v_idx, row.rank, getattr(row, "w_idx", -1), n] += 1
            return real(row, n)

        monkeypatch.setattr(cls, "price", price)
    run_sweep(request.getfixturevalue(catalog), spec)
    assert (sum(priced.values()), len(priced)) == (calls, counts)


@pytest.mark.parametrize(("catalog", "pops"), [("simulated_catalog", 429), ("aws_catalog", 299)])
def test_baselines_wake_no_row(request, heap_pops, catalog, pops):
    """A baseline's plan is its GPU's single-anchor row at n_top, taken per grid
    point, so the baselines add no wake to the heap.  When the rows they packed
    woke at every n, the default sweeps popped 538 wakes on the simulated
    catalog and 321 on AWS."""
    catalog = request.getfixturevalue(catalog)
    assert heap_pops(run_sweep, catalog, SweepSpec(policies=("noscale",))) == pops
    assert heap_pops(run_sweep, catalog, SweepSpec()) == pops


@pytest.mark.parametrize(("catalog", "entries"), [("simulated_catalog", 636), ("aws_catalog", 123)])
def test_sweep_takes_k_once_per_table_entry(request, factor_calls, sat_table, catalog, entries):
    """run_sweep's K(n) calls are its table entries: per GPU, the largest n_top
    of its scheduled rows.  Every plan's raw performance and every baseline's
    packed Z read that list; taking K(n) again for them made 1,024 calls on the
    simulated catalog and 387 on AWS."""
    catalog, spec = request.getfixturevalue(catalog), SweepSpec()
    req = spec.request_at(spec.pw_max)
    tops: dict[int, int] = {}
    for row in _rows(catalog, req, sat_table):  # top_k 1: only the rows that can give a plan
        tops[row.v_idx] = max(tops.get(row.v_idx, 0), row.n_top(req.pw, req.max_instances))
    assert sum(tops.values()) == entries
    assert factor_calls(run_sweep, catalog, spec) == entries


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
def _tied_cpus(draw, min_cpus=1):
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
    for j in range(draw(st.integers(min_cpus, 8))):
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


def _row_id(row) -> tuple:
    return row.rank, row.v_idx, getattr(row, "w_idx", -1)


@settings(max_examples=200, deadline=None)
@given(case=_tied_cpus(), top_k=st.integers(1, 4), buffer_count=st.integers(1, 2))
def test_rows_drop_exactly_the_rows_top_k_others_dominate(case, top_k, buffer_count):
    """_rows drops a tiering row exactly when at least top_k other rows of its
    GPU, among the CPUs that hold the checkpoints, dominate it; and each
    dominator's candidate key is smaller at every n up to the dropped row's
    n_top, which is no higher than the dominator's, so a dropped row never
    gives a top_k plan.  The sweep's top_k is 1."""
    catalog, pw, cap = case
    req = PlanRequest(pw=pw, buffer_count=buffer_count, max_instances=cap, top_k=top_k)
    every = _rows(catalog, dataclasses.replace(req, top_k=MAX_INSTANCES), default_saturation_table())
    built = [_row_id(row) for row in _rows(catalog, req, default_saturation_table())]
    tiering = [row for row in every if row.rank]
    dominators = {_row_id(b): [a for a in tiering if _dominates(a, b)] for b in tiering}
    assert sorted(built) == sorted(_row_id(row) for row in every if len(dominators.get(_row_id(row), ())) < top_k)
    scaling = ScalingSource()
    for b in (b for b in tiering if _row_id(b) not in built):
        top = b.n_top(pw, cap)
        for a in dominators[_row_id(b)]:
            assert a.n_top(pw, cap) >= top
            for n in range(1, top + 1):
                z = b.z(n, scaling.factor(b.v, n))
                assert a.z(n, scaling.factor(a.v, n)) == z and a.candidate(n, z)[0] < b.candidate(n, z)[0]


@settings(max_examples=60, deadline=None)
@given(case=_tied_cpus(min_cpus=3), top_k=st.integers(2, 5), buffer_count=st.integers(1, 2))
def test_top_k_on_crowded_cpus_matches_minimal_m_oracle(sat_table, case, top_k, buffer_count):
    """With several CPUs per GPU, _rows drops rows at top_k > 1 too: recommend()
    and plan_noscale() still return the brute-force top_k of the candidates
    with the minimum memory-node count."""
    catalog, pw, cap = case
    req = PlanRequest(pw=pw, buffer_count=buffer_count, max_instances=cap, top_k=top_k)
    n_sat = {(v.name, w.name): n_sat_lookup(sat_table, v, w) for v in catalog.gpu_view for w in catalog.cpu_view}
    for scaling, plans in ((ScalingSource(), recommend(catalog, req, sat=sat_table)),
                           (UnitScaling(), plan_noscale(catalog, req, sat=sat_table))):
        expected = heapq.nsmallest(top_k, (
            (key, (arch, v, n, w, m))
            for key, (arch, v, n, w, m) in brute_force_candidates(catalog, req, scaling, sat_table)
            if w is None or m == n // n_sat[v, w] + 1
        ))
        assert [(plan_tuple(p), p.hourly_price, p.score_z) for p in plans] == [
            (desc, key[1], -key[0]) for key, desc in expected
        ]


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
