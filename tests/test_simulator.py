import csv
import hashlib
import io
import json
import random
import warnings
from decimal import Decimal

import pytest

from spotplan import (
    Catalog,
    InstanceSpec,
    Kind,
    LogisticParams,
    PlanRequest,
    ScalingSource,
    SweepSpec,
    estimate_cost,
    evaluate_performance,
    plan_cost_first,
    plan_noscale,
    plan_performance_first,
    recommend,
    run_sweep,
    sweep_rows,
    sweep_to_csv,
    sweep_to_json,
)
from spotplan.simulator import DEFAULT_POLICIES, MAX_GRID_POINTS

# L(1) with the reference parameters; frozen from direct evaluation.
K_AT_1 = 0.633170399973


@pytest.fixture(scope="module")
def default_sweep(simulated_catalog):
    return run_sweep(simulated_catalog, SweepSpec())


class TestEvaluatePerformance:
    def test_none_plan_scores_zero(self):
        assert evaluate_performance(None) == 0.0

    def test_single_tiering_node(self, simulated_catalog, sat_table):
        cat_a = simulated_catalog.by_name("A")
        cat_m = simulated_catalog.by_name("M")
        from spotplan import Catalog, plan_tiering

        plan = plan_tiering(Catalog((cat_a, cat_m)), PlanRequest(pw="0.4"), sat=sat_table)
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

    def test_anchor_counts_as_trainer(self, simulated_catalog):
        from spotplan import Catalog, plan_single_anchor

        cat = Catalog((simulated_catalog.by_name("J"),))
        plan = plan_single_anchor(cat, PlanRequest(pw="0.5"))
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

    def test_cheaper_plan_costs_less_at_equal_performance(self, simulated_catalog):
        from spotplan import Catalog, plan_tiering

        v = simulated_catalog.by_name("D")
        cheap = plan_tiering(
            Catalog((v, simulated_catalog.by_name("M"))), PlanRequest(pw="3")
        )
        pricey = plan_tiering(
            Catalog((v, simulated_catalog.by_name("N"))), PlanRequest(pw="3")
        )
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

    def test_parallel_matches_sequential(self, simulated_catalog):
        spec = SweepSpec(pw_max="4", pw_step="0.5")
        seq = run_sweep(simulated_catalog, spec)
        par = run_sweep(simulated_catalog, spec, workers=4)
        assert seq.normalizer == par.normalizer
        for policy in spec.policies:
            for a, b in zip(seq.curve(policy), par.curve(policy)):
                assert a.pw == b.pw
                assert a.raw == b.raw  # bit-identical
                assert a.normalized == b.normalized
                assert (a.plan is None) == (b.plan is None)
                if a.plan is not None:
                    assert a.plan.summary() == b.plan.summary()

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
