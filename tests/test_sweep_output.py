"""Sweep CSV and JSON output: byte equality with the former dict-tree writers,
pinned digests, and the JSON writer's memory.

reference_sweep_rows, reference_sweep_to_csv and reference_sweep_to_json are
the writers the package used to ship: they build every row dict and the whole
payload, then hand it to csv.DictWriter or json.dumps(indent=2)."""
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import math
import random
import tracemalloc
from decimal import Decimal

import pytest

from spotplan import (
    Catalog,
    InstanceSpec,
    Kind,
    SweepSpec,
    run_sweep,
    sweep_rows,
    sweep_to_csv,
    sweep_to_json,
)
from spotplan.planner import ClusterPlan
from spotplan.simulator import DEFAULT_POLICIES, SweepPoint, SweepResult

from test_simulator import _sweep_case

COLUMNS = [
    "pw", "policy", "raw", "normalized", "architecture",
    "gpu", "gpu_count", "cpu", "cpu_count", "hourly_price",
]


def _policy_order(policy):
    try:
        return DEFAULT_POLICIES.index(policy)
    except ValueError:
        return len(DEFAULT_POLICIES)


def reference_sweep_rows(result):
    rows = []
    for policy, points in result.curves.items():
        for point in points:
            plan = point.plan
            rows.append(
                {
                    "pw": float(point.pw),
                    "policy": policy,
                    "raw": point.raw,
                    "normalized": point.normalized,
                    "architecture": plan.architecture if plan else None,
                    "gpu": plan.gpu_instance.name if plan else None,
                    "gpu_count": plan.n_gpu if plan else None,
                    "cpu": plan.cpu_instance.name if plan and plan.cpu_instance else None,
                    "cpu_count": plan.m_cpu if plan and plan.cpu_instance else None,
                    "hourly_price": float(plan.hourly_price) if plan else None,
                }
            )
    rows.sort(key=lambda r: (r["pw"], _policy_order(r["policy"])))
    return rows


def reference_sweep_to_csv(result):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in reference_sweep_rows(result):
        writer.writerow({k: ("" if row[k] is None else row[k]) for k in COLUMNS})
    return buf.getvalue()


def reference_sweep_to_json(result):
    payload = {
        "grid": [float(pw) for pw in result.grid],
        "normalizer": result.normalizer,
        "rows": reference_sweep_rows(result),
        "plans": {
            policy: [
                {"pw": float(pt.pw), "plan": pt.plan.summary() if pt.plan else None}
                for pt in points
            ]
            for policy, points in result.curves.items()
        },
    }
    return json.dumps(payload, indent=2)


def assert_same_output(result):
    # NaN != NaN, so rows are compared through their repr.
    assert repr(sweep_rows(result)) == repr(reference_sweep_rows(result))
    assert sweep_to_csv(result) == reference_sweep_to_csv(result)
    assert sweep_to_json(result) == reference_sweep_to_json(result)


def test_seeded_sweeps_match_reference(sat_table):
    rng = random.Random(5150)
    for _ in range(40):
        catalog, spec = _sweep_case(rng)
        assert_same_output(run_sweep(catalog, spec, sat=sat_table))


@pytest.mark.parametrize("policies", [DEFAULT_POLICIES, ("performance_first", "planner"), ("noscale",)])
def test_bundled_sweeps_match_reference(simulated_catalog, aws_catalog, policies):
    spec = SweepSpec(pw_max="6", pw_step="0.2", policies=policies)
    for catalog in (simulated_catalog, aws_catalog):
        assert_same_output(run_sweep(catalog, spec))


def test_awkward_names_match_reference(sat_table):
    gpu = InstanceSpec(name='gépu, "x"\nline中', kind=Kind.GPU, od_price="0.5",
                       spot_price="0.2", network_bw=10, eflops=100, memory=16)
    cpu = InstanceSpec(name="cå,\r'q'", kind=Kind.CPU, od_price="0.1", spot_price="0.1",
                       network_bw=10, eflops=0, memory=8)
    result = run_sweep(Catalog((gpu, cpu)), SweepSpec(pw_max="3", pw_step="0.25"), sat=sat_table)
    assert any(p.plan and p.plan.cpu_instance for pts in result.curves.values() for p in pts)
    assert_same_output(result)


def test_grid_points_that_round_to_one_float(simulated_catalog):
    spec = SweepSpec(pw_min="3", pw_max="3.00000000000000000001", pw_step="1e-21")
    result = run_sweep(simulated_catalog, spec)
    assert len(result.grid) == 11 and {float(pw) for pw in result.grid} == {3.0}
    rows = sweep_rows(result)
    assert [r["policy"] for r in rows[:12]] == ["planner"] * 11 + ["noscale"]  # policy-major
    assert_same_output(result)


def _plan(gpu, cpu=None, m=None, n=3, price="1.25", z=12.5):
    return ClusterPlan("tiering" if cpu else "single_anchor", gpu, n, cpu, m, Decimal(price), z)


def _named(spec, name):
    """A copy of spec named name, set after construction, since InstanceSpec
    refuses a name that is not a str."""
    spec = dataclasses.replace(spec)
    object.__setattr__(spec, "name", name)
    return spec


def test_hand_built_results_match_reference(simulated_catalog):
    gpu, cpu = simulated_catalog.by_name("A"), simulated_catalog.by_name("M")
    shared = _plan(gpu, cpu, 2)
    grid = tuple(Decimal(x) for x in ("0", "0.5", "0.5000000000000000001", "2.718281828459045235"))
    odd = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e300, 5e-324, 3.0]

    def points(plans, raws):
        return tuple(SweepPoint(pw, raw, raw / 2, plan) for pw, raw, plan in zip(grid, raws, plans))

    result = SweepResult(
        grid=grid,
        curves={
            "unknown": points([None, shared, _plan(gpu, m=4), None], odd[:4]),
            "performance_first": points([shared, shared, None, _plan(gpu, n=1, z=math.inf)], odd[4:]),
            "planner": points([_plan(gpu, cpu, None, z=math.nan), None, shared], odd[2:5]),  # short curve
            "z-last": points([None] * 4, [0.0] * 4),
            "noscale": (),
        },
        normalizer=math.nan,
    )
    assert_same_output(result)
    for normalizer in (0.0, math.inf, 7.25):
        assert_same_output(SweepResult(grid=grid[:2], curves={"planner": points([shared] * 2, [1.0, 2.0])},
                                       normalizer=normalizer))
    nan = Decimal("NaN")
    shuffled = tuple(SweepPoint(pw, 1.0, 0.5, shared) for pw in (nan, Decimal(2), nan, Decimal(1), nan))
    assert_same_output(SweepResult(grid=grid, curves={"noscale": shuffled, "planner": shuffled[::-1]}))
    assert_same_output(SweepResult(grid=()))
    assert_same_output(SweepResult(grid=grid, curves={"planner": ()}))

    # Each plan field, one at a time, from its exact type or a look-alike: on
    # exact types the writers equal their references.  sweep_rows renders the
    # look-alikes, and look-alike raws and policies, as its reference does, and
    # sweep_to_csv and sweep_to_json refuse each run that holds one.
    class Int(int):
        def __repr__(self):
            return f"Int({int(self)})"

    class Float(float):
        def __repr__(self):
            return f"Float({float(self)})"

    class Name(str):  # hashes and compares as its text, but csv writes str()
        def __str__(self):
            return "not " + str.__str__(self)

    exact = dict(architecture="tiering", gpu_instance=gpu, n_gpu=3, cpu_instance=cpu, m_cpu=2,
                 hourly_price=Decimal("1.25"), score_z=12.5)
    planner_typed = dict(cpu_instance=[None], m_cpu=[None], score_z=[math.nan, math.inf, -math.inf])
    looks = dict(
        architecture=[Name("tiering"), ("tiering",)],
        gpu_instance=[dataclasses.replace(gpu, name=Name("A")), _named(gpu, ("g", "pu"))],
        n_gpu=[True, Int(3)],
        cpu_instance=[dataclasses.replace(cpu, name=Name("M"))],
        m_cpu=[False, True, Int(2)],
        hourly_price=[1.25, Float(1.25)],
        score_z=[Float(12.5)],
    )

    def variants(fields):
        plans = [ClusterPlan(**{**exact, key: value}) for key, values in fields.items() for value in values]
        return plans + [ClusterPlan(**{**exact, "cpu_instance": None, key: value}) for key in ("m_cpu", "n_gpu")
                        for value in fields.get(key, ())]

    def result_of(plans, raws, policies):
        grid = tuple(Decimal(i) / 4 for i in range(2 * len(plans)))
        curves = {}
        for policy in policies:
            curve, raw = [], None
            for i, pw in enumerate(grid):
                if i % 2 == 0:  # two points per plan: one run
                    raw = next(raws)
                curve.append(SweepPoint(pw, raw, raw / 2, plans[i // 2]))
            curves[policy] = tuple(curve)
        return SweepResult(grid=grid, curves=curves, normalizer=2.0)

    floats = [0.5, math.nan, math.inf, -math.inf, 0.0]
    assert_same_output(result_of([ClusterPlan(**exact), *variants(planner_typed)], itertools.cycle(floats),
                                 ("planner", "odd")))
    foreign = [result_of(variants(looks), itertools.cycle(floats), ("planner",)),
               result_of([ClusterPlan(**exact)], iter([Float(0.25)]), ("planner",)),
               result_of([ClusterPlan(**exact)], iter([0.5]), (Name("noscale"),))]
    for result in foreign:
        assert repr(sweep_rows(result)) == repr(reference_sweep_rows(result))
        for policy, points in result.curves.items():
            for i in range(0, len(points), 2):
                run = SweepResult(grid=result.grid[i:i + 2], curves={policy: points[i:i + 2]}, normalizer=2.0)
                for writer in (sweep_to_csv, sweep_to_json):
                    with pytest.raises(ValueError, match="^sweep_to_csv and sweep_to_json write only results of"):
                        writer(run)


def test_multi_line_plan_values_match_reference(simulated_catalog):
    # Values json.dumps would write on several lines: sweep_rows renders them
    # as its reference does, and the CSV and JSON writers refuse them.
    gpu = _named(InstanceSpec(name="gpu", kind=Kind.GPU, od_price="0.5", spot_price="0.2", network_bw=10,
                              eflops=100, memory=16), ("g", "pu"))
    plans = [ClusterPlan(["single", "anchor"], gpu, 3, None, {"m": [1, 2]}, Decimal("1.25"), 12.5),
             _plan(gpu, simulated_catalog.by_name("M"), [4, 5], z=[6.5])]
    grid = (Decimal("0.5"), Decimal(1))
    for plan in plans:
        result = SweepResult(grid=grid[:1], curves={"planner": (SweepPoint(grid[0], 1.0, 0.5, plan),)})
        assert repr(sweep_rows(result)) == repr(reference_sweep_rows(result))
        for writer in (sweep_to_csv, sweep_to_json):
            with pytest.raises(ValueError, match="^sweep_to_csv and sweep_to_json write only results of"):
                writer(result)


@pytest.mark.parametrize("fixture", ["simulated_catalog", "aws_catalog"])
def test_planner_plans_skip_the_generic_renderers(request, fixture, generic_renders):
    # csv.writer renders the header and each distinct name (CSV), but no field
    # of a plan; the JSON writer has no generic route.
    result = run_sweep(request.getfixturevalue(fixture), SweepSpec())
    plans = {id(p.plan): p.plan for points in result.curves.values() for p in points if p.plan}.values()
    names = {*result.curves, *(x for plan in plans for x in (plan.architecture, plan.gpu_instance.name,
                                                              plan.cpu_instance and plan.cpu_instance.name))}
    json_renders, csv_renders = generic_renders(sweep_to_json, result), generic_renders(sweep_to_csv, result)
    assert len(plans) > 100
    assert (json_renders, csv_renders) == (0, 1 + len(names))


# sha256 of the default sweep's JSON per bundled catalog, from the dict-tree writer.
PINNED_SWEEP_JSON_SHA256 = {
    "simulated_catalog": "dee822d7cad1d98b068d882bb044e2b23738d4efe8bd37138b42a276b85b72fd",
    "aws_catalog": "688bb3164b95b7a2cc42f46a5bf6cfc255b16f10a01531b995bf8d0698363ab1",
}


@pytest.mark.parametrize("fixture", sorted(PINNED_SWEEP_JSON_SHA256))
def test_bundled_sweep_json_bytes_are_pinned(request, fixture):
    text = sweep_to_json(run_sweep(request.getfixturevalue(fixture), SweepSpec()))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SWEEP_JSON_SHA256[fixture]


# sha256 of (JSON, CSV) of a sweep whose Z prefix maxima have long flat runs,
# where a plan's n must be the first that reaches the maximum; per bundled catalog.
PLATEAU_SPEC = SweepSpec(pw_max="60", pw_step="0.5", max_instances=10000)
PINNED_PLATEAU_SHA256 = {
    "simulated_catalog": ("9e08eb46106d638c4d749a1b45dfa550b7b650da3e1d005c80f2caf632d150a3",
                          "2ef8d702011efd32b0dcb2c2d3cf68cf2be37e876a2275248ad1afc5246da816"),
    "aws_catalog": ("44dfefc14cc058d6ede415719d6a438de0ff7359caefbeae4d84bee6ba49223e",
                    "957da565cddd54f23495b3b52b667d2886bd9482afde6a94edfc48bd92585795"),
}


@pytest.mark.parametrize("fixture", sorted(PINNED_PLATEAU_SHA256))
def test_plateau_sweep_bytes_are_pinned(request, fixture):
    result = run_sweep(request.getfixturevalue(fixture), PLATEAU_SPEC)
    digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in (sweep_to_json(result), sweep_to_csv(result)))
    assert digests == PINNED_PLATEAU_SHA256[fixture]


def test_json_peak_memory_is_a_few_times_the_output(simulated_catalog):
    result = run_sweep(simulated_catalog, SweepSpec(pw_max="19.99", pw_step="0.01"))
    assert len(result.grid) == 2000
    tracemalloc.start()
    try:
        text = sweep_to_json(result)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(text), (peak, len(text))
