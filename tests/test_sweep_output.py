"""Sweep CSV and JSON output: byte equality with the former dict-tree writers,
pinned digests, and the JSON writer's memory.

reference_sweep_rows, reference_sweep_to_csv and reference_sweep_to_json are
the writers the package used to ship: they build every row dict and the whole
payload, then hand it to csv.DictWriter or json.dumps(indent=2)."""
import csv
import hashlib
import io
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


def test_hand_built_results_match_reference(simulated_catalog):
    gpu, cpu = simulated_catalog.by_name("A"), simulated_catalog.by_name("M")
    shared = _plan(gpu, cpu, 2)
    grid = tuple(Decimal(x) for x in ("0", "0.5", "0.5000000000000000001", "2.718281828459045235"))
    odd = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e300, 5e-324, 3]

    def points(plans, raws):
        return tuple(SweepPoint(pw, raw, raw / 2 if isinstance(raw, float) else raw, plan)
                     for pw, raw, plan in zip(grid, raws, plans))

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
    for normalizer in (0, math.inf, 7.25):
        assert_same_output(SweepResult(grid=grid[:2], curves={"planner": points([shared] * 2, [1.0, 2.0])},
                                       normalizer=normalizer))
    nan = Decimal("NaN")
    shuffled = tuple(SweepPoint(pw, 1.0, 0.5, shared) for pw in (nan, Decimal(2), nan, Decimal(1), nan))
    assert_same_output(SweepResult(grid=grid, curves={"noscale": shuffled, "planner": shuffled[::-1]}))
    assert_same_output(SweepResult(grid=()))
    assert_same_output(SweepResult(grid=grid, curves={"planner": ()}))


def test_multi_line_plan_values_match_reference(simulated_catalog):
    # Values json.dumps writes on several lines sit at different indents in a
    # row (6 spaces) and in a plan summary (10).
    gpu = InstanceSpec(name=("g", "pu"), kind=Kind.GPU, od_price="0.5", spot_price="0.2", network_bw=10,
                       eflops=100, memory=16)
    plans = [ClusterPlan(["single", "anchor"], gpu, 3, None, {"m": [1, 2]}, Decimal("1.25"), 12.5),
             _plan(gpu, simulated_catalog.by_name("M"), [4, 5], z=[6.5])]
    grid = (Decimal("0.5"), Decimal(1))
    result = SweepResult(grid=grid, curves={"planner": tuple(SweepPoint(pw, 1.0, 0.5, plan)
                                                              for pw, plan in zip(grid, plans))})
    assert_same_output(result)


# sha256 of the default sweep's JSON per bundled catalog, from the dict-tree writer.
PINNED_SWEEP_JSON_SHA256 = {
    "simulated_catalog": "dee822d7cad1d98b068d882bb044e2b23738d4efe8bd37138b42a276b85b72fd",
    "aws_catalog": "688bb3164b95b7a2cc42f46a5bf6cfc255b16f10a01531b995bf8d0698363ab1",
}


@pytest.mark.parametrize("fixture", sorted(PINNED_SWEEP_JSON_SHA256))
def test_bundled_sweep_json_bytes_are_pinned(request, fixture):
    text = sweep_to_json(run_sweep(request.getfixturevalue(fixture), SweepSpec()))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SWEEP_JSON_SHA256[fixture]


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
