"""Tests of the benchmark itself: seeded inputs and the output checker.

    PYTHONPATH=src python -m pytest -q perfbench
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest
from spotplan import (
    PlanRequest,
    bundled_simulated_catalog,
    default_saturation_table,
    load_catalog,
    recommend,
)

import check
import gen

SIMULATED = (Path(__file__).resolve().parent.parent / "src/spotplan/data/catalogs/simulated.json").read_text()


def generated(seed):
    return (
        gen.plan_stream(seed, length=300),
        gen.sweep_catalog(seed, SIMULATED),
        gen.fit_csvs(seed),
    )


def test_same_seed_gives_identical_inputs():
    assert generated(7) == generated(7)


def test_other_seed_gives_other_inputs():
    a, b = generated(7), generated(8)
    assert a[0].pool != b[0].pool
    assert a[0].ops != b[0].ops
    assert a[1] != b[1]
    assert a[2] != b[2]


def test_stream_prefix_does_not_depend_on_length():
    assert gen.plan_stream(3, length=100).ops == gen.plan_stream(3, length=300).ops[:100]


def test_generated_catalogs_parse_without_warnings(recwarn):
    stream = gen.plan_stream(5, length=200)
    for doc in stream.pool + tuple(op.document for op in stream.ops if isinstance(op, gen.UpdateOp)):
        catalog = load_catalog(doc)
        assert 4 <= len(catalog.gpu_view) <= 16
        assert 2 <= len(catalog.cpu_view) <= 12
    load_catalog(gen.sweep_catalog(5, SIMULATED))
    assert not recwarn.list


@pytest.fixture(scope="module")
def planned():
    catalog = bundled_simulated_catalog()
    req = PlanRequest(pw="3", top_k=3)
    return catalog, req, recommend(catalog, req), default_saturation_table()


def test_checker_accepts_recommend_output(planned):
    catalog, req, plans, sat = planned
    assert len(plans) == 3
    assert check.check_plans(catalog, req, plans, sat) == []


def test_checker_rejects_over_budget_plan(planned):
    catalog, req, plans, sat = planned
    top = plans[0]
    n = int((req.pw - top.gpu_instance.od_price) / top.gpu_instance.spot_price) + 2
    price = top.gpu_instance.od_price + (n - 1) * top.gpu_instance.spot_price
    over = dataclasses.replace(
        top, architecture="single_anchor", cpu_instance=None, m_cpu=None, n_gpu=n,
        hourly_price=price, score_z=check.expected_z("single_anchor", top.gpu_instance, n),
    )
    problems = check.check_plans(catalog, req, [over], sat)
    assert any("over budget" in p for p in problems)


def test_checker_rejects_mis_ranked_list(planned):
    catalog, req, plans, sat = planned
    problems = check.check_plans(catalog, req, list(reversed(plans)), sat)
    assert problems == ["plans not sorted by (-Z, price)"]


def test_checker_rejects_wrong_price_and_score(planned):
    catalog, req, plans, sat = planned
    bad = dataclasses.replace(plans[0], hourly_price=plans[0].hourly_price - Decimal("0.0001"))
    assert any("hourly_price" in p for p in check.check_plans(catalog, req, [bad], sat))
    bad = dataclasses.replace(plans[0], score_z=plans[0].score_z * (1 + 1e-9))
    assert any("score_z" in p for p in check.check_plans(catalog, req, [bad], sat))


def test_checker_rejects_empty_result_when_something_fits(planned):
    catalog, req, _, sat = planned
    assert check.check_plans(catalog, req, [], sat)
    assert check.check_plans(catalog, PlanRequest(pw="0.01"), [], sat) == []


def test_run_without_the_package_exits_nonzero(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_smoke_run_prints_a_correct_result():
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plan-stream", "--seed", "1",
         "--seconds", "1", "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
