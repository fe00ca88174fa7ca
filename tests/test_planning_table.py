"""The planning table: FLOPP and n_sat once per catalog, not once per request.

Each catalog keeps one table in its __dict__, as it keeps its views: the
single-anchor row of each available GPU, built from its flopp(), per
saturation table the n_sat of every (GPU, CPU) pair, and the CPUs in
(price, index) order, the order in which _rows drops dominated tiering rows.
recommend(), run_sweep() and the baselines read it, and it is no part of the
catalog's value.
"""
import dataclasses
import pickle
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest

from spotplan import (
    Catalog,
    PlanRequest,
    SaturationTable,
    SweepSpec,
    bundled_aws_catalog,
    bundled_simulated_catalog,
    plan_cost_first,
    plan_noscale,
    plan_performance_first,
    recommend,
    run_sweep,
)
from spotplan import planner
from spotplan.saturation import default_saturation_table, min_cpu_count, n_sat_lookup

# Requests whose memory filters keep all, some and none of the bundled catalogs' CPUs.
REQUESTS = [PlanRequest(pw=pw, ckpt_size=ckpt, buffer_count=2, max_instances=cap, top_k=k)
            for pw, ckpt, cap, k in (("3", 0.5, 256, 3), ("0.7", 8, 64, 1), ("12", 64, 1024, 5), ("1", 1000, 16, 2))]
SPEC = SweepSpec(pw_max="4", pw_step="0.25")


@pytest.fixture()
def table_work(monkeypatch):
    """The flopp() and n_sat_lookup() calls made so far, by name."""
    calls = {"flopp": 0, "n_sat_lookup": 0}
    for name in calls:
        def counting(*args, real=getattr(planner, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(planner, name, counting)
    return calls


@pytest.mark.parametrize("load", [bundled_simulated_catalog, bundled_aws_catalog])
def test_flopp_and_n_sat_run_once_per_catalog_and_saturation_table(table_work, sat_table, load):
    catalog = load()
    gpus, cpus = len(catalog.gpu_view), len(catalog.cpu_view)
    for _ in range(3):
        for req in REQUESTS:
            recommend(catalog, req)
            recommend(catalog, req, sat=sat_table)
            plan_noscale(catalog, req)
            plan_cost_first(catalog, req)
            plan_performance_first(catalog, req)
        run_sweep(catalog, SPEC)
    assert table_work == {"flopp": gpus, "n_sat_lookup": gpus * cpus}

    equal = SaturationTable(sat_table.entries)  # an equal table shares the entry
    recommend(catalog, REQUESTS[0], sat=equal)
    run_sweep(catalog, SPEC, sat=equal)
    assert table_work == {"flopp": gpus, "n_sat_lookup": gpus * cpus}

    other = SaturationTable(((1.0, 2), (20.0, 40)))
    for _ in range(3):
        recommend(catalog, REQUESTS[0], sat=other)
        run_sweep(catalog, SPEC, sat=other)
    assert table_work == {"flopp": gpus, "n_sat_lookup": 2 * gpus * cpus}
    assert len(vars(catalog)["_planning"][1]) == 2  # one entry per saturation table

    recommend(load(), REQUESTS[0])  # a new catalog, as a price update makes, has its own table
    assert table_work == {"flopp": 2 * gpus, "n_sat_lookup": 3 * gpus * cpus}


@pytest.mark.parametrize("load", [bundled_simulated_catalog, bundled_aws_catalog])
def test_requests_baselines_and_sweeps_reuse_the_catalog_s_single_anchor_rows(monkeypatch, table_work, load):
    """Every planner reads the catalog's own single-anchor row objects, built from one flopp() call per GPU."""
    used = []

    def n_top(row, pw, cap, real=planner._SingleAnchorRow.n_top):
        used.append(row)
        return real(row, pw, cap)

    monkeypatch.setattr(planner._SingleAnchorRow, "n_top", n_top)
    catalog = load()
    runs = {"request": lambda: recommend(catalog, REQUESTS[0]),
            "other request": lambda: recommend(catalog, REQUESTS[2]),
            "cost_first": lambda: plan_cost_first(catalog, REQUESTS[0]),
            "performance_first": lambda: plan_performance_first(catalog, REQUESTS[0]),
            "sweep": lambda: run_sweep(catalog, SPEC)}
    rows = {}
    for name, run in runs.items():
        used.clear()
        run()
        rows[name] = {id(row): row for row in used}
    anchors = {id(row): row for row in vars(catalog)["_planning"][0]}
    assert [row.v for row in anchors.values()] == list(catalog.gpu_view)
    assert rows["request"] == rows["other request"] == rows["sweep"] == anchors  # the same objects
    assert len(rows["cost_first"]) == len(rows["performance_first"]) == 1
    assert rows["cost_first"].items() <= anchors.items() and rows["performance_first"].items() <= anchors.items()
    assert table_work["flopp"] == len(catalog.gpu_view)


@pytest.mark.parametrize("load", [bundled_simulated_catalog, bundled_aws_catalog])
def test_a_tiering_plan_holds_the_fewest_cpus_its_row_allows(load):
    """A candidate carries no m: the plan takes min_cpu_count(n_gpu, n_sat) from its row."""
    catalog, sat = load(), default_saturation_table()
    plans = [plan for req in REQUESTS for plan in recommend(catalog, dataclasses.replace(req, top_k=20))]
    plans += [plan for point in run_sweep(catalog, SPEC).curve("planner") if (plan := point.plan)]
    tiering = [plan for plan in plans if plan.cpu_instance]
    assert tiering and all(
        plan.m_cpu == min_cpu_count(plan.n_gpu, n_sat_lookup(sat, plan.gpu_instance, plan.cpu_instance))
        for plan in tiering)


@pytest.mark.parametrize("load, limit", [(bundled_simulated_catalog, 82), (bundled_aws_catalog, 31)])
def test_recommend_builds_only_rows_that_can_reach_the_top_k(monkeypatch, load, limit):
    """A work count: the rows recommend() builds for REQUESTS.  Building the
    tiering row of every CPU that holds the checkpoints made 110 on the
    simulated catalog and 45 on AWS; _rows skips each row that top_k rows of
    cheaper CPUs with an n_sat no lower beat at every n."""
    built = [0]

    def counting(*args, real=planner._rows):
        built[0] += len(rows := real(*args))
        return rows

    monkeypatch.setattr(planner, "_rows", counting)
    catalog = load()
    for req in REQUESTS:
        recommend(catalog, req)
    assert built[0] <= limit, built[0]


@pytest.mark.parametrize("load", [bundled_simulated_catalog, bundled_aws_catalog])
def test_a_table_in_use_plans_as_a_fresh_catalog_does(load):
    """Whatever the table holds already, each saturation table's plans and sweeps are those of a fresh catalog."""
    planned, other = load(), SaturationTable(((1.0, 2), (20.0, 40)))
    for sat in (other, None, other):
        for req in REQUESTS:
            assert recommend(planned, req, sat=sat) == recommend(load(), req, sat=sat)
            assert plan_cost_first(planned, req) == plan_cost_first(load(), req)
        assert run_sweep(planned, SPEC, sat=sat) == run_sweep(load(), SPEC, sat=sat)


def test_the_table_is_not_part_of_the_catalogs_value(sat_table):
    planned, fresh = bundled_simulated_catalog(), bundled_simulated_catalog()
    recommend(planned, REQUESTS[0])
    run_sweep(planned, SPEC, sat=SaturationTable(((1.0, 2),)))
    assert {"gpu_view", "_planning"} <= set(vars(planned)) and not {"gpu_view", "_planning"} & set(vars(fresh))
    assert planned == fresh and hash(planned) == hash(fresh) and repr(planned) == repr(fresh)
    assert {planned: 1}[fresh] == 1

    replaced = dataclasses.replace(planned)
    assert replaced == fresh and "_planning" not in vars(replaced)
    assert dataclasses.replace(planned, instances=planned.instances[:3]) == Catalog(fresh.instances[:3])

    unpickled = pickle.loads(pickle.dumps(planned))
    assert unpickled == fresh and hash(unpickled) == hash(fresh) and repr(unpickled) == repr(fresh)
    assert vars(unpickled) == {"instances": fresh.instances}  # a pickle carries no view and no table
    assert [recommend(unpickled, req) for req in REQUESTS] == [recommend(fresh, req) for req in REQUESTS]


def test_a_planned_catalog_is_freed_once_dropped(sat_table):
    """Nothing but the catalog holds its table, and the table does not hold the catalog."""
    catalog = bundled_simulated_catalog()
    for req in REQUESTS:
        plans = recommend(catalog, req, sat=sat_table)
        plan_cost_first(catalog, req)
    result = run_sweep(catalog, SPEC)
    ref = weakref.ref(catalog)
    del catalog
    assert ref() is None
    assert plans and result.curves  # what planning returned outlives the catalog


def test_threads_sharing_fresh_catalogs_plan_as_one_thread_does():
    """Eight threads on two cores race to build each fresh catalog's table: each plans as a lone thread does,
    and the catalog keeps one table with one entry for its one saturation table."""
    requests = REQUESTS * 2
    expected = [recommend(bundled_simulated_catalog(), req) for req in requests]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            for _ in range(10):
                shared = bundled_simulated_catalog()
                assert list(pool.map(lambda req: recommend(shared, req), requests, timeout=60)) == expected
                anchors, n_sats, by_price = vars(shared)["_planning"]
                assert [row.v for row in anchors] == list(shared.gpu_view) and len(n_sats) == 1
                assert by_price == sorted(range(len(shared.cpu_view)), key=lambda j: shared.cpu_view[j].od_price)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("ckpt_size", [0.5, 1000])
def test_an_empty_saturation_table_is_refused_whatever_the_checkpoint_size(ckpt_size):
    """The table holds the n_sat of every (GPU, CPU) pair, before the memory filter drops any CPU."""
    with pytest.raises(ValueError, match="^saturation table is empty$"):
        recommend(bundled_simulated_catalog(), PlanRequest(pw="3", ckpt_size=ckpt_size), sat=SaturationTable(()))
