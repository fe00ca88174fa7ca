"""The planning table: FLOPP and n_sat once per catalog, not once per request.

Each catalog keeps one table in its __dict__, as it keeps its views: the
FloppScore of each available GPU and, per saturation table, the n_sat of
every (GPU, CPU) pair.  recommend(), run_sweep() and the sweep's baselines
read it, and it is no part of the catalog's value.
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
                scores, n_sats = vars(shared)["_planning"]
                assert [s.instance for s in scores] == list(shared.gpu_view) and len(n_sats) == 1
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("ckpt_size", [0.5, 1000])
def test_an_empty_saturation_table_is_refused_whatever_the_checkpoint_size(ckpt_size):
    """The table holds the n_sat of every (GPU, CPU) pair, before the memory filter drops any CPU."""
    with pytest.raises(ValueError, match="^saturation table is empty$"):
        recommend(bundled_simulated_catalog(), PlanRequest(pw="3", ckpt_size=ckpt_size), sat=SaturationTable(()))
