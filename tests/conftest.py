import heapq
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import pytest

from spotplan import (
    ScalingSource,
    UnitScaling,
    bundled_aws_catalog,
    bundled_simulated_catalog,
    default_saturation_table,
    recommend,
)
from spotplan import simulator
from spotplan.planner import MAX_INSTANCES, _SingleAnchorRow, _TieringRow


@pytest.fixture(scope="session")
def simulated_catalog():
    return bundled_simulated_catalog()


@pytest.fixture(scope="session")
def aws_catalog():
    return bundled_aws_catalog()


@pytest.fixture(scope="session")
def sat_table():
    return default_saturation_table()


@pytest.fixture()
def scaling_source():
    return ScalingSource()


def _method_calls(monkeypatch, classes, name):
    """count(f, *args): the calls of the classes' method name that f(*args)
    makes."""
    calls = [0]
    for cls in classes:
        def counting(self, *args, real=getattr(cls, name)):
            calls[0] += 1
            return real(self, *args)

        monkeypatch.setattr(cls, name, counting)

    def count(f, *args):
        calls[0] = 0
        f(*args)
        return calls[0]

    return count


@pytest.fixture()
def price_calls(monkeypatch):
    """price_calls(f, *args): the rows' price() calls that f(*args) makes.  A
    work count, so machine noise does not move it."""
    return _method_calls(monkeypatch, (_SingleAnchorRow, _TieringRow), "price")


@pytest.fixture()
def heap_pops(monkeypatch):
    """heap_pops(f, *args): the simulator's heapq.heappop calls, one per wake of
    a sweep row, that f(*args) makes.  A work count, so machine noise does not
    move it."""
    calls = [0]

    def heappop(heap):
        calls[0] += 1
        return heapq.heappop(heap)

    monkeypatch.setattr(simulator, "heapq", SimpleNamespace(**{**vars(heapq), "heappop": heappop}))

    def count(f, *args):
        calls[0] = 0
        f(*args)
        return calls[0]

    return count


@pytest.fixture()
def factor_calls(monkeypatch):
    """factor_calls(f, *args): the K(n) calls, ScalingSource.factor and
    UnitScaling.factor, that f(*args) makes.  A work count, so machine noise
    does not move it."""
    return _method_calls(monkeypatch, (ScalingSource, UnitScaling), "factor")


@pytest.fixture()
def generic_renders(monkeypatch):
    """generic_renders(f, *args): the csv.writer rows that f(*args) renders:
    the CSV writer's header and the names it quotes.  A work count, so machine
    noise does not move it."""
    calls = [0]

    def counting(real):
        def count(*args):
            calls[0] += 1
            return real(*args)

        return count

    monkeypatch.setattr(simulator._Echo, "write", staticmethod(counting(simulator._Echo.write)))

    def count(f, *args):
        calls[0] = 0
        f(*args)
        return calls[0]

    return count


@pytest.fixture()
def writer_work(monkeypatch):
    """writer_work(f, *args): the work of a sweep writer f(*args), as (reads,
    sorts).  reads counts, per plan id, the plan's reads through
    simulator._plan_values, which every route of every writer takes once per
    render; sorts lists the length of each sorted() in simulator.  Work counts,
    so machine noise does not move them."""
    reads, sorts = Counter(), []
    real_values = simulator._plan_values

    def values(plan):
        reads[id(plan)] += 1
        return real_values(plan)

    def counting_sorted(items, **kwargs):
        items = list(items)
        sorts.append(len(items))
        return sorted(items, **kwargs)

    monkeypatch.setattr(simulator, "_plan_values", values)
    monkeypatch.setattr(simulator, "sorted", counting_sorted, raising=False)

    def count(f, *args):
        reads.clear()
        sorts.clear()
        f(*args)
        return Counter(reads), list(sorts)

    return count


def _best_of(architecture, catalog, req, scaling=None, sat=None):
    """The best plan of one architecture, or None.

    recommend returns the top MAX_INSTANCES candidates (the largest top_k) in
    rank order, so the first of the architecture among them is its best; when
    none is, fewer came back, and so every candidate.
    """
    plans = recommend(catalog, replace(req, top_k=MAX_INSTANCES), scaling, sat)
    best = next((plan for plan in plans if plan.architecture == architecture), None)
    assert best or len(plans) < MAX_INSTANCES, "the architecture's best may rank below the top MAX_INSTANCES"
    return best


@pytest.fixture(scope="session")
def best_of():
    """_best_of, the best plan of one architecture under a request."""
    return _best_of


def _gpu(name, price, eflops):
    return {"name": name, "kind": "gpu", "od_price": price, "spot_price": price,
            "network_gbps": 10, "eflops": eflops}


def _cpu(name, od, spot):
    return {"name": name, "kind": "cpu", "od_price": od, "spot_price": spot, "network_gbps": 10}


@pytest.fixture(
    params=[
        # eflops / price overflows for "v"; the other two GPUs are fine.
        ({"instances": [_gpu("v", "1e-10", 1e300), _gpu("big", "1", 1e301), _gpu("cheap", "1e-20", 1)]},
         "instance 'v': eflops / spot_price is not a finite float (1e+300 / 1e-10)"),
        # 1e-400 is a positive Decimal but 0.0 as a float.
        ({"instances": [_gpu("tiny", "1e-400", 1)]},
         "instance 'tiny': eflops / spot_price is not a finite float (1.0 / 0.0)"),
        # Prices beyond float range, of a GPU and of a CPU.
        ({"instances": [_gpu("v", "1e400", 1)]},
         "instance 'v': od_price is not a finite float (1E+400)"),
        ({"instances": [_gpu("v", "1", 1), _cpu("w", "1e400", "1")]},
         "instance 'w': od_price is not a finite float (1E+400)"),
    ],
    ids=["overflow", "underflow", "gpu-price", "cpu-price"],
)
def non_finite_flopp(request):
    """A catalog document with a GPU whose FLOPP is not a finite float, or an
    instance whose price is not, and the refusal."""
    return request.param
