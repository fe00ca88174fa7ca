from decimal import Decimal

import pytest

from oracles import plan_tuple
from spotplan import (
    Catalog,
    InstanceSpec,
    Kind,
    LogisticParams,
    PlanRequest,
    plan_cost_first,
    plan_noscale,
    plan_performance_first,
    recommend,
)


def gpu(name, od, spot, eflops, bw=10, params=None):
    return InstanceSpec(name=name, kind=Kind.GPU, od_price=od, spot_price=spot,
                        network_bw=bw, eflops=eflops, memory=16,
                        scaling_params=params)


class TestCostFirst:
    def test_picks_cheapest_spot(self, simulated_catalog):
        plan = plan_cost_first(simulated_catalog, PlanRequest(pw="3"))
        assert plan.gpu_instance.name == "J"
        assert plan.architecture == "single_anchor"
        # cheapest-spot claim is assertable by scan
        assert plan.gpu_instance.spot_price == min(
            v.spot_price for v in simulated_catalog.gpu_view
        )

    def test_boundary_budget_single_node(self, simulated_catalog):
        plan = plan_cost_first(simulated_catalog, PlanRequest(pw="0.22"))
        assert plan.n_gpu == 1
        assert plan.hourly_price == Decimal("0.22")

    def test_infeasible(self, simulated_catalog):
        assert plan_cost_first(simulated_catalog, PlanRequest(pw="0.1")) is None

    def test_catalog_without_gpus_has_no_plan(self, simulated_catalog):
        assert plan_cost_first(Catalog(simulated_catalog.cpu_view), PlanRequest(pw="3")) is None

    def test_packs_maximum_nodes(self, simulated_catalog):
        plan = plan_cost_first(simulated_catalog, PlanRequest(pw="3"))
        # one more spot node would exceed the ceiling
        assert plan.hourly_price + plan.gpu_instance.spot_price > Decimal("3")

    def test_tie_prefers_higher_eflops(self):
        cat = Catalog((gpu("weak", "1", "0.1", 50), gpu("strong", "1", "0.1", 80)))
        plan = plan_cost_first(cat, PlanRequest(pw="2"))
        assert plan.gpu_instance.name == "strong"


class TestPerformanceFirst:
    def test_picks_highest_eflops(self, simulated_catalog):
        plan = plan_performance_first(simulated_catalog, PlanRequest(pw="3"))
        assert plan.gpu_instance.name == "I"
        assert plan.gpu_instance.eflops == max(
            v.eflops for v in simulated_catalog.gpu_view
        )

    def test_no_fallback_below_anchor_price(self, simulated_catalog):
        assert plan_performance_first(simulated_catalog, PlanRequest(pw="1.5")) is None

    def test_two_nodes_at_2_2(self, simulated_catalog):
        plan = plan_performance_first(simulated_catalog, PlanRequest(pw="2.2"))
        assert plan.n_gpu == 2
        assert plan.hourly_price == Decimal("2.109")

    def test_tie_prefers_cheaper_spot(self):
        cat = Catalog((gpu("pricey", "1", "0.5", 100), gpu("cheap", "1", "0.2", 100)))
        plan = plan_performance_first(cat, PlanRequest(pw="2"))
        assert plan.gpu_instance.name == "cheap"


class TestNoScale:
    def test_budget_still_enforced(self, simulated_catalog):
        for pw in ("0.5", "2", "6"):
            req = PlanRequest(pw=pw, top_k=5)
            for plan in plan_noscale(simulated_catalog, req):
                assert plan.hourly_price <= req.pw

    def test_prefers_high_flopp_despite_poor_scaling(self):
        # 'fast_bad' has the better FLOPP but its speedup flattens at ~1.2,
        # so the scale-aware planner avoids it while noscale does not.
        poor = LogisticParams(a=0.5, b=1.0, c=1.2)
        cat = Catalog((
            gpu("fast_bad", "0.2", "0.1", 1000, params=poor),
            gpu("steady", "0.2", "0.1", 500),
        ))
        req = PlanRequest(pw="2")
        noscale_pick = plan_noscale(cat, req)[0]
        full_pick = recommend(cat, req)[0]
        assert noscale_pick.gpu_instance.name == "fast_bad"
        assert full_pick.gpu_instance.name == "steady"

    def test_same_shape_when_no_pathological_instance(self, simulated_catalog):
        req = PlanRequest(pw="3")
        assert plan_tuple(plan_noscale(simulated_catalog, req)[0]) == plan_tuple(
            recommend(simulated_catalog, req)[0]
        )

    def test_equals_recommend_when_scaling_is_unit(self):
        # a = 4/c with c a power of two makes the tangent exactly y = n, so
        # K(n) == 1.0 in floating point for every n <= b.
        unit = LogisticParams(a=4 / 512, b=256.0, c=512.0)
        cat = Catalog((
            gpu("x", "0.4", "0.2", 300, params=unit),
            gpu("y", "0.3", "0.15", 200, params=unit),
            InstanceSpec(name="w", kind=Kind.CPU, od_price="0.1", spot_price="0.05",
                         network_bw=10, eflops=0, memory=8, scaling_params=None),
        ))
        req = PlanRequest(pw="4", top_k=5, max_instances=256)
        full = recommend(cat, req)
        noscale = plan_noscale(cat, req)
        assert [p.summary() for p in full] == [p.summary() for p in noscale]
