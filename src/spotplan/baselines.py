"""Comparison policies: cost-first, performance-first, and no-scale."""
from __future__ import annotations

from typing import Optional

from .catalog import Catalog, InstanceSpec
from .planner import ClusterPlan, PlanRequest, _plan, _single_anchor_rows, recommend
from .saturation import SaturationTable
from .scaling import ScalingSource, UnitScaling

__all__ = ["plan_cost_first", "plan_performance_first", "plan_noscale"]


def _single_anchor_at_max_n(
    v: InstanceSpec, req: PlanRequest, scaling: ScalingSource
) -> Optional[ClusterPlan]:
    # The first candidate of v's single-anchor row has the largest n in budget.
    top = next(_single_anchor_rows((v,), req, scaling), None)
    return _plan(top) if top else None


def plan_cost_first(
    catalog: Catalog, req: PlanRequest, scaling: ScalingSource | None = None
) -> Optional[ClusterPlan]:
    """Cheapest-spot GPU as a single anchor, packed with as many nodes as fit."""
    gpus = catalog.gpu_view
    if not gpus:
        return None
    scaling = scaling or ScalingSource()
    v = min(enumerate(gpus), key=lambda iv: (iv[1].spot_price, -iv[1].eflops, iv[0]))[1]
    return _single_anchor_at_max_n(v, req, scaling)


def plan_performance_first(
    catalog: Catalog, req: PlanRequest, scaling: ScalingSource | None = None
) -> Optional[ClusterPlan]:
    """Highest-eflops GPU as a single anchor; no fallback when unaffordable."""
    gpus = catalog.gpu_view
    if not gpus:
        return None
    scaling = scaling or ScalingSource()
    v = min(enumerate(gpus), key=lambda iv: (-iv[1].eflops, iv[1].spot_price, iv[0]))[1]
    return _single_anchor_at_max_n(v, req, scaling)


def plan_noscale(
    catalog: Catalog, req: PlanRequest, sat: SaturationTable | None = None
) -> list[ClusterPlan]:
    """Full search, but scoring every candidate as if speedup were linear."""
    return recommend(catalog, req, scaling=UnitScaling(), sat=sat)
