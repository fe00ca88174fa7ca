"""Comparison policies: cost-first, performance-first, and no-scale."""
from __future__ import annotations

from typing import Optional, Sequence

from .catalog import Catalog, InstanceSpec
from .planner import ClusterPlan, PlanRequest, _candidates, _plan, _SingleAnchorRow, flopp, recommend
from .saturation import SaturationTable
from .scaling import DEFAULT_SCALING, ScalingSource, UnitScaling

__all__ = ["plan_cost_first", "plan_performance_first", "plan_noscale"]


def _cost_first_gpu(gpus: Sequence[InstanceSpec]) -> Optional[int]:
    """Index of the cheapest-spot GPU, the higher eflops first on ties."""
    return min(range(len(gpus)), key=lambda i: (gpus[i].spot_price, -gpus[i].eflops, i), default=None)


def _performance_first_gpu(gpus: Sequence[InstanceSpec]) -> Optional[int]:
    """Index of the highest-eflops GPU, the cheaper spot first on ties."""
    return min(range(len(gpus)), key=lambda i: (-gpus[i].eflops, gpus[i].spot_price, i), default=None)


def _single_anchor_at_max_n(
    gpus: Sequence[InstanceSpec], v_idx: Optional[int], req: PlanRequest, scaling: ScalingSource | None
) -> Optional[ClusterPlan]:
    if v_idx is None:
        return None
    v = gpus[v_idx]
    # The first candidate of v's single-anchor row has the largest n in budget.
    top = next(_candidates([_SingleAnchorRow(v_idx, v, flopp(v))], req, scaling or DEFAULT_SCALING), None)
    return _plan(top) if top else None


def plan_cost_first(
    catalog: Catalog, req: PlanRequest, scaling: ScalingSource | None = None
) -> Optional[ClusterPlan]:
    """Cheapest-spot GPU as a single anchor, packed with as many nodes as fit."""
    gpus = catalog.gpu_view
    return _single_anchor_at_max_n(gpus, _cost_first_gpu(gpus), req, scaling)


def plan_performance_first(
    catalog: Catalog, req: PlanRequest, scaling: ScalingSource | None = None
) -> Optional[ClusterPlan]:
    """Highest-eflops GPU as a single anchor; no fallback when unaffordable."""
    gpus = catalog.gpu_view
    return _single_anchor_at_max_n(gpus, _performance_first_gpu(gpus), req, scaling)


def plan_noscale(
    catalog: Catalog, req: PlanRequest, sat: SaturationTable | None = None
) -> list[ClusterPlan]:
    """Full search, but scoring every candidate as if speedup were linear."""
    return recommend(catalog, req, scaling=UnitScaling(), sat=sat)
