"""Price-ceiling sweeps: evaluate every policy across a PW grid.

Each policy's recommended configuration at each grid point is scored with a
common performance metric (trainer count times eflops times the scaling
factor), and curves are normalized to the full planner's value at the top of
the grid.  Grid values are exact decimals, so a 0.1 step never drifts.
"""
from __future__ import annotations

import csv
import heapq
import io
import json
import math
from array import array
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation, getcontext
from typing import Optional

from .baselines import _cost_first_gpu, _performance_first_gpu
from .catalog import Catalog, as_price
from .planner import ClusterPlan, PlanRequest, _plan, _rows
from .saturation import SaturationTable, default_saturation_table
from .scaling import ScalingSource, UnitScaling

__all__ = [
    "DEFAULT_POLICIES",
    "SweepSpec",
    "SweepPoint",
    "SweepResult",
    "evaluate_performance",
    "run_sweep",
    "estimate_cost",
    "sweep_rows",
    "sweep_to_csv",
    "sweep_to_json",
]

PLANNER_POLICY = "planner"

DEFAULT_POLICIES = (PLANNER_POLICY, "noscale", "cost_first", "performance_first")

# The single-anchor GPU each baseline packs.
_BASELINE_GPUS = {"cost_first": _cost_first_gpu, "performance_first": _performance_first_gpu}

# Largest grid a SweepSpec accepts.  Every point is planned, kept and
# serialized: 10,000 points of JSON output take about 200 MiB.
MAX_GRID_POINTS = 10_000


def evaluate_performance(plan: Optional[ClusterPlan], scaling: ScalingSource | None = None) -> float:
    """Common evaluation metric: trainer count x eflops x scaling factor.

    The single-anchor On-Demand node trains, so it counts; tiering CPU
    memory nodes do not.  An infeasible (None) plan scores 0.
    """
    if plan is None:
        return 0.0
    scaling = scaling or ScalingSource()
    v = plan.gpu_instance
    return plan.n_gpu * v.eflops * scaling.factor(v, plan.n_gpu)


def estimate_cost(
    plan: ClusterPlan, total_ops: float, scaling: ScalingSource | None = None
) -> tuple[float, float]:
    """(makespan_hours, total_cost) to push total_ops through the plan."""
    if not total_ops > 0:
        raise ValueError("total_ops must be positive")
    performance = evaluate_performance(plan, scaling)
    if not performance > 0:
        raise ValueError("configuration cannot make progress")
    makespan_hours = total_ops / (performance * 3600.0)
    return makespan_hours, makespan_hours * float(plan.hourly_price)


@dataclass(frozen=True)
class SweepSpec:
    """A PW grid plus the request template shared by every grid point."""

    pw_min: Decimal = Decimal("0")
    pw_max: Decimal = Decimal("10")
    pw_step: Decimal = Decimal("0.1")
    policies: tuple[str, ...] = DEFAULT_POLICIES
    ckpt_size: float = 0.5
    buffer_count: int = 2
    max_instances: int = 256

    def __post_init__(self):
        object.__setattr__(self, "pw_min", as_price(self.pw_min))
        object.__setattr__(self, "pw_max", as_price(self.pw_max))
        object.__setattr__(self, "pw_step", as_price(self.pw_step))
        object.__setattr__(self, "policies", tuple(self.policies))
        if self.pw_min < 0 or self.pw_min >= self.pw_max:
            raise ValueError("need 0 <= pw_min < pw_max")
        if not self.pw_step > 0:
            raise ValueError("pw_step must be positive")
        unknown = [p for p in self.policies if p not in DEFAULT_POLICIES]
        if unknown:
            raise ValueError(f"unknown policies: {unknown}")
        self._points()

    def _points(self) -> int:
        """(pw_max - pw_min) // pw_step + 1, exactly; at most MAX_GRID_POINTS."""
        limit = f"the limit is {MAX_GRID_POINTS}"
        try:
            points = int((self.pw_max - self.pw_min) // self.pw_step) + 1
        except InvalidOperation:  # the quotient outgrows the Decimal context
            raise ValueError(f"the PW grid has more than 10**{getcontext().prec} points; {limit}") from None
        if points > MAX_GRID_POINTS:
            raise ValueError(f"the PW grid has {points} points; {limit}")
        return points

    def grid(self) -> tuple[Decimal, ...]:
        """Exact-decimal grid pw_min, pw_min + step, ... up to pw_max."""
        return tuple(self.pw_min + i * self.pw_step for i in range(self._points()))

    def request_at(self, pw: Decimal) -> PlanRequest:
        return PlanRequest(
            pw=pw,
            ckpt_size=self.ckpt_size,
            buffer_count=self.buffer_count,
            max_instances=self.max_instances,
            top_k=1,
        )


@dataclass(frozen=True)
class SweepPoint:
    pw: Decimal
    raw: float
    normalized: float
    plan: Optional[ClusterPlan]


@dataclass(frozen=True)
class SweepResult:
    grid: tuple[Decimal, ...]
    curves: dict[str, tuple[SweepPoint, ...]] = field(default_factory=dict)
    normalizer: float = 0.0

    def curve(self, policy: str) -> tuple[SweepPoint, ...]:
        return self.curves[policy]


def _z_tables(rows: list, scaling: ScalingSource) -> dict:
    """Per (GPU index, rank): Z(n) for n = 1..N, and for each t <= N the index
    of the first n <= t with the largest Z(1..t).

    N is the largest n_top of the GPU's rows.  K(n) is taken once per GPU and
    n, and tiering Z does not depend on w, so a GPU's tiering rows share one
    table.  Tables are packed arrays, since max_instances may be large.
    """
    n_max: dict[int, int] = {}
    by_rank: dict[int, dict] = {}  # one row of each rank per GPU index
    for row, top in rows:
        n_max[row.v_idx] = max(n_max.get(row.v_idx, 0), top)
        by_rank.setdefault(row.v_idx, {}).setdefault(row.rank, row)
    tables = {}
    for v_idx, group in by_rank.items():
        v = next(iter(group.values())).v
        ks = [scaling.factor(v, n) for n in range(1, n_max[v_idx] + 1)]
        for rank, row in group.items():
            zs = [row.z(n, k) for n, k in enumerate(ks, 1)]
            firsts, best = [], 0
            for i, z in enumerate(zs):
                if z > zs[best]:
                    best = i
                firsts.append(best)
            tables[v_idx, rank] = array("d", zs), array("q", firsts)
    return tables


def _sweep_plans(
    catalog: Catalog,
    spec: SweepSpec,
    grid: tuple[Decimal, ...],
    scaling: ScalingSource,
    sat: SaturationTable,
) -> dict[str, list[tuple[Optional[ClusterPlan], float]]]:
    """(plan, raw performance) of every policy at every grid point, in one
    ascending pass over the grid.

    A row's n_top is a step function of pw.  The pass raises it, by exact
    Decimal price comparisons, only when pw reaches the price of n_top + 1,
    and never past the row's n_top at the last grid point.  The row's best
    candidate at n_top is the first n <= n_top with the largest Z, which is
    what the walk of recommend() finds with top_k = 1.  That candidate's key
    can only fall as pw rises, so the planner's plan at a point is the
    smallest key any row has produced so far; noscale is the same with K = 1.
    cost_first and performance_first take the n_top candidate of one
    single-anchor row.
    """
    per_point = {policy: [(None, 0.0)] * len(grid) for policy in DEFAULT_POLICIES}
    if not grid[-1] > 0:
        # All prices are positive, so a zero ceiling admits no plan.
        return per_point
    req = spec.request_at(grid[-1])
    cap = req.max_instances
    rows = [(row, top) for row in _rows(catalog, req, sat) if (top := row.n_top(req.pw, cap)) >= 1]
    scored = {PLANNER_POLICY: scaling, "noscale": UnitScaling()}
    tables = {policy: _z_tables(rows, source) for policy, source in scored.items()}
    single_anchor = {row.v_idx: r for r, (row, _) in enumerate(rows) if not row.rank}
    followers: dict[int, list[str]] = {}
    for policy, pick in _BASELINE_GPUS.items():
        r = single_anchor.get(pick(catalog.gpu_view))
        if r is not None:
            followers.setdefault(r, []).append(policy)

    def evaluated(candidate: tuple) -> tuple[ClusterPlan, float]:
        plan = _plan(candidate)
        return plan, evaluate_performance(plan, scaling)

    best_key = dict.fromkeys(scored, (math.inf,))
    current = dict.fromkeys(DEFAULT_POLICIES, (None, 0.0))
    n_tops = [0] * len(rows)
    thresholds = [(row.price(1), r) for r, (row, _) in enumerate(rows)]  # price of n_top + 1
    heapq.heapify(thresholds)
    for i, pw in enumerate(grid):
        while thresholds and thresholds[0][0] <= pw:
            r = heapq.heappop(thresholds)[1]
            row, top = rows[r]
            n_top = n_tops[r] + 1
            while n_top < top and (price := row.price(n_top + 1)) <= pw:
                n_top += 1
            n_tops[r] = n_top
            if n_top < top:  # the step ended on price(n_top + 1) > pw
                heapq.heappush(thresholds, (price, r))
            for policy in scored:
                zs, firsts = tables[policy][row.v_idx, row.rank]
                n = firsts[n_top - 1]
                if -zs[n] <= best_key[policy][0]:
                    candidate = row.candidate(n + 1, zs[n])
                    if candidate[0] < best_key[policy]:
                        best_key[policy] = candidate[0]
                        current[policy] = evaluated(candidate)
            for policy in followers.get(r, ()):
                zs = tables[PLANNER_POLICY][row.v_idx, row.rank][0]
                current[policy] = evaluated(row.candidate(n_top, zs[n_top - 1]))
        for policy, points in per_point.items():
            points[i] = current[policy]
    return per_point


def run_sweep(
    catalog: Catalog,
    spec: SweepSpec,
    scaling: ScalingSource | None = None,
    sat: SaturationTable | None = None,
    workers: int | None = None,
) -> SweepResult:
    """Evaluate every policy at every grid point.

    One ascending pass over the grid gives every point the plans that
    recommend(), plan_noscale(), plan_cost_first() and
    plan_performance_first() return there with top_k = 1.  ``workers`` is
    accepted and ignored: the pass is serial.  The normalizer is the full
    planner's raw performance at the last grid point.
    """
    scaling = scaling or ScalingSource()
    sat = sat or default_saturation_table()
    grid = spec.grid()
    per_point = _sweep_plans(catalog, spec, grid, scaling, sat)
    normalizer = per_point[PLANNER_POLICY][-1][1]
    curves = {
        policy: tuple(
            SweepPoint(pw=pw, raw=raw, normalized=raw / normalizer if normalizer > 0 else 0.0, plan=plan)
            for pw, (plan, raw) in zip(grid, per_point[policy])
        )
        for policy in spec.policies
    }
    return SweepResult(grid=grid, curves=curves, normalizer=normalizer)


_CSV_COLUMNS = [
    "pw",
    "policy",
    "raw",
    "normalized",
    "architecture",
    "gpu",
    "gpu_count",
    "cpu",
    "cpu_count",
    "hourly_price",
]


def sweep_rows(result: SweepResult) -> list[dict]:
    """Flatten a sweep into one row per (grid point, policy)."""
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


def _policy_order(policy: str) -> int:
    try:
        return DEFAULT_POLICIES.index(policy)
    except ValueError:
        return len(DEFAULT_POLICIES)


def sweep_to_csv(result: SweepResult) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in sweep_rows(result):
        writer.writerow({k: ("" if row[k] is None else row[k]) for k in _CSV_COLUMNS})
    return buf.getvalue()


def sweep_to_json(result: SweepResult) -> str:
    """JSON variant carrying the full plan objects alongside the flat rows."""
    payload = {
        "grid": [float(pw) for pw in result.grid],
        "normalizer": result.normalizer,
        "rows": sweep_rows(result),
        "plans": {
            policy: [
                {"pw": float(pt.pw), "plan": pt.plan.summary() if pt.plan else None}
                for pt in points
            ]
            for policy, points in result.curves.items()
        },
    }
    return json.dumps(payload, indent=2)
