"""Price-ceiling sweeps: evaluate every policy across a PW grid.

The policies are the full planner and three baselines: noscale (the full
search as if speedup were linear), and cost_first and performance_first (one
GPU type as a single anchor, packed with as many nodes as fit).  Each
policy's recommended configuration at each grid point is scored with a
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
from bisect import bisect_right
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation, getcontext
from typing import Optional, Sequence

from .catalog import Catalog, InstanceSpec, as_price
from .planner import ClusterPlan, PlanRequest, _plan, _rows, _SingleAnchorRow, flopp, recommend
from .saturation import SaturationTable, default_saturation_table
from .scaling import DEFAULT_SCALING, ScalingSource, UnitScaling

__all__ = [
    "DEFAULT_POLICIES",
    "plan_cost_first",
    "plan_performance_first",
    "plan_noscale",
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


def _cost_first_gpu(gpus: Sequence[InstanceSpec]) -> Optional[int]:
    """Index of the cheapest-spot GPU, the higher eflops first on ties."""
    return min(range(len(gpus)), key=lambda i: (gpus[i].spot_price, -gpus[i].eflops, i), default=None)


def _performance_first_gpu(gpus: Sequence[InstanceSpec]) -> Optional[int]:
    """Index of the highest-eflops GPU, the cheaper spot first on ties."""
    return min(range(len(gpus)), key=lambda i: (-gpus[i].eflops, gpus[i].spot_price, i), default=None)


# The single-anchor GPU each baseline packs.
_BASELINE_GPUS = {"cost_first": _cost_first_gpu, "performance_first": _performance_first_gpu}


def _packed(row: _SingleAnchorRow, n_top: int, scaling: ScalingSource) -> tuple:
    """A baseline's candidate: its GPU's single-anchor row at n = n_top."""
    return row.candidate(n_top, row.z(n_top, scaling.factor(row.v, n_top)))


def _baseline(
    policy: str, catalog: Catalog, req: PlanRequest, scaling: ScalingSource | None
) -> Optional[ClusterPlan]:
    """The plan of a _BASELINE_GPUS policy under req, or None when its GPU does not fit."""
    gpus = catalog.gpu_view
    v_idx = _BASELINE_GPUS[policy](gpus)
    if v_idx is None:
        return None
    row = _SingleAnchorRow(v_idx, gpus[v_idx], flopp(gpus[v_idx]))
    n_top = row.n_top(req.pw, req.max_instances)
    return _plan(_packed(row, n_top, scaling or DEFAULT_SCALING)) if n_top > 0 else None


def plan_cost_first(
    catalog: Catalog, req: PlanRequest, scaling: ScalingSource | None = None
) -> Optional[ClusterPlan]:
    """Cheapest-spot GPU as a single anchor, packed with as many nodes as fit."""
    return _baseline("cost_first", catalog, req, scaling)


def plan_performance_first(
    catalog: Catalog, req: PlanRequest, scaling: ScalingSource | None = None
) -> Optional[ClusterPlan]:
    """Highest-eflops GPU as a single anchor; no fallback when unaffordable."""
    return _baseline("performance_first", catalog, req, scaling)


def plan_noscale(
    catalog: Catalog, req: PlanRequest, sat: SaturationTable | None = None
) -> list[ClusterPlan]:
    """Full search, but scoring every candidate as if speedup were linear."""
    return recommend(catalog, req, scaling=UnitScaling(), sat=sat)


# Largest grid a SweepSpec accepts.  Every point is planned, kept and
# serialized: `simulate --format json` on 10,000 points peaks at about 80 MiB.
MAX_GRID_POINTS = 10_000


def evaluate_performance(plan: Optional[ClusterPlan], scaling: ScalingSource | None = None) -> float:
    """Common evaluation metric: trainer count x eflops x scaling factor.

    The single-anchor On-Demand node trains, so it counts; tiering CPU
    memory nodes do not.  An infeasible (None) plan scores 0.
    """
    if plan is None:
        return 0.0
    scaling = scaling or DEFAULT_SCALING
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
    """Per (GPU index, rank): peaks and firsts for t = 1..N, where peaks[t - 1]
    is the largest Z(n) over n <= t and firsts[t - 1] is n - 1 for the first
    n that reaches it.  peaks never falls.

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
            peaks, firsts, best = array("d"), array("q"), 0
            for i, z in enumerate(zs):
                if z > zs[best]:
                    best = i
                peaks.append(zs[best])
                firsts.append(best)
            tables[v_idx, rank] = peaks, firsts
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

    A row's n_top is a step function of pw, and its best candidate at n_top
    is the first n <= n_top with the largest Z, which is what the walk of
    recommend() finds with top_k = 1: Z = peaks[n_top - 1] at n = firsts[n_top
    - 1] + 1.  That candidate's key can only fall as pw rises, so the planner's
    plan at a point is the smallest key any row has produced so far; noscale
    is the same with K = 1.  A row sleeps in a heap of (price of n, row, n)
    and wakes once pw reaches that price.  It then raises n_top from n by
    exact Decimal price comparisons, never past the row's n_top at the last
    grid point, and offers its candidate.  It sleeps again until the first
    n > n_top whose peak beats the best Z of planner or noscale, and is
    dropped when no such n exists: best keys only fall, peaks never falls,
    and a later n that only ties the best Z costs more than pw, which the
    best does not.  cost_first and performance_first take the n_top candidate
    of their GPU's single-anchor row, as plan_cost_first and
    plan_performance_first do, so that row wakes at every n.
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
    baselines = {policy: pick(catalog.gpu_view) for policy, pick in _BASELINE_GPUS.items()}

    def evaluated(candidate: tuple) -> tuple[ClusterPlan, float]:
        plan = _plan(candidate)
        raw = evaluate_performance(plan, scaling)
        if not math.isfinite(raw):
            raise ValueError(f"the plan of {plan.n_gpu} x {plan.gpu_instance.name!r} performs {raw}: it overflows float")
        return plan, raw

    best_key = dict.fromkeys(scored, (math.inf,))
    current = dict.fromkeys(DEFAULT_POLICIES, (None, 0.0))
    wakes = [(row.price(1), r, 1) for r, (row, _) in enumerate(rows)]
    heapq.heapify(wakes)
    for i, pw in enumerate(grid):
        while wakes and wakes[0][0] <= pw:
            _, r, n_top = heapq.heappop(wakes)
            row, top = rows[r]
            while n_top < top and (price := row.price(n_top + 1)) <= pw:
                n_top += 1
            wake = top  # the row wakes at n = wake + 1, or never when wake == top
            for policy in scored:
                peaks, firsts = tables[policy][row.v_idx, row.rank]
                z = peaks[n_top - 1]
                if -z <= best_key[policy][0]:
                    candidate = row.candidate(firsts[n_top - 1] + 1, z)
                    if candidate[0] < best_key[policy]:
                        best_key[policy] = candidate[0]
                        current[policy] = evaluated(candidate)
                wake = min(wake, bisect_right(peaks, -best_key[policy][0], n_top, top))
            if not row.rank:
                for policy, v_idx in baselines.items():
                    if v_idx == row.v_idx:
                        current[policy] = evaluated(_packed(row, n_top, scaling))
                        wake = n_top
            if wake < top:  # price holds price(n_top + 1) > pw when wake == n_top
                heapq.heappush(wakes, (price if wake == n_top else row.price(wake + 1), r, wake + 1))
        for policy, points in per_point.items():
            points[i] = current[policy]
    return per_point


def run_sweep(
    catalog: Catalog,
    spec: SweepSpec,
    scaling: ScalingSource | None = None,
    sat: SaturationTable | None = None,
) -> SweepResult:
    """Evaluate every policy at every grid point.

    One ascending pass over the grid gives every point the plans that
    recommend(), plan_noscale(), plan_cost_first() and
    plan_performance_first() return there with top_k = 1.  The normalizer
    is the full planner's raw performance at the last grid point.  Raises
    ValueError when a plan's Z, or a raw or normalized performance, is not
    finite.
    """
    scaling = scaling or DEFAULT_SCALING
    sat = sat or default_saturation_table()
    grid = spec.grid()
    per_point = _sweep_plans(catalog, spec, grid, scaling, sat)
    normalizer = per_point[PLANNER_POLICY][-1][1]
    top = max((raw for policy in spec.policies for _, raw in per_point[policy]), default=0.0)
    if normalizer > 0 and not math.isfinite(top / normalizer):
        raise ValueError(f"raw performance {top} over the normalizer {normalizer} overflows float")
    curves = {
        policy: tuple(
            SweepPoint(pw=pw, raw=raw, normalized=raw / normalizer if normalizer > 0 else 0.0, plan=plan)
            for pw, (plan, raw) in zip(grid, per_point[policy])
        )
        for policy in spec.policies
    }
    return SweepResult(grid=grid, curves=curves, normalizer=normalizer)


_PLAN_COLUMNS = ("architecture", "gpu", "gpu_count", "cpu", "cpu_count", "hourly_price")
_CSV_COLUMNS = ("pw", "policy", "raw", "normalized", *_PLAN_COLUMNS)


def _plan_fields(plan: Optional[ClusterPlan]) -> tuple:
    """The _PLAN_COLUMNS of one plan; all None for an infeasible point."""
    if not plan:
        return (None,) * len(_PLAN_COLUMNS)
    cpu = plan.cpu_instance
    return (
        plan.architecture,
        plan.gpu_instance.name,
        plan.n_gpu,
        cpu.name if cpu else None,
        plan.m_cpu if cpu else None,
        float(plan.hourly_price),
    )


def _ordered(result: SweepResult) -> list[tuple[SweepPoint, str]]:
    """Every (point, policy) of a sweep, in the order of its rows.

    A stable sort of the curves' points, curves in insertion order, on
    (float(pw), policy order).  Grid points that round to one float therefore
    come out policy-major, and curves need not match the grid.
    """
    orders = {policy: i for i, policy in enumerate(DEFAULT_POLICIES)}
    entries = [(point, policy) for policy, points in result.curves.items() for point in points]
    entries.sort(key=lambda entry: (float(entry[0].pw), orders.get(entry[1], len(orders))))
    return entries


def sweep_rows(result: SweepResult) -> list[dict]:
    """Flatten a sweep into one row per (grid point, policy)."""
    return [
        dict(zip(_CSV_COLUMNS, (float(point.pw), policy, point.raw, point.normalized, *_plan_fields(point.plan))))
        for point, policy in _ordered(result)
    ]


def _by_id(render):
    """render, computed once per argument object.  For one writer call: the
    points and plans it renders stay alive, so their ids do not recur."""
    cache = {}

    def cached(x):
        text = cache.get(id(x))
        if text is None:
            text = cache[id(x)] = render(x)
        return text

    return cached


def sweep_to_csv(result: SweepResult) -> str:
    """The rows of sweep_rows() as CSV, rendering each pw and plan once."""
    pw_text, plan_fields = _by_id(lambda pw: repr(float(pw))), _by_id(_plan_fields)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    writer.writerows(
        (pw_text(point.pw), policy, point.raw, point.normalized, *plan_fields(point.plan))
        for point, policy in _ordered(result)
    )
    return buf.getvalue()


def _json_float(x: float) -> str:
    if x - x == 0.0:  # finite
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


_json_string = json.encoder.encode_basestring_ascii

# What json.dumps writes for a scalar of exactly these types.
_JSON_SCALARS = {str: _json_string, float: _json_float, int: int.__repr__, type(None): lambda x: "null"}


def _json_value(x, pad: str) -> str:
    """x as json.dumps(..., indent=2) writes it on a line indented by pad."""
    scalar = _JSON_SCALARS.get(type(x))
    if scalar is not None:
        return scalar(x)
    # bool, subclasses, containers, and the TypeError of what JSON cannot hold
    return json.dumps(x, indent=2).replace("\n", "\n" + pad)


def _json_members(pairs, pad: str) -> str:
    """(key, value) pairs as the lines of a JSON object, each indented by pad."""
    return pad + f",\n{pad}".join([f"{_json_string(key)}: {_json_value(value, pad)}" for key, value in pairs])


def _json_array(out: list, items, pad: str) -> None:
    """Append JSON texts to out as an indent=2 array opened on a line indented by pad."""
    sep = "[\n  " + pad
    for item in items:
        out += (sep, item)
        sep = ",\n  " + pad
    out.append("[]" if sep[0] == "[" else "\n" + pad + "]")


def sweep_to_json(result: SweepResult) -> str:
    """JSON variant carrying the full plan objects alongside the flat rows.

    The text is json.dumps(payload, indent=2) of {"grid": [float(pw), ...],
    "normalizer", "rows": sweep_rows(), "plans": {policy: [{"pw", "plan":
    plan.summary() or None}, ...]}}, written in one pass without building
    the payload; each pw and each plan's fragments are rendered once.
    """
    pw_text = _by_id(lambda pw: _json_float(float(pw)))
    row_tail = _by_id(lambda plan: _json_members(zip(_PLAN_COLUMNS, _plan_fields(plan)), " " * 6))
    summary = _by_id(
        lambda plan: "{\n" + _json_members(plan.summary().items(), " " * 10) + "\n        }" if plan else "null"
    )
    rows = (
        f'{{\n      "pw": {pw_text(point.pw)},\n      "policy": {_json_value(policy, " " * 6)},\n'
        f'      "raw": {_json_value(point.raw, " " * 6)},\n'
        f'      "normalized": {_json_value(point.normalized, " " * 6)},\n{row_tail(point.plan)}\n    }}'
        for point, policy in _ordered(result)
    )
    out = ['{\n  "grid": ']
    _json_array(out, map(pw_text, result.grid), "  ")
    out += (',\n  "normalizer": ', _json_value(result.normalizer, "  "), ',\n  "rows": ')
    _json_array(out, rows, "  ")
    out.append(',\n  "plans": {')
    for i, (policy, points) in enumerate(result.curves.items()):
        out += (",\n    " if i else "\n    ", _json_string(policy), ": ")
        _json_array(
            out,
            (f'{{\n        "pw": {pw_text(p.pw)},\n        "plan": {summary(p.plan)}\n      }}' for p in points),
            "    ",
        )
    out.append("\n  }\n}" if result.curves else "}\n}")
    return "".join(out)
