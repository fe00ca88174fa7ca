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
import json
import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from itertools import accumulate, chain
from operator import lt
from typing import Optional

from .catalog import Catalog
from .planner import (_BUDGET_CONTEXT, _SUMMARY_KEYS, ClusterPlan, PlanRequest, _budget, _plan, _planning, _rows,
                      _SingleAnchorRow, recommend)
from .saturation import SaturationTable, default_saturation_table
from .scaling import DEFAULT_SCALING, ScalingSource, UnitScaling, _number

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


# The key of the single-anchor GPU each baseline packs: min returns the catalog's first GPU of the least key.
_BASELINE_GPUS = {"cost_first": lambda v: (v.spot_price, -v.eflops),
                  "performance_first": lambda v: (-v.eflops, v.spot_price)}


def _baseline_row(policy: str, catalog: Catalog) -> Optional[_SingleAnchorRow]:
    """The single-anchor row of the GPU that _BASELINE_GPUS[policy] picks, or None when the catalog has no GPU."""
    key = _BASELINE_GPUS[policy]
    return min(_planning(catalog)[0], key=lambda row: key(row.v), default=None)


def _baseline(
    policy: str, catalog: Catalog, req: PlanRequest, scaling: ScalingSource | None
) -> Optional[ClusterPlan]:
    """The plan of a _BASELINE_GPUS policy under req, or None when its GPU does not fit."""
    with localcontext(_BUDGET_CONTEXT):
        row = _baseline_row(policy, catalog)
        if row is None or (n_top := row.n_top(req.pw, req.max_instances)) < 1:
            return None
        return _plan(row.candidate(n_top, row.z(n_top, (scaling or DEFAULT_SCALING).factor(row.v, n_top))))


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


# Largest grid a SweepSpec accepts.  A result keeps one point per plan change, so the writers' text
# bounds the rest: `simulate --format json` on 10,000 points writes 22.1 MB at a peak RSS of 66 MiB.
MAX_GRID_POINTS = 10_000


def evaluate_performance(plan: Optional[ClusterPlan], scaling: ScalingSource | None = None) -> float:
    """Common evaluation metric: trainer count x eflops x scaling factor.

    The single-anchor On-Demand node trains, so it counts; tiering CPU
    memory nodes do not.  An infeasible (None) plan scores 0, and one that overflows float raises ValueError.
    """
    if plan is None:
        return 0.0
    v = plan.gpu_instance
    return _raw(plan.n_gpu, v, (scaling or DEFAULT_SCALING).factor(v, plan.n_gpu))


def _raw(n: int, v, k: float) -> float:
    if not math.isfinite(raw := n * v.eflops * k):  # n x eflops x K(n), a plan's raw performance
        raise ValueError(f"the plan of {n} x {v.name!r} performs {raw}: it overflows float")
    return raw


def estimate_cost(
    plan: ClusterPlan, total_ops: float, scaling: ScalingSource | None = None
) -> tuple[float, float]:
    """(makespan_hours, total_cost) to push total_ops through the plan."""
    if not 0 < total_ops < math.inf:
        raise ValueError(f"total_ops must be positive and finite, not {total_ops}")
    performance = evaluate_performance(plan, scaling)
    if not performance > 0:
        raise ValueError("configuration cannot make progress")
    makespan_hours = total_ops / (performance * 3600.0)
    cost = makespan_hours * float(plan.hourly_price)
    if not (0 < makespan_hours < math.inf and 0 < cost < math.inf):
        raise ValueError(f"makespan {makespan_hours} h or cost {cost} is not finite and positive")
    return makespan_hours, cost


@dataclass(frozen=True)
class SweepSpec:
    """A PW grid plus the request template shared by every grid point."""

    pw_min: Decimal = Decimal("0")
    pw_max: Decimal = Decimal("10")
    pw_step: Decimal = Decimal("0.1")
    policies: tuple[str, ...] = DEFAULT_POLICIES
    ckpt_size: float = PlanRequest.ckpt_size
    buffer_count: int = PlanRequest.buffer_count
    max_instances: int = PlanRequest.max_instances

    def __post_init__(self):
        for name in ("pw_min", "pw_max", "pw_step"):
            object.__setattr__(self, name, _budget(name, getattr(self, name)))
        if not isinstance(self.policies, (tuple, list)):  # a str would be read as one-letter policies
            raise ValueError(f"policies must be a tuple of policy names, not {self.policies!r}")
        object.__setattr__(self, "policies", tuple(self.policies))
        if self.pw_min < 0 or self.pw_min >= self.pw_max:
            raise ValueError("need 0 <= pw_min < pw_max")
        if not self.pw_step > 0:
            raise ValueError("pw_step must be positive")
        bad = [p for i, p in enumerate(self.policies) if p not in DEFAULT_POLICIES or p in self.policies[:i]]
        if bad:
            raise ValueError(f"unknown or repeated policies: {bad}")
        with localcontext(_BUDGET_CONTEXT):  # (pw_max - pw_min) // pw_step + 1 points, exactly
            points = int((self.pw_max - self.pw_min) // self.pw_step) + 1
            if points > MAX_GRID_POINTS:
                raise ValueError(f"the PW grid has {points} points; the limit is {MAX_GRID_POINTS}")
            object.__setattr__(self, "_grid", tuple(self.pw_min + i * self.pw_step for i in range(points)))
        req = self.request_at(self.pw_max)  # the request converts and checks the template's fields
        for name in ("ckpt_size", "buffer_count", "max_instances"):
            object.__setattr__(self, name, getattr(req, name))

    def grid(self) -> tuple[Decimal, ...]:
        """Exact-decimal grid pw_min, pw_min + step, ... up to pw_max, built once and kept out of the fields."""
        return self._grid

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
    """One policy at one grid point: its plan (None when nothing fits), raw, the plan's
    evaluate_performance(), and normalized, raw over the sweep's normalizer, both float()."""

    pw: Decimal
    raw: float
    normalized: float
    plan: Optional[ClusterPlan]

    def __post_init__(self):
        if type(self.raw) is not float or type(self.normalized) is not float:
            object.__setattr__(self, "raw", _number("raw", self.raw))
            object.__setattr__(self, "normalized", _number("normalized", self.normalized))
        if not (self.plan is None or isinstance(self.plan, ClusterPlan)):
            raise ValueError(f"a sweep point's plan is a ClusterPlan or None, not {self.plan!r}")


@dataclass(frozen=True)
class SweepResult:
    """A sweep's grid, a tuple of finite Decimals that strictly rise, and each policy's steps:
    one SweepPoint per run of grid values that share a plan, at the run's first value (or a
    Decimal of its sign, digits and exponent), the first at grid[0].  normalizer is the full
    planner's raw performance at the top of the grid, as a float; when 0.0, so is every normalized."""

    grid: tuple[Decimal, ...]
    steps: dict[str, tuple[SweepPoint, ...]] = field(default_factory=dict)
    normalizer: float = 0.0

    def __post_init__(self):
        grid = self.grid
        if not (type(grid) is tuple and all(isinstance(pw, Decimal) and pw.is_finite() for pw in grid)
                and all(map(lt, grid, grid[1:]))):
            raise ValueError(f"a sweep grid is a tuple of finite Decimals that strictly rise, not {grid!r}")
        object.__setattr__(self, "normalizer", _number("normalizer", self.normalizer))
        if not isinstance(self.steps, dict):
            raise ValueError(f"steps must be a dict of each policy's steps, not {self.steps!r}")
        runs = {}  # per policy, (first grid index, end, step) of each run, kept out of the fields
        for policy, steps in self.steps.items():
            if type(policy) is not str or policy not in DEFAULT_POLICIES:
                raise ValueError(f"a curve's policy is one of {DEFAULT_POLICIES}, not {policy!r}")
            starts = [bisect_left(grid, p.pw) if isinstance(p, SweepPoint) and isinstance(p.pw, Decimal)
                      and p.pw.is_finite() else len(grid) for p in steps] if type(steps) is tuple else None
            # The first step at grid[0], none on an empty grid, and each at its own grid value.
            if not (starts is not None and starts[:1] == [0][:len(grid)] and all(map(lt, starts, starts[1:]))
                    and all(i < len(grid) and grid[i].compare_total(p.pw) == 0 for i, p in zip(starts, steps))):
                raise ValueError(f"the {policy} steps must be SweepPoints at grid values from the first, in grid order")
            runs[policy] = tuple(zip(starts, [*starts[1:], len(grid)], steps))
        object.__setattr__(self, "_runs", runs)

    def curve(self, policy: str) -> tuple[SweepPoint, ...]:
        """The policy's SweepPoint at each grid value, built on each call: its step's raw, normalized and plan."""
        return tuple(SweepPoint(pw, p.raw, p.normalized, p.plan) for i, end, p in self._runs[policy]
                     for pw in self.grid[i:end])

    @property
    def curves(self) -> dict[str, tuple[SweepPoint, ...]]:
        return {policy: self.curve(policy) for policy in self.steps}


def _z_tables(rows: list, scaling: ScalingSource) -> dict:
    """Per (GPU index, rank): peaks for t = 1..N, where peaks[t - 1] is the
    largest Z(n) = row.z(n, K(n)) over n <= t; peaks never falls, so the first
    n that reaches it is bisect_left(peaks, peaks[t - 1], 0, t) + 1.  Per GPU
    index: its K(n) for n = 1..N, read for every plan's raw performance and
    each baseline's Z.

    N is the largest n_top of the GPU's rows.  K(n) is taken once per GPU and
    n, and tiering Z does not depend on w, so a GPU's tiering rows share one
    table.  Tables are packed arrays; the sweep builds one set, the planner's.
    """
    n_max: dict[int, int] = {}
    by_rank: dict[int, dict] = {}  # one row of each rank per GPU index
    for row, top in rows:
        n_max[row.v_idx] = max(n_max.get(row.v_idx, 0), top)
        by_rank.setdefault(row.v_idx, {}).setdefault(row.rank, row)
    tables = {}
    for v_idx, group in by_rank.items():
        v = next(iter(group.values())).v
        tables[v_idx] = ks = [scaling.factor(v, n) for n in range(1, n_max[v_idx] + 1)]
        for rank, row in group.items():  # max keeps the first of equals
            tables[v_idx, rank] = array("d", accumulate(map(row.z, range(1, len(ks) + 1), ks), max))
    return tables


def _noscale_wake(row, lo: int, hi: int, best: float) -> int:
    """bisect_right(zs, best, lo, hi) over noscale's zs[i] = row.z(i + 1, 1.0),
    which never falls (K = 1), without building zs."""
    return bisect_right(range(hi), best, lo, hi, key=lambda i: row.z(i + 1, 1.0))


def _sweep_plans(
    catalog: Catalog,
    spec: SweepSpec,
    grid: tuple[Decimal, ...],
    scaling: ScalingSource,
    sat: SaturationTable,
) -> dict[str, dict[int, tuple[Optional[ClusterPlan], float]]]:
    """The runs of the planner's and spec's policies' plans over the grid, in
    one ascending pass: per policy, {first grid index: (plan, raw performance)}
    of each run of one plan, from {0: (None, 0.0)}, which a change at 0 replaces.

    A row's planner candidate at n_top is its best with top_k = 1, the first n
    <= n_top with the largest Z: Z = peaks[n_top - 1] at n = bisect_left(peaks,
    Z, 0, n_top) + 1, the first n whose prefix maximum reaches Z.  With K = 1,
    Z rises strictly with n, so noscale's is the row at n_top.  Keys only fall
    as pw rises, so a policy's plan is the smallest key offered so far.  A row
    sleeps in a heap of (price of n, row, n) until pw reaches that price,
    raises n_top by exact Decimal comparisons up to its top, offers its
    candidates (those at n_top reuse the price of n_top), and sleeps until the
    first n whose Z beats the planner's or noscale's best Z, or for good (a
    later n that only ties costs more than pw).  A baseline wakes no row: its
    plan is its GPU's single-anchor row at n_top, taken after each grid
    point's wakes, as _baseline does.  Plans are built where they change.  Only
    rows that can win are scheduled: at top_k = 1, _rows builds no tiering row
    that another row of its GPU beats at every n (on the simulated catalog 38
    of 80 rows remain).
    """
    policies = dict.fromkeys((PLANNER_POLICY, *spec.policies))
    runs = {policy: {0: (None, 0.0)} for policy in policies}
    rows = [(row, top) for row in _rows(catalog, spec.request_at(spec.pw_max), sat)  # at pw 0 no n_top reaches 1
            if (top := row.n_top(grid[-1], spec.max_instances)) >= 1]
    tables = _z_tables(rows, scaling)
    records = [(row, top, tables[row.v_idx, row.rank]) for row, top in rows]
    baselines = {p: (row, 0) for p in _BASELINE_GPUS if p in policies and (row := _baseline_row(p, catalog))}
    noscale = "noscale" in policies
    planner_key = noscale_key = (math.inf,)  # the best keys so far
    changed: dict = {}  # policy -> its new candidate at this grid point
    wakes = [(row.price(1), r, 1) for r, (row, *_) in enumerate(records)]
    heapq.heapify(wakes)
    for i, pw in enumerate(grid):
        while wakes and wakes[0][0] <= pw:
            at, r, n_top = heapq.heappop(wakes)  # at: price(n_top), which the candidates at n_top reuse
            row, top, peaks = records[r]
            while n_top < top and (price := row.price(n_top + 1)) <= pw:
                n_top, at = n_top + 1, price
            if -(z := peaks[n_top - 1]) <= planner_key[0]:
                n = bisect_left(peaks, z, 0, n_top) + 1
                candidate = row.candidate(n, z, at if n == n_top else None)
                if candidate[0] < planner_key:
                    planner_key, changed[PLANNER_POLICY] = candidate[0], candidate
            if noscale and -(z := row.z(n_top, 1.0)) <= noscale_key[0]:
                candidate = row.candidate(n_top, z, at) if row.spfp else row.candidate(1, z)  # SPFP 0: all tie
                if candidate[0] < noscale_key:
                    noscale_key, changed["noscale"] = candidate[0], candidate
            wake = bisect_right(peaks, -planner_key[0], n_top, top)  # the row wakes at n = wake + 1
            if noscale and wake > n_top:
                wake = _noscale_wake(row, n_top, wake, -noscale_key[0])
            if wake < top:  # price holds price(n_top + 1) > pw when wake == n_top
                heapq.heappush(wakes, (price if wake == n_top else row.price(wake + 1), r, wake + 1))
        for policy, (row, count) in baselines.items():  # each baseline's plan is its row at n_top, per point
            if (n := row.n_top(pw, spec.max_instances)) > count:
                baselines[policy], changed[policy] = (row, n), row.candidate(n, row.z(n, tables[row.v_idx][n - 1]))
        for policy, candidate in changed.items():
            (_, _, _, _, _, n), row = candidate
            runs[policy][i] = _plan(candidate), _raw(n, row.v, tables[row.v_idx][n - 1])
        changed.clear()
    return runs


def run_sweep(
    catalog: Catalog,
    spec: SweepSpec,
    scaling: ScalingSource | None = None,
    sat: SaturationTable | None = None,
) -> SweepResult:
    """Evaluate every policy at every grid point.

    One ascending pass over the grid gives every point the plan that recommend(), plan_noscale(),
    plan_cost_first() and plan_performance_first() return there with top_k = 1, kept as one step per
    run of one plan.  The normalizer is the full planner's raw performance at the last grid point.
    Raises ValueError when a plan's Z, or a raw or normalized performance, is not finite.  Work
    bound: one K(n) call per Z-table entry, the sum over GPUs of the largest n_top of their scheduled
    rows (636 on the simulated catalog), and one SweepPoint per step (276 on the simulated catalog,
    189 on AWS); sweep_rows() and the writers build none, and curve() one per grid value.
    """
    scaling = scaling or DEFAULT_SCALING
    sat = sat or default_saturation_table()
    grid = spec.grid()
    with localcontext(_BUDGET_CONTEXT):
        runs = _sweep_plans(catalog, spec, grid, scaling, sat)
    normalizer = runs[PLANNER_POLICY][max(runs[PLANNER_POLICY])][1]
    top = max((raw for policy in spec.policies for _, raw in runs[policy].values()), default=0.0)
    if normalizer > 0 and not math.isfinite(top / normalizer):
        raise ValueError(f"raw performance {top} over the normalizer {normalizer} overflows float")
    steps = {policy: tuple(SweepPoint(grid[i], raw, raw / normalizer if normalizer > 0 else 0.0, plan)
                           for i, (plan, raw) in runs[policy].items()) for policy in spec.policies}
    return SweepResult(grid=grid, steps=steps, normalizer=normalizer)


_CSV_COLUMNS = ("pw", "policy", "raw", "normalized", *_SUMMARY_KEYS[:-1])


def _in_row_order(result: SweepResult, render, pw_text) -> tuple[list, dict, list[tuple]]:
    """The grid's pw_text(float(pw)); per policy, render(policy, step) of each
    step, once, repeated over its run of grid points; and the rows, (pw text,
    point text), grid point by grid point, policies in DEFAULT_POLICIES order.
    As SweepResult's grid strictly rises, that is the order of a sort of the
    points on (pw, policy order), however many budgets round to one float.
    """
    texts = {policy: [text for i, end, step in runs for text in [render(policy, step)] * (end - i)]
             for policy, runs in result._runs.items()}  # each policy once, in its own order
    pws, curves = [pw_text(float(pw)) for pw in result.grid], [texts[p] for p in DEFAULT_POLICIES if p in texts]
    return pws, texts, [(pw, curve[i]) for i, pw in enumerate(pws) for curve in curves]


def sweep_rows(result: SweepResult) -> list[dict]:
    """Flatten a sweep into one row per (grid point, policy): pw, policy, raw, normalized and the plan's
    summary() but score_z, all None for no plan.  Each run's plan is read once, and no row sorted."""
    def render(policy, p: SweepPoint) -> tuple:
        return policy, p.raw, p.normalized, *(p.plan._values[:-1] if p.plan else (None,) * 6)

    return [dict(zip(_CSV_COLUMNS, (pw, *values))) for pw, values in _in_row_order(result, render, float)[2]]


class _Echo:
    """A file whose write() returns its text: csv.writer(_Echo()).writerow(row) returns the line."""

    write = str


def sweep_to_csv(result: SweepResult) -> str:
    """The rows of sweep_rows() as CSV: pw, a comma and the rest, once per step, so
    on a run_sweep result each plan once, and no row sorted (_in_row_order).  csv
    quotes each field on its own and a float's repr needs no quotes, so the rest is
    f"{policy},{raw!r},{normalized!r},{columns}"."""
    line = csv.writer(_Echo(), lineterminator="\n").writerow
    names = {}
    # A name's field as csv.writer writes it: after a first field, even an empty name.
    quote = lambda name: names[name] if name in names else names.setdefault(name, line(("", name))[1:-1])

    def render(policy, point: SweepPoint) -> str:
        head = f"{quote(policy)},{point.raw!r},{point.normalized!r},"
        if not point.plan:
            return head + ",,,,,\n"
        architecture, gpu, n, cpu, m, price, _ = point.plan._values
        return f"{head}{quote(architecture)},{quote(gpu)},{n},{quote(cpu)},{'' if m is None else m},{price!r}\n"

    rows = _in_row_order(result, render, lambda pw: float.__repr__(pw) + ",")[2]
    return "".join([line(_CSV_COLUMNS), *chain.from_iterable(rows)])


def _json_float(x: float) -> str:
    if x - x == 0.0:  # finite
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


_json_string = json.encoder.encode_basestring_ascii


def _json_texts(a, g, n, c, m, p, z) -> tuple[str, str]:
    """A plan's JSON row tail and summary() block, from its values' texts: the block is the tail's lines, indented
    four more, and score_z.  No text holds a newline, as JSON escapes those in strings."""
    tail = (f'      "architecture": {a},\n      "gpu": {g},\n      "gpu_count": {n},\n      "cpu": {c},\n'
            f'      "cpu_count": {m},\n      "hourly_price": {p}')
    return tail, "{\n    " + tail.replace("\n", "\n    ") + f',\n          "score_z": {z}\n        }}'


def _json_array(out: list, items, pad: str) -> None:
    """Append JSON texts to out as an indent=2 array opened on a line indented
    by pad.  Each item is a tuple of texts that make one value; out keeps
    them apart, so a text that several values share is stored once."""
    sep = "[\n  " + pad
    for item in items:
        out.append(sep)
        out += item
        sep = ",\n  " + pad
    out.append("[]" if sep[0] == "[" else "\n" + pad + "]")


def sweep_to_json(result: SweepResult) -> str:
    """JSON variant carrying the full plan objects alongside the flat rows.

    The text is json.dumps(payload, indent=2) of {"grid": [float(pw), ...],
    "normalizer", "rows": sweep_rows(), "plans": {policy: [{"pw", "plan":
    plan.summary() or None}, ...]}}, written without building the payload.
    Each grid pw and policy is rendered once, and a row's text after its pw
    and the plan's summary once per step: on a run_sweep result, each plan once,
    and no row is sorted (_in_row_order).  Policies, of DEFAULT_POLICIES, need no escapes.
    """
    def render(policy, point: SweepPoint) -> tuple[str, str]:
        if not point.plan:
            tail, summary = _json_texts(*("null",) * 7)[0], "null"
        else:
            architecture, gpu, n, cpu, m, price, z = point.plan._values
            tail, summary = _json_texts(_json_string(architecture), _json_string(gpu), n,
                                        "null" if cpu is None else _json_string(cpu), "null" if m is None else m,
                                        _json_float(price), _json_float(z))
        return (f'      "policy": "{policy}",\n      "raw": {_json_float(point.raw)},\n'
                f'      "normalized": {_json_float(point.normalized)},\n{tail}\n    }}'), summary

    grid, texts, rows = _in_row_order(result, render, _json_float)
    out = ['{\n  "grid": ']
    _json_array(out, ((pw,) for pw in grid), "  ")
    out += (',\n  "normalizer": ', _json_float(result.normalizer), ',\n  "rows": ')
    _json_array(out, (('{\n      "pw": ', pw, ",\n", row) for pw, (row, _) in rows), "  ")
    out.append(',\n  "plans": {')
    for i, (policy, points) in enumerate(texts.items()):
        out += (",\n    " if i else "\n    ", f'"{policy}": ')
        _json_array(out, (('{\n        "pw": ', pw, ',\n        "plan": ', summary, "\n      }")
                          for pw, (_, summary) in zip(grid, points)), "    ")
    out.append("\n  }\n}" if result.steps else "}\n}")
    return "".join(out)
