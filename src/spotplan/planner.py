"""Cluster planning: price-performance search under an hourly budget.

Two architectures ship:

* single_anchor: one On-Demand GPU trainer (the checkpoint target) plus
  n - 1 Spot GPU trainers of the same type.
* tiering: n Spot GPU trainers plus m On-Demand CPU memory nodes that
  receive sharded checkpoints; m = min_cpu_count(n, n_sat) is the minimum
  count that keeps the sender/receiver ratio below the network saturation
  point, since memory nodes add cost but no training throughput.

The search runs over rows: one architecture with one GPU type v and, for
tiering, one CPU type w.  Within a row the hourly price rises strictly with
the GPU count n, so the feasible counts are exactly 1..n_top, and n_top is
computed exactly in Decimal.  The score Z does not fall as n rises within a
row, by these invariants (checked by property tests):

* S_hybrid(n) does not fall over n, and S_hybrid(1) > 0; the catalog and
  ScalingSource reject scaling models with S_hybrid(1) <= 0;
* S_hybrid is concave: linear up to b, logistic beyond it, with the slopes
  matching at b.  So the n with K(n) > 1 form one interval, whose start
  scaling.superlinear_from finds by bisection.  The planner uses such
  models as-is and warns about nothing; `spotplan validate-catalog` notes
  them;
* single_anchor: Z = ((n - 1) * SPFP + ODFP) / n * S_hybrid(n), and that
  weighted mean does not fall because spot <= od gives SPFP >= ODFP;
* tiering: Z = n * SPFP * K(n) = SPFP * S_hybrid(n).

So no candidate of a row scores above Z(n_top), up to float rounding: Z
stops rising where S_hybrid saturates (n around 255-298 for the reference
fits), jitters by a few ulps there, and equal Z goes to the cheaper,
smaller n.  The relative slack _SLACK covers that noise.  recommend()
visits the rows by their bound Z(n_top) * (1 + _SLACK), highest first.  One
threshold T, the top_k-th largest finite Z pooled so far, ends both loops:
the row loop at the first row whose bound is below T, and each row's walk
of n down from n_top at the first n whose Z is below T by the slack.  T
only rises, and Z falls at most a few ulps below its running maximum, so
no candidate skipped can reach the final top_k.  The pooled candidates are
ranked deterministically: higher Z first, then lower price, then
architecture (single_anchor before tiering), then catalog order.

With top_k = 1 a row's best candidate is the first n <= n_top with the
largest Z.  The price-ceiling sweep (simulator.run_sweep) uses the same row
classes and reads that candidate from per-GPU tables of the largest Z up to
each n instead of walking; those tables never fall, so a row sleeps until
the first n whose entry beats a policy's plan.  The sweep also drops each
tiering row that another row of the same GPU beats at every n, one whose
CPU costs no more and saturates no earlier (simulator._undominated), so it
schedules only rows that can give a top-1 plan.
"""
from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Context, Decimal, DivisionByZero, InvalidOperation, Overflow, localcontext
from operator import itemgetter
from typing import Iterator, Optional

from .catalog import Catalog, InstanceSpec, Kind, as_price
from .saturation import SaturationTable, default_saturation_table, min_cpu_count, n_sat_lookup
from .scaling import DEFAULT_SCALING, ScalingSource

__all__ = [
    "PlanRequest",
    "FloppScore",
    "ClusterPlan",
    "SINGLE_ANCHOR",
    "TIERING",
    "flopp",
    "recommend",
]

SINGLE_ANCHOR = "single_anchor"
TIERING = "tiering"
_ARCHITECTURES = (SINGLE_ANCHOR, TIERING)  # position is the tie-break rank

# Relative margin by which Z must fall below the pooled top_k-th best Z before
# a row's walk stops, and by which a row's bound exceeds its Z(n_top); float
# rounding moves Z by a few ulps (~1e-16) only.
_SLACK = 1e-12

# decimal's default context, built here: no caller's context or DefaultContext can move a budget.
_BUDGET_CONTEXT = Context(prec=28, rounding=ROUND_HALF_EVEN, Emin=-999999, Emax=999999, capitals=1, clamp=0,
                          flags=[], traps=[InvalidOperation, DivisionByZero, Overflow])

MAX_INSTANCES = 10_000  # the largest max_instances; the walk and the sweep grow with it


@dataclass(frozen=True)
class PlanRequest:
    """User inputs for one planning run.

    pw is the hourly price ceiling (pricing willingness), ckpt_size the
    checkpoint file size in GiB, buffer_count the number of checkpoints a
    memory node must buffer, and max_instances the cap on any single count
    variable.
    """

    pw: Decimal
    ckpt_size: float = 0.5
    buffer_count: int = 2
    max_instances: int = 256
    top_k: int = 3

    def __post_init__(self):
        object.__setattr__(self, "pw", as_price(self.pw))
        object.__setattr__(self, "ckpt_size", float(self.ckpt_size))
        if not self.pw > 0:
            raise ValueError("pw must be positive")
        if not 0 < self.ckpt_size < math.inf:
            raise ValueError("ckpt_size must be positive and finite")
        if self.buffer_count < 1:
            raise ValueError("buffer_count must be >= 1")
        if not 1 <= self.max_instances <= MAX_INSTANCES:
            raise ValueError(f"max_instances must be in 1..{MAX_INSTANCES}, not {self.max_instances}")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")

    @property
    def required_memory(self) -> float:
        """Memory a checkpoint node must offer, GiB."""
        return self.ckpt_size * self.buffer_count


@dataclass(frozen=True)
class FloppScore:
    """Operations per currency unit for one GPU instance."""

    instance: InstanceSpec
    spfp: float
    odfp: float


def flopp(instance: InstanceSpec) -> FloppScore:
    """Spot and On-Demand floating-point operations per unit price."""
    if instance.kind is not Kind.GPU:
        raise ValueError(f"flopp is only defined for gpu instances, got {instance.name!r}")
    return FloppScore(
        instance=instance,
        spfp=instance.eflops / float(instance.spot_price),
        odfp=instance.eflops / float(instance.od_price),
    )


@dataclass(frozen=True)
class ClusterPlan:
    """A concrete recommendation produced by one architecture."""

    architecture: str
    gpu_instance: InstanceSpec
    n_gpu: int
    cpu_instance: Optional[InstanceSpec]
    m_cpu: Optional[int]
    hourly_price: Decimal
    score_z: float

    def summary(self) -> dict:
        return {
            "architecture": self.architecture,
            "gpu": self.gpu_instance.name,
            "gpu_count": self.n_gpu,
            "cpu": self.cpu_instance.name if self.cpu_instance else None,
            "cpu_count": self.m_cpu,
            "hourly_price": float(self.hourly_price),
            "score_z": self.score_z,
        }


def _quotient(x: Decimal, y: Decimal, cap: int) -> int:
    """x // y for positive y, or cap when the quotient is too long for the
    Decimal context (DivisionImpossible), and so far above cap."""
    try:
        return int(x // y)
    except InvalidOperation:
        return cap


class _SingleAnchorRow:
    """GPU v as one On-Demand anchor plus n - 1 Spot trainers."""

    __slots__ = ("v_idx", "v", "od", "spot", "spfp", "odfp")
    rank = 0

    def __init__(self, v_idx: int, v: InstanceSpec, score: FloppScore):
        self.v_idx, self.v, self.od, self.spot = v_idx, v, v.od_price, v.spot_price
        self.spfp, self.odfp = score.spfp, score.odfp

    def n_top(self, pw: Decimal, cap: int) -> int:
        """Largest n that fits pw and cap, exactly; below 1 when none does."""
        spot_budget = pw - self.od
        return min(cap, 1 + _quotient(spot_budget, self.spot, cap)) if spot_budget >= 0 else 0

    def price(self, n: int) -> Decimal:
        return self.od + (n - 1) * self.spot

    def z(self, n: int, k: float) -> float:
        return ((n - 1) * self.spfp + self.odfp) * k

    def candidate(self, n: int, z: float) -> tuple:
        """(sort key, v, w), the sort key being
        (-Z, price, architecture rank, v index, w index or -1, n, m or 0)."""
        return (-z, self.price(n), 0, self.v_idx, -1, n, 0), self.v, None


class _TieringRow:
    """n Spot trainers of GPU v plus m = min_cpu_count(n, n_sat) On-Demand
    memory nodes of CPU w."""

    __slots__ = ("v_idx", "v", "spot", "spfp", "w_idx", "w", "cpu", "n_sat")
    rank = 1

    def __init__(self, v_idx: int, v: InstanceSpec, score: FloppScore, w_idx: int, w: InstanceSpec, n_sat: int):
        self.v_idx, self.v, self.spot, self.spfp = v_idx, v, v.spot_price, score.spfp
        self.w_idx, self.w, self.cpu, self.n_sat = w_idx, w, w.od_price, n_sat

    def n_top(self, pw: Decimal, cap: int) -> int:
        """Largest n that fits pw and cap, exactly; below 1 when none does.

        It is the top of the range of the largest receiver count m whose
        smallest n, max(1, (m - 1) * n_sat), fits the budget and cap.
        """
        spot, cpu, n_sat = self.spot, self.cpu, self.n_sat
        block = n_sat * spot
        m = min(cap, min_cpu_count(cap, n_sat), _quotient(pw + block, block + cpu, cap))
        return min(cap, m * n_sat - 1, _quotient(pw - m * cpu, spot, cap))

    def price(self, n: int) -> Decimal:
        return n * self.spot + min_cpu_count(n, self.n_sat) * self.cpu

    def z(self, n: int, k: float) -> float:
        return n * self.spfp * k

    def candidate(self, n: int, z: float) -> tuple:
        key = (-z, self.price(n), 1, self.v_idx, self.w_idx, n, min_cpu_count(n, self.n_sat))
        return key, self.v, self.w


def _rows(catalog: Catalog, req: PlanRequest, sat: SaturationTable) -> list:
    """The single-anchor row of each GPU, then the tiering row of each
    (GPU, CPU) pair whose CPU holds the checkpoints."""
    gpus = catalog.gpu_view
    scores = [flopp(v) for v in gpus]
    rows: list = [_SingleAnchorRow(i, v, score) for i, (v, score) in enumerate(zip(gpus, scores))]
    cpus = [(j, w) for j, w in enumerate(catalog.cpu_view) if w.memory >= req.required_memory]
    for i, (v, score) in enumerate(zip(gpus, scores)):
        rows += [_TieringRow(i, v, score, j, w, n_sat_lookup(sat, v, w)) for j, w in cpus]
    return rows


def _plan(candidate: tuple) -> ClusterPlan:
    """The plan of a chosen candidate, whose Z must be finite."""
    (neg_z, price, rank, _, _, n, m), v, w = candidate
    if not math.isfinite(neg_z):
        raise ValueError(
            f"the {_ARCHITECTURES[rank]} plan of {n} x {v.name!r} scores Z = {-neg_z}: "
            "the instance's eflops, prices or scaling overflow float"
        )
    return ClusterPlan(
        architecture=_ARCHITECTURES[rank],
        gpu_instance=v,
        n_gpu=n,
        cpu_instance=w,
        m_cpu=m if w is not None else None,
        hourly_price=price,
        score_z=-neg_z,
    )


def recommend(
    catalog: Catalog,
    req: PlanRequest,
    scaling: ScalingSource | None = None,
    sat: SaturationTable | None = None,
) -> list[ClusterPlan]:
    """Visit the rows best-first and return the top_k of their candidates.

    The returned list is sorted by Z descending with fully deterministic
    tie-breaking (price, architecture order, catalog order).  Empty when no
    configuration fits the budget.  Raises ValueError when a returned plan's
    Z is not finite.
    """
    with localcontext(_BUDGET_CONTEXT):
        scaling = scaling or DEFAULT_SCALING
        pw, cap, top_k = req.pw, req.max_instances, req.top_k
        visits = []
        for row in _rows(catalog, req, sat or default_saturation_table()):
            if (n_top := row.n_top(pw, cap)) > 0:
                z_top = row.z(n_top, scaling.factor(row.v, n_top))
                # A relative slack bounds nothing for a NaN, infinite or subnormal Z.
                bound = z_top * (1.0 + _SLACK) if sys.float_info.min <= z_top < math.inf else math.inf
                visits.append((bound, row, n_top, z_top))
        visits.sort(key=itemgetter(0), reverse=True)

        def candidates() -> Iterator[tuple]:
            best: list[float] = []  # min-heap of the top_k largest finite Z pooled so far
            for bound, row, n_top, z in visits:
                if len(best) == top_k and bound < best[0]:
                    return
                for n in range(n_top, 0, -1):
                    if n < n_top:
                        z = row.z(n, scaling.factor(row.v, n))
                    if len(best) < top_k:
                        if math.isfinite(z):
                            heapq.heappush(best, z)
                    elif z < best[0] * (1.0 - _SLACK):
                        break
                    elif math.isfinite(z):
                        heapq.heappushpop(best, z)
                    yield row.candidate(n, z)

        return [_plan(c) for c in heapq.nsmallest(top_k, candidates(), key=itemgetter(0))]
