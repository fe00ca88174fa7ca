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
exact, in Decimal at MAX_PREC.  The score Z does not fall as n rises within a
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
no candidate skipped can reach the final top_k.  A candidate is (key, row),
the key being (-Z, price, architecture rank, v index, w index or -1, n): the
plan at n of the one row that (rank, v, w) names.  Candidates are ranked by
key: higher Z first, then lower price, then architecture (single_anchor
before tiering), then catalog order.

With top_k = 1 a row's best candidate is the first n <= n_top with the
largest Z.  The price-ceiling sweep (simulator.run_sweep) uses the same row
classes and reads that candidate from per-GPU tables of the largest Z up to
each n instead of walking; those tables never fall, so a row sleeps until
the first n whose entry beats a policy's plan.  Both search the rows of
_rows, which builds no tiering row that top_k others beat at every n, so the
sweep (top_k = 1) schedules only rows that can give a top-1 plan.
"""
from __future__ import annotations

import heapq
import math
import operator
import sys
from bisect import bisect_left, insort
from dataclasses import dataclass
from decimal import (MAX_PREC, ROUND_HALF_EVEN, Context, Decimal, DivisionByZero, InvalidOperation, Overflow,
                     localcontext)
from operator import itemgetter
from typing import Iterator, Optional

from .catalog import Catalog, InstanceSpec, Kind, as_price
from .saturation import SaturationTable, default_saturation_table, min_cpu_count, n_sat_lookup
from .scaling import DEFAULT_SCALING, ScalingSource, _number

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

# decimal's default context at MAX_PREC, built here: no caller's context or DefaultContext moves a budget, and
# +, -, * and // are exact.  Budget code has no true division /, which may not terminate (MemoryError at MAX_PREC).
# Prices and budgets are 0 or finite floats of <= MAX_PRICE_PLACES places (as_price): sums, quotients < ~1,310 digits.
_BUDGET_CONTEXT = Context(prec=MAX_PREC, rounding=ROUND_HALF_EVEN, Emin=-999999, Emax=999999, capitals=1, clamp=0,
                          flags=[], traps=[InvalidOperation, DivisionByZero, Overflow])

MAX_INSTANCES = 10_000  # the largest max_instances and top_k; the walk, the sweep and the plans grow with them


def _budget(name: str, value) -> Decimal:
    """value as an exact price whose float() is finite, as a plan's must be, and not 0 unless value is."""
    price = _number(name, value, as_price)
    if price and not 0 < abs(f := float(price)) < math.inf:
        raise ValueError(f"{name} must be a {'finite' if f else 'nonzero'} float, not {price}")
    return price


def _integer(name: str, value) -> int:
    """value as an int, by operator.index: ints, numpy's among them; a ValueError refuses a bool and a non-integer."""
    if type(value) is bool or not hasattr(value, "__index__"):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return operator.index(value)


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
        object.__setattr__(self, "pw", _budget("pw", self.pw))
        object.__setattr__(self, "ckpt_size", _number("ckpt_size", self.ckpt_size))
        for name in ("buffer_count", "max_instances", "top_k"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if not self.pw > 0:
            raise ValueError("pw must be positive")
        if not 0 < self.ckpt_size < math.inf:
            raise ValueError("ckpt_size must be positive and finite")
        if not 1 <= self.buffer_count <= sys.float_info.max:  # required_memory floats it; int-float compares exactly
            raise ValueError(f"buffer_count must be in 1..{sys.float_info.max:.4g}")
        if not 1 <= self.max_instances <= MAX_INSTANCES:
            raise ValueError(f"max_instances must be in 1..{MAX_INSTANCES}, not {self.max_instances}")
        if not 1 <= self.top_k <= MAX_INSTANCES:
            raise ValueError(f"top_k must be in 1..{MAX_INSTANCES}, not {self.top_k}")

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
    """A concrete recommendation: single_anchor with no CPU and m_cpu None, or tiering with m_cpu >= 1 nodes of
    a CPU.  The constructor converts and checks each field, and refuses a Z that is not finite."""

    architecture: str
    gpu_instance: InstanceSpec
    n_gpu: int
    cpu_instance: Optional[InstanceSpec]
    m_cpu: Optional[int]
    hourly_price: Decimal
    score_z: float

    def __post_init__(self):
        gpu, cpu, n, m, z = self.gpu_instance, self.cpu_instance, self.n_gpu, self.m_cpu, self.score_z
        if not (isinstance(gpu, InstanceSpec) and (cpu is None or isinstance(cpu, InstanceSpec))
                and isinstance(self.hourly_price, Decimal)):
            raise ValueError(f"a plan holds InstanceSpecs and a Decimal price, not {gpu!r}, {cpu!r} and "
                             f"{self.hourly_price!r}")
        architecture = SINGLE_ANCHOR if cpu is None else TIERING
        if type(self.architecture) is not str or self.architecture != architecture or cpu is None and m is not None:
            shape = "without a CPU is single_anchor with m_cpu None" if cpu is None else "with a CPU is tiering"
            raise ValueError(f"a plan {shape}, not {self.architecture!r} with m_cpu {m!r}")
        if type(n) is not int:
            object.__setattr__(self, "n_gpu", n := _integer("n_gpu", n))
        if cpu is not None and type(m) is not int:
            object.__setattr__(self, "m_cpu", m := _integer("m_cpu", m))
        if n < 1 or cpu is not None and m < 1:
            raise ValueError(f"a plan's n_gpu and m_cpu are at least 1, not {n} and {m}")
        if type(z) is not float:
            object.__setattr__(self, "score_z", z := _number("score_z", z))
        if not z - z == 0.0:  # not finite
            raise ValueError(f"the {architecture} plan of {n} x {gpu.name!r} scores Z = {z}: "
                             "the instance's eflops, prices or scaling overflow float")

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


class _SingleAnchorRow:
    """GPU v as one On-Demand anchor plus n - 1 Spot trainers."""

    __slots__ = ("v_idx", "v", "od", "spot", "spfp", "odfp")
    rank, w = 0, None

    def __init__(self, v_idx: int, v: InstanceSpec, score: FloppScore):
        self.v_idx, self.v, self.od, self.spot = v_idx, v, v.od_price, v.spot_price
        self.spfp, self.odfp = score.spfp, score.odfp

    def n_top(self, pw: Decimal, cap: int) -> int:
        """Largest n that fits pw and cap, exactly in _BUDGET_CONTEXT; below 1 when none does."""
        spot_budget = pw - self.od
        return min(cap, 1 + int(spot_budget // self.spot)) if spot_budget >= 0 else 0

    def price(self, n: int) -> Decimal:
        return self.od + (n - 1) * self.spot

    def z(self, n: int, k: float) -> float:
        return ((n - 1) * self.spfp + self.odfp) * k

    def candidate(self, n: int, z: float, price: Optional[Decimal] = None) -> tuple:
        """(key, row) of n; price is price(n), if known."""
        return (-z, self.price(n) if price is None else price, 0, self.v_idx, -1, n), self


class _TieringRow:
    """n Spot trainers of GPU v, taken from anchor, v's single-anchor row, plus
    m = min_cpu_count(n, n_sat) On-Demand memory nodes of CPU w."""

    __slots__ = ("v_idx", "v", "spot", "spfp", "w_idx", "w", "cpu", "n_sat")
    rank = 1

    def __init__(self, anchor: _SingleAnchorRow, w_idx: int, w: InstanceSpec, n_sat: int):
        self.v_idx, self.v, self.spot, self.spfp = anchor.v_idx, anchor.v, anchor.spot, anchor.spfp
        self.w_idx, self.w, self.cpu, self.n_sat = w_idx, w, w.od_price, n_sat

    def n_top(self, pw: Decimal, cap: int) -> int:
        """Largest n that fits pw and cap, exactly in _BUDGET_CONTEXT; below 1 when none does.

        It is the top of the range of the largest receiver count m whose
        smallest n, max(1, (m - 1) * n_sat), fits the budget and cap.
        """
        spot, cpu, n_sat = self.spot, self.cpu, self.n_sat
        block = n_sat * spot
        m = min(cap, min_cpu_count(cap, n_sat), int((pw + block) // (block + cpu)))
        return min(cap, m * n_sat - 1, int((pw - m * cpu) // spot))

    def price(self, n: int) -> Decimal:
        return n * self.spot + min_cpu_count(n, self.n_sat) * self.cpu

    def z(self, n: int, k: float) -> float:
        return n * self.spfp * k

    def candidate(self, n: int, z: float, price: Optional[Decimal] = None) -> tuple:
        return (-z, self.price(n) if price is None else price, 1, self.v_idx, self.w_idx, n), self


def _planning(catalog: Catalog) -> tuple[list, dict, list]:
    """catalog's planning table: each GPU's single-anchor row, per saturation table n_sat by (GPU, CPU) index, and
    the CPU indices in (od_price, index) order."""
    table = catalog.__dict__.get("_planning")  # kept beside the views (Catalog); stored whole, in one step
    return table or catalog.__dict__.setdefault("_planning", (
        [_SingleAnchorRow(i, v, flopp(v)) for i, v in enumerate(catalog.gpu_view)], {},
        sorted(range(len(catalog.cpu_view)), key=lambda j: catalog.cpu_view[j].od_price)))


def _rows(catalog: Catalog, req: PlanRequest, sat: SaturationTable) -> list:
    """The single-anchor row of each GPU, then its tiering rows with the CPUs
    that hold the checkpoints, by CPU (price, index), less each that top_k
    others beat at every n: a GPU's tiering rows share Z(n), and a CPU earlier
    in that order with an n_sat no lower gives a smaller key and fits every n."""
    anchors, n_sats, by_price = _planning(catalog)
    if (table := n_sats.get(sat)) is None:
        n_sats[sat] = table = [[n_sat_lookup(sat, a.v, w) for w in catalog.cpu_view] for a in anchors]
    cpus = [(j, w) for j in by_price if (w := catalog.cpu_view[j]).memory >= req.required_memory]
    rows = []
    for anchor in anchors:
        n_sat, seen = table[anchor.v_idx], []  # the n_sat of the CPUs walked so far, ascending
        for j, w in cpus:
            if len(seen) - bisect_left(seen, n_sat[j]) < req.top_k:
                rows.append(_TieringRow(anchor, j, w, n_sat[j]))
            insort(seen, n_sat[j])
    return anchors + rows


def _plan(candidate: tuple) -> ClusterPlan:
    """The plan of a chosen candidate; ClusterPlan refuses a Z that is not finite."""
    (neg_z, price, rank, *_, n), row = candidate
    m = min_cpu_count(n, row.n_sat) if rank else None
    return ClusterPlan(_ARCHITECTURES[rank], row.v, n, row.w, m, price, -neg_z)


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
    Z is not finite.  Work bound: at most one K(n) call per (row, n <= n_top),
    so at most rows x max_instances whatever top_k is, and top_k <= MAX_INSTANCES plans.
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
