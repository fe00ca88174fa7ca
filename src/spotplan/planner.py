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
* single_anchor: Z = ((n - 1) * SPFP + ODFP) / n * S_hybrid(n), and that
  weighted mean does not fall because spot <= od gives SPFP >= ODFP;
* tiering: Z = n * SPFP * K(n) = SPFP * S_hybrid(n).

So each row walks n down from n_top.  In float, Z stops rising where
S_hybrid saturates (n around 255-298 for the reference fits) and jitters by
a few ulps there, and equal Z goes to the cheaper, smaller n.  The walk
therefore stops only once Z is below the row's top_k-th best Z by the
relative slack _SLACK, far above that rounding noise.  The rows' candidates
are pooled and ranked deterministically: higher Z first, then lower price,
then architecture (single_anchor before tiering), then catalog order.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from decimal import Decimal
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional

from .catalog import Catalog, InstanceSpec, Kind, as_price
from .saturation import SaturationTable, default_saturation_table, min_cpu_count, n_sat_lookup
from .scaling import ScalingSource

__all__ = [
    "PlanRequest",
    "FloppScore",
    "ClusterPlan",
    "SINGLE_ANCHOR",
    "TIERING",
    "flopp",
    "plan_single_anchor",
    "plan_tiering",
    "recommend",
]

SINGLE_ANCHOR = "single_anchor"
TIERING = "tiering"
_ARCHITECTURES = (SINGLE_ANCHOR, TIERING)  # position is the tie-break rank

# Relative margin by which Z must fall below a row's top_k-th best Z before
# the walk stops; float rounding moves Z by a few ulps (~1e-16) only.
_SLACK = 1e-12


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
        if not self.ckpt_size > 0:
            raise ValueError("ckpt_size must be positive")
        if self.buffer_count < 1:
            raise ValueError("buffer_count must be >= 1")
        if self.max_instances < 1:
            raise ValueError("max_instances must be >= 1")
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


def _walk(n_top: int, top_k: int, z_of: Callable[[int], float]) -> Iterator[tuple[int, float]]:
    """(n, Z) for n = n_top, n_top - 1, ..., 1, until Z falls below the
    top_k-th best Z seen so far by the relative slack."""
    best: list[float] = []  # min-heap of the top_k largest Z
    for n in range(n_top, 0, -1):
        z = z_of(n)
        if len(best) < top_k:
            heapq.heappush(best, z)
        elif z < best[0] * (1.0 - _SLACK):
            return
        else:
            heapq.heappushpop(best, z)
        yield n, z


def _single_anchor_rows(
    gpus: Iterable[InstanceSpec], req: PlanRequest, scaling: ScalingSource
) -> Iterator[tuple]:
    """Each GPU's single-anchor candidates, its largest feasible n first.

    A candidate is (sort key, v, w), the sort key being
    (-Z, price, architecture rank, v index, w index or -1, n, m or 0).
    """
    for v_idx, v in enumerate(gpus):
        spot_budget = req.pw - v.od_price
        if spot_budget < 0:
            continue
        n_top = min(req.max_instances, 1 + int(spot_budget // v.spot_price))
        score = flopp(v)
        z_of = lambda n: ((n - 1) * score.spfp + score.odfp) * scaling.factor(v, n)
        for n, z in _walk(n_top, req.top_k, z_of):
            yield (-z, v.od_price + (n - 1) * v.spot_price, 0, v_idx, -1, n, 0), v, None


def _tiering_rows(
    catalog: Catalog, req: PlanRequest, scaling: ScalingSource, sat: SaturationTable
) -> Iterator[tuple]:
    """Each (GPU, CPU) pair's tiering candidates, its largest feasible n first."""
    cpus = catalog.cpu_view
    for v_idx, v in enumerate(catalog.gpu_view):
        spfp = flopp(v).spfp
        z_of = lambda n: n * spfp * scaling.factor(v, n)
        for w_idx, w in enumerate(cpus):
            if w.memory < req.required_memory:
                continue
            n_sat = n_sat_lookup(sat, v, w)
            spot, cpu = v.spot_price, w.od_price
            # n_top is the top of the range of the largest receiver count m
            # whose smallest n, max(1, (m - 1) * n_sat), fits the budget and
            # max_instances.  With no such m, n_top < 1 and the row is empty.
            m = min(
                req.max_instances,
                min_cpu_count(req.max_instances, n_sat),
                int((req.pw + n_sat * spot) // (n_sat * spot + cpu)),
            )
            n_top = min(req.max_instances, m * n_sat - 1, int((req.pw - m * cpu) // spot))
            for n, z in _walk(n_top, req.top_k, z_of):
                m = min_cpu_count(n, n_sat)
                yield (-z, n * spot + m * cpu, 1, v_idx, w_idx, n, m), v, w


def _plan(candidate: tuple) -> ClusterPlan:
    (neg_z, price, rank, _, _, n, m), v, w = candidate
    return ClusterPlan(
        architecture=_ARCHITECTURES[rank],
        gpu_instance=v,
        n_gpu=n,
        cpu_instance=w,
        m_cpu=m if w is not None else None,
        hourly_price=price,
        score_z=-neg_z,
    )


def _best(candidates: Iterator[tuple]) -> Optional[ClusterPlan]:
    best = min(candidates, key=itemgetter(0), default=None)
    return _plan(best) if best else None


def _defaults(scaling, sat):
    if scaling is None:
        scaling = ScalingSource()
    if sat is None:
        sat = default_saturation_table()
    return scaling, sat


def plan_single_anchor(
    catalog: Catalog, req: PlanRequest, scaling: ScalingSource | None = None
) -> Optional[ClusterPlan]:
    """Best single-anchor plan under the budget, or None if infeasible."""
    return _best(_single_anchor_rows(catalog.gpu_view, req, scaling or ScalingSource()))


def plan_tiering(
    catalog: Catalog,
    req: PlanRequest,
    scaling: ScalingSource | None = None,
    sat: SaturationTable | None = None,
) -> Optional[ClusterPlan]:
    """Best tiering plan under budget, memory, and saturation constraints."""
    return _best(_tiering_rows(catalog, req, *_defaults(scaling, sat)))


def recommend(
    catalog: Catalog,
    req: PlanRequest,
    scaling: ScalingSource | None = None,
    sat: SaturationTable | None = None,
) -> list[ClusterPlan]:
    """Pool every row's frontier candidates and return the top_k.

    The returned list is sorted by Z descending with fully deterministic
    tie-breaking (price, architecture order, catalog order).  Empty when no
    configuration fits the budget.
    """
    scaling, sat = _defaults(scaling, sat)
    candidates = chain(
        _single_anchor_rows(catalog.gpu_view, req, scaling),
        _tiering_rows(catalog, req, scaling, sat),
    )
    return [_plan(c) for c in heapq.nsmallest(req.top_k, candidates, key=itemgetter(0))]
