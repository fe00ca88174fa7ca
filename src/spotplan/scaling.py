"""Speedup modeling for data-parallel training.

Measured speedup of data-parallel jobs grows roughly linearly at small node
counts and flattens into a logistic curve as communication overhead takes
over.  This module fits that curve,

    S(n) = c / (1 + exp(-a * (n - b))),

builds the hybrid speedup (the tangent line at the inflection point n = b
below the inflection, the logistic itself above it), and exposes the scaling
factor K(n) = S_hybrid(n) / n used to discount cluster performance.
"""
from __future__ import annotations

import heapq
import json
import math
import sys
from dataclasses import dataclass
from decimal import Decimal
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from .catalog import InstanceSpec

__all__ = [
    "LogisticParams",
    "SpeedupSample",
    "ScalingSource",
    "UnitScaling",
    "DEFAULT_PARAMS",
    "REFERENCE_MODEL_FITS",
    "InsufficientDataError",
    "NonConvergenceError",
    "s_average",
    "s_hybrid",
    "scaling_factor",
    "superlinear_from",
    "fit_logistic",
    "average_params",
    "sum_squared_residuals",
]

_NUMBER_TYPES = (int, float, Decimal, str)  # the types _number takes, a bool aside


class InsufficientDataError(ValueError):
    """Raised when a fit is requested on too few or too-degenerate samples."""


class NonConvergenceError(RuntimeError, ValueError):
    """Raised when the fitter fails to converge; carries the best iterate.
    A ValueError too, as the fit's inputs are what failed."""

    def __init__(self, params: "LogisticParams", residual: float):
        super().__init__(
            f"logistic fit did not converge; best iterate {params} "
            f"with residual {residual:.6g}"
        )
        self.params = params
        self.residual = residual


def _json_decimal(value):
    """What JSON writes for a Decimal: the float that holds it exactly, else its text; the text of any other value."""
    return f if isinstance(value, Decimal) and Decimal(repr(f := float(value))) == value else str(value)


def _json_text(value) -> str:
    """value as a JSON document writes it (true, null, [1]), or its repr where JSON cannot (a tuple key, a cycle).
    JSON numbers parse to Decimal: one is shown as its number text, and one inside a list or object as
    _json_decimal writes it, the text in quotes."""
    if isinstance(value, Decimal):
        return str(value)
    try:
        return json.dumps(value, default=_json_decimal)
    except (TypeError, ValueError):
        return repr(value)


def _number(key: str, value, kind=float, error: str = ""):
    """kind(value) of one of _NUMBER_TYPES; a ValueError, error or one naming key, refuses other values, overflow
    and text that float() or int() cannot read."""
    if type(value) not in _NUMBER_TYPES and (isinstance(value, bool) or not isinstance(value, _NUMBER_TYPES)):
        raise ValueError(error or f"{key} must be a number, got {_json_text(value)}")
    try:
        return kind(value)
    except OverflowError as exc:
        raise ValueError(error or f"{key}: {exc}") from None
    except ValueError as exc:
        if kind not in (float, int):  # as_price refuses in its own words
            raise
        raise ValueError(error or f"{key}: {exc}") from None


@dataclass(frozen=True)
class LogisticParams:
    """Parameters of the logistic speedup curve: the speedup model.

    a is the growth rate, b the node count at the inflection point, and c the
    asymptotic speedup: each a positive, finite float, or the text of one.
    s_average, s_hybrid and scaling_factor evaluate the model.
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        for name, value in (("a", _number("a", self.a)), ("b", _number("b", self.b)), ("c", _number("c", self.c))):
            if not 0 < value < math.inf:
                raise ValueError(f"logistic parameter {name} must be positive and finite, got {value}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class SpeedupSample:
    """One measured point: speedup of an n-node run relative to n = 1; n may be the text of an int."""

    n: int
    speedup: float

    def __post_init__(self):
        # int() keeps an int exact and refuses a field such as '2.5' by name.
        n = _number("node count", self.n, int if isinstance(self.n, (int, str)) else float)
        if n < 1:
            raise ValueError(f"node count must be >= 1, got {n}")
        if not n <= sys.float_info.max:  # NaN and infinities among them; int-float compares exactly
            raise ValueError("node count must be finite and within float range")
        if n != int(n):
            raise ValueError(f"node count must be an integer, got {n}")
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "speedup", speedup := _number("speedup", self.speedup))
        if not 0 < speedup < math.inf:
            raise ValueError(f"speedup must be positive and finite, got {speedup}")


# Averaged fit across the three reference image-classification benchmarks.
# Note: c is not the exact mean of the per-model fits below (that is 6.1794);
# the shipped reference value is kept as-is.
DEFAULT_PARAMS = LogisticParams(a=0.1339, b=12.8742, c=6.1766)

REFERENCE_MODEL_FITS = {
    "resnet18": LogisticParams(a=0.1222, b=11.7094, c=4.0927),
    "resnet152": LogisticParams(a=0.1414, b=13.0476, c=6.8803),
    "efficientnet_v2l": LogisticParams(a=0.1380, b=13.8657, c=7.5652),
}


def s_average(p: LogisticParams, n: float) -> float:
    """Logistic speedup c / (1 + exp(-a(n-b))) at node count n."""
    return p.c / _denominators(p.a, p.b, (n,))[0]


def s_hybrid(p: LogisticParams, n: float) -> float:
    """Hybrid speedup: below b, the tangent of the logistic at its inflection
    (value c/2, slope a*c/4); above b, the logistic."""
    if n <= p.b:
        return p.c / 2.0 + (p.a * p.c / 4.0) * (n - p.b)
    return p.c / (1.0 + math.exp(-p.a * (n - p.b)))


def scaling_factor(p: LogisticParams, n: int) -> float:
    """K(n) = S_hybrid(n) / n, the ratio of modeled to ideal linear speedup."""
    if n < 1:
        raise ValueError(f"node count must be >= 1, got {n}")
    return s_hybrid(p, n) / n


def _first(pred, lo: int, hi: int) -> int:
    """The first n in [lo, hi] with pred(n), or hi if there is none, given
    that pred is false and then true over the range.  Not bisect, whose C
    code needs bounds within Py_ssize_t: superlinear_from's hi is ceil(c)."""
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def superlinear_from(params: LogisticParams) -> int | None:
    """The first integer n >= 1 with K(n) > 1, or None if K(n) <= 1 for all n.

    S_hybrid is linear up to b and concave beyond it, and the slopes match at
    b, so S_hybrid(n) - n is concave and the n with K(n) > 1 form one
    interval.  Every such n is below c, since S_hybrid <= c.  Two bisections
    find its start: one for the peak of S_hybrid(n) - n over 1..ceil(c) (the
    first n where it stops rising), then one for the first n up to the peak
    with K(n) > 1.
    """
    def k_above_one(n: int) -> bool:
        return s_hybrid(params, n) / n > 1.0

    peak = _first(lambda n: s_hybrid(params, n + 1) - s_hybrid(params, n) <= 1.0, 1, math.ceil(params.c))
    if not k_above_one(peak):
        return None
    return _first(k_above_one, 1, peak)


def average_params(models: Sequence[LogisticParams]) -> LogisticParams:
    """Component-wise arithmetic mean of (a, b, c)."""
    if not models:
        raise ValueError("cannot average an empty parameter list")
    k = len(models)
    return LogisticParams(
        a=sum(m.a for m in models) / k,
        b=sum(m.b for m in models) / k,
        c=sum(m.c for m in models) / k,
    )


def _denominators(a: float, b: float, ns: Sequence[float]) -> list[float]:
    """1 + exp(-a(n - b)) at each n: the logistic at n is c over it.

    inf where the exponential overflows, so that the logistic there is 0.
    """
    dens = []
    for n in ns:
        try:
            dens.append(1.0 + math.exp(-a * (n - b)))
        except OverflowError:
            dens.append(math.inf)
    return dens


def _residuals(
    ns: Sequence[float], ys: Sequence[float], a: float, b: float, c: float
) -> tuple[list[float], list[float], float]:
    """Denominators, residuals and their sum of squares at (a, b, c)."""
    dens = _denominators(a, b, ns)
    resid = [c / d - y for d, y in zip(dens, ys)]
    ssr = 0.0
    for r in resid:
        ssr += r * r
    return dens, resid, ssr


def sum_squared_residuals(params: LogisticParams, samples: Iterable[SpeedupSample]) -> float:
    """Sum of squared residuals of the logistic curve against samples."""
    samples = list(samples)
    ns = [s.n for s in samples]
    ys = [s.speedup for s in samples]
    return _residuals(ns, ys, params.a, params.b, params.c)[2]


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """num evenly spaced values from start to stop, as numpy.linspace computes them."""
    step = (stop - start) / (num - 1)
    return [start + i * step for i in range(num - 1)] + [stop]


_GRID_A = 12
_GRID_B = 12
_GRID_C = 8
_MAX_ITER = 500
_REL_TOL = 1e-10

# Start values of a: numpy.geomspace(0.01, 1.0, _GRID_A).
_A_STARTS = [0.01, *(10.0 ** x for x in _linspace(-2.0, 0.0, _GRID_A)[1:-1]), 1.0]


def fit_logistic(samples: Sequence[SpeedupSample]) -> LogisticParams:
    """Least-squares fit of the logistic speedup curve.

    Runs a coarse multi-start grid over (a, b, c) and refines the best starts
    with a damped Gauss-Newton iteration.  Fully deterministic: identical
    input always yields identical output.

    Requires at least four samples spanning at least three distinct node
    counts.  Raises NonConvergenceError (carrying the best iterate and its
    residual) if no start converges within the iteration cap, or if the best
    residual is not finite.
    """
    if len(samples) < 4:
        raise InsufficientDataError(f"need at least 4 samples, got {len(samples)}")
    distinct = {s.n for s in samples}
    if len(distinct) < 3:
        raise InsufficientDataError(
            f"need samples at 3 or more distinct node counts, got {len(distinct)}"
        )

    ns = [float(s.n) for s in samples]
    ys = [s.speedup for s in samples]
    y_max = max(ys)
    b_starts = _linspace(1.0, 2.0 * max(ns), _GRID_B)
    c_starts = _linspace(y_max, 4.0 * y_max, _GRID_C)

    # Residual scan over the whole grid; the flat index of (i, j, k) is
    # (i * _GRID_B + j) * _GRID_C + k.  The residuals at (a, b, c) are c times
    # those of the unit logistic against ys / c, so each (a, b) pair's unit
    # curve and each c's scaled samples are computed once, and math.dist sums
    # the squares in C.
    scaled_ys = [(c, [y / c for y in ys]) for c in c_starts]
    ssr = []
    for a in _A_STARTS:
        for b in b_starts:
            unit = [1.0 / d for d in _denominators(a, b, ns)]
            for c, scaled in scaled_ys:
                root = c * math.dist(unit, scaled)
                ssr.append(root * root)
    # The three best starts by (residual, flat index): nsmallest is stable.
    best = heapq.nsmallest(3, range(len(ssr)), key=ssr.__getitem__)

    runs = []
    for flat in best:
        ij, k = divmod(flat, _GRID_C)
        i, j = divmod(ij, _GRID_B)
        runs.append(_refine(ns, ys, (_A_STARTS[i], b_starts[j], c_starts[k])))
    theta, best_ssr, converged = min(runs, key=lambda run: run[1])

    params = LogisticParams(*theta)
    if not (converged and math.isfinite(best_ssr)):
        raise NonConvergenceError(params, best_ssr)
    return params


def _normal_equations(
    ns: Sequence[float], dens: Sequence[float], resid: Sequence[float], a: float, b: float, c: float
) -> list[list[float]]:
    """The Gauss-Newton system J^T J x = -J^T r as augmented rows.

    J is the Jacobian of the logistic in (a, b, c) at the samples.
    """
    haa = hab = hac = hbb = hbc = hcc = ga = gb = gc = 0.0
    for n, d, r in zip(ns, dens, resid):
        g = 1.0 / d  # the derivative in c
        slope = c * g * (1.0 - g)
        ja = slope * (n - b)
        jb = -slope * a
        haa += ja * ja
        hab += ja * jb
        hac += ja * g
        hbb += jb * jb
        hbc += jb * g
        hcc += g * g
        ga += ja * r
        gb += jb * r
        gc += g * r
    return [[haa, hab, hac, -ga], [hab, hbb, hbc, -gb], [hac, hbc, hcc, -gc]]


def _solve3(system: list[list[float]], lam: float) -> list[float] | None:
    """Solve (M + lam I) x = v, given as augmented rows [M_i0, M_i1, M_i2, v_i].

    Gaussian elimination with partial pivoting; None if a pivot is zero.
    """
    rows = [list(row) for row in system]
    for i in range(3):
        rows[i][i] += lam
    for col in range(3):
        pivot = max(range(col, 3), key=lambda r: abs(rows[r][col]))
        rows[col], rows[pivot] = rows[pivot], rows[col]
        p = rows[col][col]
        if p == 0.0:
            return None
        for r in range(col + 1, 3):
            f = rows[r][col] / p
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    x = [0.0, 0.0, 0.0]
    for r in (2, 1, 0):
        row = rows[r]
        x[r] = (row[3] - sum(row[k] * x[k] for k in range(r + 1, 3))) / row[r]
    return x


def _refine(
    ns: list[float], ys: list[float], start: tuple[float, float, float]
) -> tuple[tuple[float, float, float], float, bool]:
    """Damped Gauss-Newton from one start; returns (theta, ssr, converged)."""
    theta = start
    dens, resid, ssr = _residuals(ns, ys, *theta)
    system = _normal_equations(ns, dens, resid, *theta)
    lam = 1e-3
    for _ in range(_MAX_ITER):
        step = _solve3(system, lam)
        if step is None:
            lam *= 10.0
            continue
        candidate = tuple(t + s for t, s in zip(theta, step))
        if all(0.0 < t < math.inf for t in candidate):
            cand_dens, cand_resid, cand_ssr = _residuals(ns, ys, *candidate)
            if cand_ssr <= ssr:
                improved = ssr - cand_ssr
                theta, dens, resid, ssr = candidate, cand_dens, cand_resid, cand_ssr
                lam = max(lam * 0.3, 1e-12)
                if improved <= _REL_TOL * max(ssr, 1e-30):
                    return theta, ssr, True
                system = _normal_equations(ns, dens, resid, *theta)
                continue
        lam *= 10.0
        if lam > 1e12:
            # Step size has collapsed; nothing further to gain.
            return theta, ssr, True
    return theta, ssr, False


@dataclass(frozen=True)
class ScalingSource:
    """Resolves the speedup model, a LogisticParams, to use for an instance.

    A catalog entry may carry its own fitted parameters; instances without
    one fall back to the default (DEFAULT_PARAMS, the bundled reference
    average, unless overridden), which must give S_hybrid(1) > 0.  A source
    is immutable and hashable and keeps no state between calls, so planning
    with it is a pure function of its inputs.  A model that implies K(n) > 1
    for some n (a superlinear speedup) is used as-is; superlinear_from
    reports from which n.
    """

    default: LogisticParams = DEFAULT_PARAMS

    def __post_init__(self):
        if not (isinstance(self.default, LogisticParams) and s_hybrid(self.default, 1) > 0):
            raise ValueError(f"a scaling model must be LogisticParams with S_hybrid(1) > 0, not {self.default!r}")

    def model_for(self, instance: "InstanceSpec") -> LogisticParams:
        """The instance's own scaling_params, or the default."""
        params = getattr(instance, "scaling_params", None)
        return self.default if params is None else params

    def factor(self, instance: "InstanceSpec", n: int) -> float:
        """K(n) for the instance's model, bit for bit
        scaling_factor(model_for(instance), n)."""
        if n < 1:
            raise ValueError(f"node count must be >= 1, got {n}")
        params = instance.scaling_params
        return s_hybrid(self.default if params is None else params, n) / n


class UnitScaling(ScalingSource):
    """Scaling source that ignores parallel overhead entirely (K = 1)."""

    def factor(self, instance: "InstanceSpec", n: int) -> float:
        if n < 1:
            raise ValueError(f"node count must be >= 1, got {n}")
        return 1.0


DEFAULT_SCALING = ScalingSource()
