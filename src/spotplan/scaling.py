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

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    import numpy as np

    from .catalog import InstanceSpec

__all__ = [
    "LogisticParams",
    "ModelOrigin",
    "ScalingModel",
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
    "fit_logistic",
    "average_params",
    "sum_squared_residuals",
]


class InsufficientDataError(ValueError):
    """Raised when a fit is requested on too few or too-degenerate samples."""


class NonConvergenceError(RuntimeError):
    """Raised when the fitter fails to converge; carries the best iterate."""

    def __init__(self, params: "LogisticParams", residual: float):
        super().__init__(
            f"logistic fit did not converge; best iterate {params} "
            f"with residual {residual:.6g}"
        )
        self.params = params
        self.residual = residual


@dataclass(frozen=True)
class LogisticParams:
    """Parameters of the logistic speedup curve.

    a is the growth rate, b the node count at the inflection point, and c the
    asymptotic speedup.  All three must be positive.
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        for name in ("a", "b", "c"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"logistic parameter {name} must be positive, got {value}")


class ModelOrigin(Enum):
    REFERENCE = "reference"
    PER_INSTANCE = "per_instance"
    FITTED = "fitted"


@dataclass(frozen=True)
class ScalingModel:
    """A logistic speedup curve plus where it came from."""

    params: LogisticParams
    origin: ModelOrigin = ModelOrigin.REFERENCE


@dataclass(frozen=True)
class SpeedupSample:
    """One measured point: speedup of an n-node run relative to n = 1."""

    n: int
    speedup: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"node count must be >= 1, got {self.n}")
        if not (self.speedup > 0 and math.isfinite(self.speedup)):
            raise ValueError(f"speedup must be positive, got {self.speedup}")


# Averaged fit across the three reference image-classification benchmarks.
# Note: c is not the exact mean of the per-model fits below (that is 6.1794);
# the shipped reference value is kept as-is.
DEFAULT_PARAMS = LogisticParams(a=0.1339, b=12.8742, c=6.1766)

REFERENCE_MODEL_FITS = {
    "resnet18": LogisticParams(a=0.1222, b=11.7094, c=4.0927),
    "resnet152": LogisticParams(a=0.1414, b=13.0476, c=6.8803),
    "efficientnet_v2l": LogisticParams(a=0.1380, b=13.8657, c=7.5652),
}

DEFAULT_MODEL = ScalingModel(DEFAULT_PARAMS, ModelOrigin.REFERENCE)


def s_average(model: ScalingModel, n: float) -> float:
    """Logistic speedup c / (1 + exp(-a(n-b))) at node count n."""
    p = model.params
    return p.c / (1.0 + math.exp(-p.a * (n - p.b)))


def _tangent(model: ScalingModel, n: float) -> float:
    # Tangent of the logistic at its inflection: value c/2, slope a*c/4.
    p = model.params
    return p.c / 2.0 + (p.a * p.c / 4.0) * (n - p.b)


def s_hybrid(model: ScalingModel, n: float) -> float:
    """Hybrid speedup: inflection tangent for n <= b, logistic for n > b."""
    if n <= model.params.b:
        return _tangent(model, n)
    return s_average(model, n)


def scaling_factor(model: ScalingModel, n: int) -> float:
    """K(n) = S_hybrid(n) / n, the ratio of modeled to ideal linear speedup."""
    if n < 1:
        raise ValueError(f"node count must be >= 1, got {n}")
    return s_hybrid(model, n) / n


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


def sum_squared_residuals(params: LogisticParams, samples: Iterable[SpeedupSample]) -> float:
    """Sum of squared residuals of the logistic curve against samples."""
    total = 0.0
    for s in samples:
        r = params.c / (1.0 + math.exp(-params.a * (s.n - params.b))) - s.speedup
        total += r * r
    return total


# numpy is imported only on the fit path, so that processes that only plan
# do not pay its import time and memory.


def _logistic(ns: np.ndarray, a: float, b: float, c: float) -> np.ndarray:
    import numpy as np

    return c / (1.0 + np.exp(-a * (ns - b)))


def _jacobian(ns: np.ndarray, a: float, b: float, c: float) -> np.ndarray:
    import numpy as np

    e = np.exp(-a * (ns - b))
    g = 1.0 / (1.0 + e)
    common = c * e * g * g
    return np.column_stack((common * (ns - b), -common * a, g))


_GRID_A = 12
_GRID_B = 12
_GRID_C = 8
_MAX_ITER = 500
_REL_TOL = 1e-10


def fit_logistic(samples: Sequence[SpeedupSample]) -> LogisticParams:
    """Least-squares fit of the logistic speedup curve.

    Runs a coarse multi-start grid over (a, b, c) and refines the best starts
    with a damped Gauss-Newton iteration.  Fully deterministic: identical
    input always yields identical output.

    Requires at least four samples spanning at least three distinct node
    counts.  Raises NonConvergenceError (carrying the best iterate and its
    residual) if no start converges within the iteration cap.
    """
    if len(samples) < 4:
        raise InsufficientDataError(f"need at least 4 samples, got {len(samples)}")
    distinct = {s.n for s in samples}
    if len(distinct) < 3:
        raise InsufficientDataError(
            f"need samples at 3 or more distinct node counts, got {len(distinct)}"
        )

    import numpy as np

    ns = np.array([float(s.n) for s in samples])
    ys = np.array([s.speedup for s in samples])
    y_max = float(ys.max())

    a_grid = np.geomspace(0.01, 1.0, _GRID_A)
    b_grid = np.linspace(1.0, 2.0 * float(ns.max()), _GRID_B)
    c_grid = np.linspace(y_max, 4.0 * y_max, _GRID_C)

    # Vectorized residual scan over the whole grid.
    aa, bb, cc = np.meshgrid(a_grid, b_grid, c_grid, indexing="ij")
    preds = cc[..., None] / (1.0 + np.exp(-aa[..., None] * (ns - bb[..., None])))
    ssr = ((preds - ys) ** 2).sum(axis=-1)
    order = np.argsort(ssr, axis=None, kind="stable")

    runs = []
    for flat in order[:3]:
        i, j, k = np.unravel_index(flat, ssr.shape)
        runs.append(_refine(ns, ys, (a_grid[i], b_grid[j], c_grid[k])))
    theta, best_ssr, converged = min(runs, key=lambda run: run[1])

    params = LogisticParams(*theta)
    if not converged:
        raise NonConvergenceError(params, best_ssr)
    return params


def _refine(
    ns: np.ndarray, ys: np.ndarray, start: tuple[float, float, float]
) -> tuple[tuple[float, float, float], float, bool]:
    """Damped Gauss-Newton from one start; returns (theta, ssr, converged)."""
    import numpy as np

    theta = np.array(start, dtype=float)
    resid = _logistic(ns, *theta) - ys
    ssr = float(resid @ resid)
    lam = 1e-3
    for _ in range(_MAX_ITER):
        jac = _jacobian(ns, *theta)
        grad = jac.T @ resid
        hess = jac.T @ jac
        try:
            step = np.linalg.solve(hess + lam * np.eye(3), -grad)
        except np.linalg.LinAlgError:
            lam *= 10.0
            continue
        candidate = theta + step
        if np.all(candidate > 0) and np.all(np.isfinite(candidate)):
            cand_resid = _logistic(ns, *candidate) - ys
            cand_ssr = float(cand_resid @ cand_resid)
            if cand_ssr <= ssr:
                improved = ssr - cand_ssr
                theta, resid, ssr = candidate, cand_resid, cand_ssr
                lam = max(lam * 0.3, 1e-12)
                if improved <= _REL_TOL * max(ssr, 1e-30):
                    return tuple(theta), ssr, True
                continue
        lam *= 10.0
        if lam > 1e12:
            # Step size has collapsed; nothing further to gain.
            return tuple(theta), ssr, True
    return tuple(theta), ssr, False


class ScalingSource:
    """Resolves the speedup model to use for a given instance.

    A catalog entry may carry its own fitted parameters; instances without
    one fall back to the supplied default (the bundled reference average
    unless overridden), which must give S_hybrid(1) > 0.  A warning is
    emitted the first time an instance's model implies a superlinear scaling
    factor; the value is used as-is.
    """

    def __init__(self, default: ScalingModel = DEFAULT_MODEL):
        if not s_hybrid(default, 1) > 0:
            raise ValueError(f"scaling model {default.params} gives S_hybrid(1) <= 0")
        self.default = default
        self._warned: set[str] = set()

    def model_for(self, instance: "InstanceSpec") -> ScalingModel:
        override = getattr(instance, "scaling_params", None)
        if override is not None:
            return ScalingModel(override, ModelOrigin.PER_INSTANCE)
        return self.default

    def factor(self, instance: "InstanceSpec", n: int) -> float:
        k = scaling_factor(self.model_for(instance), n)
        if k > 1.0 and instance.name not in self._warned:
            self._warned.add(instance.name)
            warnings.warn(
                f"instance {instance.name!r}: scaling factor {k:.4g} exceeds 1 "
                f"at n={n} (superlinear speedup model); using it as-is",
                RuntimeWarning,
                stacklevel=2,
            )
        return k


class UnitScaling(ScalingSource):
    """Scaling source that ignores parallel overhead entirely (K = 1)."""

    def factor(self, instance: "InstanceSpec", n: int) -> float:
        if n < 1:
            raise ValueError(f"node count must be >= 1, got {n}")
        return 1.0
