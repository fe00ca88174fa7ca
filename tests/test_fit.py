"""The pure-Python logistic fit: agreement with the former numpy fit, overflow
and non-finite residuals, and builtin result types.

numpy comes with the test extra; the package itself does not use it."""
import math
import random

import numpy as np
import pytest

from spotplan import LogisticParams, NonConvergenceError, SpeedupSample, fit_logistic
from spotplan import scaling
from spotplan.scaling import _solve3, s_average, sum_squared_residuals


def samples(rows):
    return [SpeedupSample(n, s) for n, s in rows]


def noisy_curve(a, b, c, ns, noise, seed):
    rng = random.Random(seed)
    return [
        SpeedupSample(n, c / (1 + math.exp(-a * (n - b))) * rng.uniform(1 - noise, 1 + noise))
        for n in ns
    ]


def numpy_fit(samples):
    """The numpy implementation of the same algorithm that the package used to ship."""
    ns = np.array([float(s.n) for s in samples])
    ys = np.array([s.speedup for s in samples])

    def logistic(a, b, c):
        return c / (1.0 + np.exp(-a * (ns - b)))

    a_grid = np.geomspace(0.01, 1.0, 12)
    b_grid = np.linspace(1.0, 2.0 * ns.max(), 12)
    c_grid = np.linspace(ys.max(), 4.0 * ys.max(), 8)
    aa, bb, cc = np.meshgrid(a_grid, b_grid, c_grid, indexing="ij")
    ssr = ((cc[..., None] / (1.0 + np.exp(-aa[..., None] * (ns - bb[..., None]))) - ys) ** 2).sum(-1)
    runs = []
    for flat in np.argsort(ssr, axis=None, kind="stable")[:3]:
        i, j, k = np.unravel_index(flat, ssr.shape)
        theta = np.array((a_grid[i], b_grid[j], c_grid[k]))
        resid = logistic(*theta) - ys
        best = float(resid @ resid)
        lam, converged = 1e-3, False
        for _ in range(500):
            a, b, c = theta
            e = np.exp(-a * (ns - b))
            g = 1.0 / (1.0 + e)
            common = c * e * g * g
            jac = np.column_stack((common * (ns - b), -common * a, g))
            try:
                step = np.linalg.solve(jac.T @ jac + lam * np.eye(3), -(jac.T @ resid))
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            cand = theta + step
            if np.all(cand > 0) and np.all(np.isfinite(cand)):
                cand_resid = logistic(*cand) - ys
                cand_ssr = float(cand_resid @ cand_resid)
                if cand_ssr <= best:
                    improved = best - cand_ssr
                    theta, resid, best = cand, cand_resid, cand_ssr
                    lam = max(lam * 0.3, 1e-12)
                    if improved <= 1e-10 * max(best, 1e-30):
                        converged = True
                        break
                    continue
            lam *= 10.0
            if lam > 1e12:
                converged = True
                break
        runs.append((tuple(float(t) for t in theta), best, converged))
    theta, _, converged = min(runs, key=lambda run: run[1])
    assert converged
    return theta


def _random_curves(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        ns = sorted(rng.sample(range(1, 65), rng.randint(6, 32)))
        yield (rng.uniform(0.05, 0.5), rng.uniform(3.0, 30.0), rng.uniform(2.0, 12.0), ns, 0.02,
               rng.randrange(1000))


CURVES = [
    (0.14, 13.0, 7.0, range(1, 33), 0.02, 71),
    (0.4, 6.0, 3.0, (1, 2, 3, 4, 6, 8, 12, 16), 0.01, 5),
    (0.05, 40.0, 20.0, (1, 4, 8, 16, 32, 48, 64, 96, 128), 0.03, 9),
    *_random_curves(30, 4),
]

# exp(-a(n - b)) overflows at some grid start: n = 1 with b near 2e5.
FAR_SAMPLE = samples([(1, 1.0), (2, 2.0), (3, 3.0), (100000, 4.0)])
# Same, with b near 800; no start converges within the iteration cap.
STUCK = samples([(1, 1.0), (2, 1.0), (3, 1.0), (400, 900.0)])


@pytest.mark.parametrize("curve", CURVES)
def test_matches_the_numpy_fit(curve):
    sample = noisy_curve(*curve)
    fit = fit_logistic(sample)
    assert (fit.a, fit.b, fit.c) == pytest.approx(numpy_fit(sample), rel=1e-6)


def test_a_zero_pivot_has_no_solution():
    # lam is lost in 1e20 + 1e-12, so elimination leaves the second column's pivots at 0.
    assert _solve3([[1e20, 1e20, 0.0, 1.0], [1e20, 1e20, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]], 1e-12) is None


def test_a_step_with_no_solution_is_retried_with_more_damping(monkeypatch):
    calls, real = [], scaling._solve3

    def solve3(system, lam):
        calls.append(lam)
        return None if len(calls) == 1 else real(system, lam)

    monkeypatch.setattr(scaling, "_solve3", solve3)
    sample = noisy_curve(*CURVES[0])
    fit = fit_logistic(sample)
    assert calls[:2] == [1e-3, 1e-2]
    assert (fit.a, fit.b, fit.c) == pytest.approx(numpy_fit(sample), rel=1e-6)


def test_result_holds_builtin_floats():
    fit = fit_logistic(noisy_curve(*CURVES[0]))
    assert [type(v) for v in (fit.a, fit.b, fit.c)] == [float, float, float]


class TestOverflow:
    def test_overflowing_start_still_fits(self):
        fit = fit_logistic(FAR_SAMPLE)
        assert (fit.a, fit.b, fit.c) == pytest.approx((math.log(3.0), 2.0, 4.0), rel=1e-9)
        assert sum_squared_residuals(fit, FAR_SAMPLE) < 1e-20

    def test_overflowing_start_that_does_not_converge(self):
        with pytest.raises(NonConvergenceError) as excinfo:
            fit_logistic(STUCK)
        exc = excinfo.value
        assert [type(v) for v in (exc.params.a, exc.params.b, exc.params.c)] == [float] * 3
        assert (exc.params.a, exc.params.b, exc.params.c) == pytest.approx(
            (0.025130940007023875, 274.31432256892356, 938.2361322293935), rel=1e-6
        )
        message = str(exc)
        assert message.startswith("logistic fit did not converge; best iterate LogisticParams(a=0.0251")
        assert message.endswith("with residual 0.00126001")
        assert "np." not in message and "\n" not in message

    def test_sum_squared_residuals_where_exp_overflows(self):
        # a * (b - n) = 799 > 709: the logistic is 0 there.
        params = LogisticParams(1.0, 800.0, 3.0)
        assert sum_squared_residuals(params, [SpeedupSample(1, 2.0)]) == 4.0

    def test_s_average_where_exp_overflows(self):
        # The same model and n: s_average is 0 there too, rather than an OverflowError.
        params = LogisticParams(1.0, 800.0, 3.0)
        assert s_average(params, 1) == 0.0
        assert s_average(params, 800) == 1.5


def test_non_finite_residual_does_not_converge():
    with pytest.raises(NonConvergenceError) as excinfo:
        fit_logistic(samples([(n, 1e300) for n in (1, 2, 3, 4)]))
    assert excinfo.value.residual == math.inf
    assert math.isfinite(excinfo.value.params.c)


@pytest.mark.parametrize("n", [10**400, math.inf, math.nan], ids=["10**400", "inf", "nan"])
def test_node_count_beyond_float_range_is_rejected(n):
    with pytest.raises(ValueError, match="node count must be finite and within float range"):
        SpeedupSample(n, 1.0)


def test_largest_float_node_count_is_accepted():
    assert SpeedupSample(10**308, 1.0).n == 10**308
