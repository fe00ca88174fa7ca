import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spotplan import (
    DEFAULT_PARAMS,
    REFERENCE_MODEL_FITS,
    InsufficientDataError,
    LogisticParams,
    NonConvergenceError,
    SpeedupSample,
    average_params,
    fit_logistic,
    s_average,
    s_hybrid,
    scaling_factor,
    superlinear_from,
)

REF = DEFAULT_PARAMS

# Frozen oracle values: direct high-precision evaluation of the formulas
# with the reference parameters (a=0.1339, b=12.8742, c=6.1766).
S_AVG_AT_20 = 4.459183585840938
HYBRID_AT_5 = 1.460217139973
HYBRID_AT_1 = 0.633170399973


A_RANGE = st.floats(min_value=1e-3, max_value=10.0)
B_RANGE = st.floats(min_value=1e-2, max_value=1000.0)
C_RANGE = st.floats(min_value=1e-2, max_value=1e4)


def logistic(params, n):
    return params.c / (1 + math.exp(-params.a * (n - params.b)))


def synth_samples(params, ns, noise=0.0, seed=None):
    rng = np.random.default_rng(seed)
    out = []
    for n in ns:
        y = logistic(params, n) + (rng.normal(0, noise) if noise else 0.0)
        out.append(SpeedupSample(n=n, speedup=max(y, 1e-6)))
    return out


class TestSAverage:
    def test_value_at_inflection_is_half_asymptote(self):
        assert s_average(REF, DEFAULT_PARAMS.b) == pytest.approx(
            DEFAULT_PARAMS.c / 2, rel=1e-12
        )
        assert s_average(REF, DEFAULT_PARAMS.b) == pytest.approx(3.0883, abs=1e-12)

    def test_approaches_asymptote(self):
        assert abs(s_average(REF, 1000) - 6.1766) < 1e-6

    def test_frozen_value_at_20(self):
        assert s_average(REF, 20) == pytest.approx(S_AVG_AT_20, rel=1e-12)


class TestSHybrid:
    def test_continuous_at_inflection(self):
        b = DEFAULT_PARAMS.b
        assert s_hybrid(REF, b) == pytest.approx(s_average(REF, b), abs=1e-12)

    def test_tangent_below_inflection(self):
        assert s_hybrid(REF, 5) == pytest.approx(HYBRID_AT_5, rel=1e-9)

    def test_logistic_above_inflection(self):
        assert s_hybrid(REF, 20) == s_average(REF, 20)

    def test_monotone_over_range(self):
        values = [s_hybrid(REF, n) for n in range(1, 257)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    @settings(max_examples=100, deadline=None)
    @given(
        a=st.floats(min_value=1e-3, max_value=2.0),
        b=st.floats(min_value=0.5, max_value=100.0),
        c=st.floats(min_value=0.1, max_value=50.0),
    )
    def test_continuity_property(self, a, b, c):
        model = LogisticParams(a, b, c)
        assert abs(s_hybrid(model, b) - s_average(model, b)) < 1e-12


class TestScalingFactor:
    def test_n1_is_tangent_value(self):
        assert scaling_factor(REF, 1) == pytest.approx(HYBRID_AT_1, rel=1e-9)

    def test_frozen_value_at_5(self):
        assert scaling_factor(REF, 5) == pytest.approx(HYBRID_AT_5 / 5, rel=1e-9)

    def test_strictly_inside_unit_interval_up_to_256(self):
        for n in range(1, 257):
            k = scaling_factor(REF, n)
            assert 0.0 < k < 1.0

    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError):
            scaling_factor(REF, 0)


class TestSuperlinear:
    """superlinear_from against a scan of K(n), and the concavity it relies on."""

    @settings(max_examples=300, deadline=None)
    @given(a=A_RANGE, b=B_RANGE, c=st.floats(min_value=1e-2, max_value=2000.0))
    def test_first_superlinear_n_matches_a_scan(self, a, b, c):
        params = LogisticParams(a, b, c)
        # No n >= c is superlinear, since S_hybrid <= c.
        scan = next((n for n in range(1, math.ceil(c) + 2) if scaling_factor(params, n) > 1.0), None)
        assert superlinear_from(params) == scan

    @pytest.mark.parametrize(
        "params, first",
        [
            (DEFAULT_PARAMS, None),
            (LogisticParams(0.1, 10.0, 30.0), 1),
            (LogisticParams(0.5, 4.9, 30.0), 2),  # S_hybrid(1) = 0.375
            (LogisticParams(1.0, 2.0, 4.0), None),  # S_hybrid(n) = n exactly up to b
        ],
    )
    def test_known_models(self, params, first):
        assert superlinear_from(params) == first

    def test_huge_asymptote_takes_few_steps(self):
        # Bisection: no scan up to c.
        params = LogisticParams(4.0, 1.0, 1e300)
        assert superlinear_from(params) == 1

    @settings(max_examples=200, deadline=None)
    @given(a=A_RANGE, b=B_RANGE, c=C_RANGE)
    def test_s_hybrid_is_concave(self, a, b, c):
        model = LogisticParams(a, b, c)
        values = [s_hybrid(model, n) for n in range(1, 1026)]
        steps = [hi - lo for lo, hi in zip(values, values[1:])]
        # Float rounding moves each value by about an ulp.
        slack = 8 * math.ulp(max(abs(x) for x in values))
        assert all(later <= earlier + slack for earlier, later in zip(steps, steps[1:]))


class TestFit:
    def test_recovers_noiseless_params(self):
        truth = LogisticParams(0.14, 13.0, 7.0)
        samples = synth_samples(truth, [1, 2, 4, 8, 16, 24, 32])
        fit = fit_logistic(samples)
        assert fit.a == pytest.approx(truth.a, rel=1e-4)
        assert fit.b == pytest.approx(truth.b, rel=1e-4)
        assert fit.c == pytest.approx(truth.c, rel=1e-4)

    def test_noisy_fit_within_ten_percent(self):
        truth = LogisticParams(0.14, 13.0, 7.0)
        samples = synth_samples(truth, [1, 2, 4, 8, 12, 16, 20, 24, 28, 32],
                                noise=0.05, seed=1234)
        fit = fit_logistic(samples)
        assert fit.a == pytest.approx(truth.a, rel=0.10)
        assert fit.b == pytest.approx(truth.b, rel=0.10)
        assert fit.c == pytest.approx(truth.c, rel=0.10)

    def test_deterministic(self):
        truth = LogisticParams(0.2, 9.0, 5.0)
        samples = synth_samples(truth, [1, 3, 6, 9, 15, 25], noise=0.03, seed=7)
        first = fit_logistic(samples)
        second = fit_logistic(samples)
        assert (first.a, first.b, first.c) == (second.a, second.b, second.c)

    def test_flat_data_does_not_crash(self):
        samples = [SpeedupSample(n, 2.5) for n in (1, 2, 4, 8, 16)]
        try:
            fit = fit_logistic(samples)
        except NonConvergenceError as exc:
            assert exc.params is not None and exc.residual >= 0
        else:
            # Degenerate but valid: the curve must pass near the constant.
            preds = [logistic(fit, n) for n in (1, 2, 4, 8, 16)]
            assert all(abs(p - 2.5) < 1.0 for p in preds)

    def test_too_few_samples(self):
        samples = [SpeedupSample(n, float(n)) for n in (1, 2, 4)]
        with pytest.raises(InsufficientDataError):
            fit_logistic(samples)

    def test_too_few_distinct_counts(self):
        samples = [SpeedupSample(1, 1.0), SpeedupSample(1, 1.1),
                   SpeedupSample(2, 2.0), SpeedupSample(2, 2.1)]
        with pytest.raises(InsufficientDataError):
            fit_logistic(samples)

    @settings(max_examples=15, deadline=None)
    @given(
        a=st.floats(min_value=0.05, max_value=0.5),
        b=st.floats(min_value=3.0, max_value=20.0),
        c=st.floats(min_value=2.0, max_value=12.0),
    )
    def test_round_trip_property(self, a, b, c):
        truth = LogisticParams(a, b, c)
        samples = synth_samples(truth, [1, 2, 4, 6, 8, 12, 16, 20, 26, 32, 40])
        fit = fit_logistic(samples)
        assert fit.a == pytest.approx(a, rel=1e-3)
        assert fit.b == pytest.approx(b, rel=1e-3)
        assert fit.c == pytest.approx(c, rel=1e-3)


class TestAverageParams:
    def test_reference_rows_mean(self):
        mean = average_params(list(REFERENCE_MODEL_FITS.values()))
        # Exact component-wise mean of the three fits.
        assert mean.a == pytest.approx(0.4016 / 3, rel=1e-12)
        assert mean.b == pytest.approx(38.6227 / 3, rel=1e-12)
        assert mean.c == pytest.approx(18.5382 / 3, rel=1e-12)
        # The shipped average constants agree to 5e-4 relative per component.
        assert mean.a == pytest.approx(DEFAULT_PARAMS.a, rel=5e-4)
        assert mean.b == pytest.approx(DEFAULT_PARAMS.b, rel=5e-4)
        assert mean.c == pytest.approx(DEFAULT_PARAMS.c, rel=5e-4)

    def test_single_model_is_identity(self):
        p = LogisticParams(0.3, 4.0, 2.0)
        assert average_params([p]) == p

    def test_two_identical_models(self):
        p = LogisticParams(0.3, 4.0, 2.0)
        assert average_params([p, p]) == p

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            average_params([])

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=2),
                st.floats(min_value=0.1, max_value=100),
                st.floats(min_value=0.1, max_value=50),
            ),
            min_size=1,
            max_size=6,
        ),
        st.randoms(use_true_random=False),
    )
    def test_permutation_invariant(self, triples, rnd):
        models = [LogisticParams(*t) for t in triples]
        shuffled = models[:]
        rnd.shuffle(shuffled)
        first = average_params(models)
        second = average_params(shuffled)
        assert first.a == pytest.approx(second.a, rel=1e-12)
        assert first.b == pytest.approx(second.b, rel=1e-12)
        assert first.c == pytest.approx(second.c, rel=1e-12)


class TestScalingSource:
    def _instance(self, params=None):
        from spotplan import InstanceSpec, Kind

        return InstanceSpec(name="v", kind=Kind.GPU, od_price="1", spot_price="0.5",
                            network_bw=10, eflops=100, memory=16,
                            scaling_params=params)

    def test_per_instance_override_wins(self):
        from spotplan import ScalingSource

        override = LogisticParams(0.5, 2.0, 3.0)
        source = ScalingSource()
        model = source.model_for(self._instance(override))
        assert model == override
        assert source.model_for(self._instance()) == DEFAULT_PARAMS

    def test_superlinear_factor_is_used_without_a_warning(self):
        from spotplan import ScalingSource

        # tangent value at n=1 is far above 1: K(1) > 1
        source = ScalingSource(LogisticParams(0.1, 10.0, 30.0))
        inst = self._instance()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert source.factor(inst, 1) == source.factor(inst, 1) > 1.0

    def test_frozen_and_hashable(self):
        from spotplan import ScalingSource, UnitScaling

        source = ScalingSource()
        with pytest.raises(dataclasses.FrozenInstanceError):
            source.default = REF
        assert hash(source) == hash(ScalingSource()) and source == ScalingSource()
        assert len({source, ScalingSource(), UnitScaling()}) == 2

    def test_subclass_may_keep_its_own_state(self):
        from spotplan import ScalingSource

        class Counting(ScalingSource):
            def __init__(self):
                super().__init__()
                self.calls = 0

            def factor(self, instance, n):
                self.calls += 1
                return super().factor(instance, n)

        counter = Counting()
        assert counter.factor(self._instance(), 3) == scaling_factor(REF, 3)
        assert counter.calls == 1

    def test_scaling_module_does_not_import_warnings(self):
        import spotplan.scaling

        assert "warnings" not in vars(spotplan.scaling)

    @settings(max_examples=300, deadline=None)
    @given(
        params=st.one_of(st.none(), st.builds(LogisticParams, a=A_RANGE, b=B_RANGE, c=C_RANGE)),
        default=st.sampled_from([DEFAULT_PARAMS, *REFERENCE_MODEL_FITS.values()]),
        n=st.integers(min_value=1, max_value=2048),
    )
    def test_factor_is_scaling_factor_of_model_for_bit_for_bit(self, params, default, n):
        from spotplan import ScalingSource

        if params is not None:
            assume(s_hybrid(params, 1) > 0)  # the catalog rejects the rest
        source = ScalingSource(default)
        v = self._instance(params)
        assert source.factor(v, n).hex() == scaling_factor(source.model_for(v), n).hex()

    def test_default_with_nonpositive_start_rejected(self):
        from spotplan import ScalingSource

        with pytest.raises(ValueError, match="S_hybrid"):
            ScalingSource(LogisticParams(0.05, 50.0, 4.0))

    def test_unit_scaling_is_constant_one(self):
        from spotplan import UnitScaling

        source = UnitScaling()
        assert source.factor(self._instance(), 1) == 1.0
        assert source.factor(self._instance(), 200) == 1.0

    def test_factor_rejects_zero_nodes(self):
        from spotplan import ScalingSource, UnitScaling

        for source in (ScalingSource(), UnitScaling()):
            with pytest.raises(ValueError, match="^node count must be >= 1, got 0$"):
                source.factor(self._instance(), 0)


class TestValidation:
    def test_nonpositive_params_rejected(self):
        with pytest.raises(ValueError):
            LogisticParams(0, 1, 1)
        with pytest.raises(ValueError):
            LogisticParams(1, -1, 1)

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            SpeedupSample(0, 1.0)
        with pytest.raises(ValueError):
            SpeedupSample(1, 0.0)
