import dataclasses
import heapq
import itertools
import json
import math
import random
import re
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from operator import itemgetter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import brute_force_best, brute_force_candidates, plan_tuple, random_catalog, random_request
from spotplan import (
    Catalog,
    CatalogError,
    CatalogParseError,
    InstanceSpec,
    Kind,
    LogisticParams,
    SINGLE_ANCHOR,
    TIERING,
    PlanRequest,
    SaturationTable,
    ScalingSource,
    UnitScaling,
    default_saturation_table,
    flopp,
    load_catalog,
    n_sat_lookup,
    plan_noscale,
    recommend,
    s_hybrid,
)
from spotplan.catalog import MAX_PRICE_PLACES
from spotplan.planner import _BUDGET_CONTEXT, _SLACK, MAX_INSTANCES, _plan, _rows, _SingleAnchorRow, _TieringRow
from spotplan.scaling import DEFAULT_SCALING


def gpu(name, od, spot, bw=10, eflops=100, **kw):
    return InstanceSpec(name=name, kind=Kind.GPU, od_price=od, spot_price=spot,
                        network_bw=bw, eflops=eflops, memory=16, **kw)


def cpu(name, od, spot="0.01", bw=10, memory=8, **kw):
    return InstanceSpec(name=name, kind=Kind.CPU, od_price=od, spot_price=spot,
                        network_bw=bw, eflops=0, memory=memory, **kw)


class TestFlopp:
    def test_reference_values(self, simulated_catalog):
        b = flopp(simulated_catalog.by_name("B"))
        assert b.spfp == pytest.approx(2386.0759493670885, rel=1e-12)
        assert b.odfp == pytest.approx(716.7300380228137, rel=1e-12)
        j = flopp(simulated_catalog.by_name("J"))
        assert j.spfp == pytest.approx(757.5757575757576, rel=1e-12)
        assert j.odfp == pytest.approx(227.27272727272728, rel=1e-12)

    def test_unit_ratio(self):
        v = gpu("u", od="7", spot="7", eflops=7)
        assert flopp(v).spfp == pytest.approx(1.0)

    def test_spot_flopp_dominates(self, simulated_catalog):
        for v in simulated_catalog.gpu_view:
            score = flopp(v)
            assert score.spfp >= score.odfp

    def test_rejects_cpu(self, simulated_catalog):
        with pytest.raises(ValueError):
            flopp(simulated_catalog.by_name("K"))


class TestPlanRequest:
    def test_defaults(self):
        req = PlanRequest(pw="3")
        assert req.pw == Decimal("3")
        assert (req.ckpt_size, req.buffer_count, req.max_instances, req.top_k) == (0.5, 2, 256, 3)

    @pytest.mark.parametrize(
        "kw",
        [
            {"pw": "0"},
            {"pw": "-1"},
            {"pw": "1", "ckpt_size": 0},
            {"pw": "1", "buffer_count": 0},
            {"pw": "1", "max_instances": 0},
            {"pw": "1", "top_k": 0},
            {"pw": "1", "ckpt_size": float("inf")},
            {"pw": "1", "ckpt_size": float("nan")},
        ],
    )
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            PlanRequest(**kw)

    def test_max_instances_is_capped(self):
        assert PlanRequest(pw="1", max_instances=MAX_INSTANCES).max_instances == 10_000
        with pytest.raises(ValueError, match=f"^max_instances must be in 1..{MAX_INSTANCES}, not 10001$"):
            PlanRequest(pw="1", max_instances=MAX_INSTANCES + 1)

    def test_top_k_is_capped(self):
        """top_k=10**9 at pw=1e40 and the cap returned 800,000 plans in 12 s, with a peak RSS of 505 MiB."""
        assert PlanRequest(pw="1", top_k=MAX_INSTANCES).top_k == 10_000
        for top_k in (0, MAX_INSTANCES + 1, 10**9):
            with pytest.raises(ValueError, match=f"^top_k must be in 1..{MAX_INSTANCES}, not {top_k}$"):
                PlanRequest(pw="1", top_k=top_k)

    @pytest.mark.parametrize("pw", ["1e-400", "-1e-400", "1e-1000"])
    def test_pw_that_is_0_as_a_float_rejected(self, pw):
        """Exact budget sums stay within float's range of digits only if a nonzero budget is a nonzero float."""
        with pytest.raises(ValueError, match=f"^pw must be a nonzero float, not {re.escape(str(Decimal(pw)))}$"):
            PlanRequest(pw=pw)

    def test_pw_of_more_than_max_price_places_rejected(self):
        """An exact sum has the places of its most precise operand, and each plan keeps its price."""
        assert PlanRequest(pw="1." + "0" * MAX_PRICE_PLACES).pw == 1
        with pytest.raises(CatalogParseError, match=f"^a price has at most {MAX_PRICE_PLACES} decimal places, not 1001$"):
            PlanRequest(pw="1." + "0" * 1001)

    @pytest.mark.parametrize("pw", ["NaN", "Infinity", float("inf")])
    def test_non_finite_pw_rejected(self, pw):
        with pytest.raises(CatalogParseError):
            PlanRequest(pw=pw)

    @pytest.mark.parametrize("pw", ["1e999999999", "1e1000000", "1e400", "-1e400", "1.8e308"])
    def test_pw_beyond_float_range_rejected(self, pw):
        """A plan reports its price as a float, so a budget must be a finite one.
        recommend() used to raise decimal.Overflow at pw - od for 1e1000000."""
        with pytest.raises(ValueError, match=f"^pw must be a finite float, not {re.escape(str(Decimal(pw)))}$"):
            PlanRequest(pw=pw)

    def test_largest_finite_pw_plans(self, simulated_catalog):
        req = PlanRequest(pw="1.7976931348623157e308", max_instances=8, top_k=1)
        (plan,) = recommend(simulated_catalog, req)
        assert plan.n_gpu == 8

    @pytest.mark.parametrize("name", ["max_instances", "top_k", "buffer_count"])
    @pytest.mark.parametrize("value", [5.5, 2.0, "3", Decimal(3), None, math.nan, math.inf, True])
    def test_non_integer_counts_rejected(self, name, value):
        """A float count used to pass the checks and fail later: max_instances
        in _TieringRow.n_top, top_k in heapq.nsmallest.  A NaN or infinite
        buffer_count made required_memory NaN or inf and silently dropped every
        tiering row, a fractional one planned with a fraction of the memory, and
        a str raised a bare TypeError from <."""
        with pytest.raises(ValueError, match=f"^{name} must be an integer, not {re.escape(repr(value))}$"):
            PlanRequest(pw="3", **{name: value})

    @pytest.mark.parametrize("value", [0, -1, 10**400, 2**1024], ids=["zero", "negative", "401-digits", "2**1024"])
    def test_buffer_count_out_of_float_range_rejected(self, value):
        """required_memory multiplies by float(buffer_count), which raised a bare
        OverflowError for 10**400; the refusal names no value, since formatting
        one as a float overflows too."""
        with pytest.raises(ValueError, match=r"^buffer_count must be in 1\.\.1\.798e\+308$"):
            PlanRequest(pw="3", buffer_count=value)

    def test_buffer_count_of_float_max_plans(self, simulated_catalog):
        req = PlanRequest(pw="3", ckpt_size=10, buffer_count=int(sys.float_info.max), top_k=1)
        assert req.required_memory == math.inf
        assert [plan.architecture for plan in recommend(simulated_catalog, req)] == ["single_anchor"]

    def test_numpy_integer_counts_plan_as_ints(self, simulated_catalog):
        np = pytest.importorskip("numpy")
        req = PlanRequest(pw="3", max_instances=np.int64(5), top_k=np.int32(2), buffer_count=np.int16(3))
        assert type(req.max_instances) is type(req.top_k) is type(req.buffer_count) is int
        plain = PlanRequest(pw="3", max_instances=5, top_k=2, buffer_count=3)
        assert req == plain
        assert recommend(simulated_catalog, req) == recommend(simulated_catalog, plain)


class TestSingleAnchor:
    def test_budget_packs_five_nodes(self, simulated_catalog, best_of):
        cat = Catalog((simulated_catalog.by_name("J"),))
        plan = best_of(SINGLE_ANCHOR, cat, PlanRequest(pw="0.5"))
        assert plan.n_gpu == 5
        assert plan.hourly_price == Decimal("0.484")
        assert plan.architecture == "single_anchor"
        assert plan.cpu_instance is None and plan.m_cpu is None

    def test_infeasible_budget(self, simulated_catalog, best_of):
        assert best_of(SINGLE_ANCHOR, simulated_catalog, PlanRequest(pw="0.1")) is None

    def test_exact_anchor_price_is_feasible(self, simulated_catalog, best_of):
        cat = Catalog((simulated_catalog.by_name("J"),))
        plan = best_of(SINGLE_ANCHOR, cat, PlanRequest(pw="0.22"))
        assert plan.n_gpu == 1
        assert plan.hourly_price == Decimal("0.22")

    def test_matches_double_loop(self, simulated_catalog, scaling_source, sat_table, best_of):
        req = PlanRequest(pw="3")
        plan = best_of(SINGLE_ANCHOR, simulated_catalog, req, scaling_source)
        best = min(
            (kd for kd in brute_force_candidates(simulated_catalog, req, scaling_source, sat_table)
             if kd[1][0] == "single_anchor"),
            default=None,
        )
        key, desc = best
        assert plan.score_z == pytest.approx(-key[0], rel=1e-12)
        assert (plan.gpu_instance.name, plan.n_gpu) == (desc[1], desc[2])

    def test_respects_max_instances(self, simulated_catalog, best_of):
        cat = Catalog((simulated_catalog.by_name("J"),))
        plan = best_of(SINGLE_ANCHOR, cat, PlanRequest(pw="100", max_instances=7))
        assert plan.n_gpu == 7


class TestTiering:
    def test_saturation_sizing_at_32(self, sat_table, best_of):
        cat = Catalog((gpu("v", od="1", spot="0.1", bw=25),
                       cpu("w", od="0.2", bw=1.7)))
        plan = best_of(TIERING, cat, PlanRequest(pw="100", max_instances=32), sat=sat_table)
        assert plan.n_gpu == 32
        assert plan.m_cpu == 3

    def test_memory_constraint_can_exclude_everything(self, sat_table, best_of):
        cat = Catalog((gpu("v", od="1", spot="0.1"),
                       cpu("w", od="0.2", memory=0.9)))
        req = PlanRequest(pw="100", ckpt_size=0.5, buffer_count=2)
        assert best_of(TIERING, cat, req, sat=sat_table) is None

    def test_memory_exactly_sufficient(self, sat_table, best_of):
        cat = Catalog((gpu("v", od="1", spot="0.1"),
                       cpu("w", od="0.2", memory=1.0)))
        req = PlanRequest(pw="1", ckpt_size=0.5, buffer_count=2)
        plan = best_of(TIERING, cat, req, sat=sat_table)
        assert plan is not None

    def test_no_cpu_instances_means_none(self, simulated_catalog, sat_table, best_of):
        cat = Catalog(tuple(simulated_catalog.gpu_view))
        assert best_of(TIERING, cat, PlanRequest(pw="5"), sat=sat_table) is None

    def test_matches_triple_loop(self, simulated_catalog, scaling_source, sat_table, best_of):
        req = PlanRequest(pw="3")
        plan = best_of(TIERING, simulated_catalog, req, scaling_source, sat_table)
        best = min(
            (kd for kd in brute_force_candidates(simulated_catalog, req, scaling_source, sat_table)
             if kd[1][0] == "tiering"),
            default=None,
        )
        key, desc = best
        assert plan.score_z == pytest.approx(-key[0], rel=1e-12)
        assert plan_tuple(plan) == desc

    def test_ties_across_cpus_break_by_price(self, sat_table, best_of):
        cat = Catalog((gpu("v", od="1", spot="0.1", bw=10),
                       cpu("w_pricey", od="0.3", bw=10),
                       cpu("w_cheap", od="0.2", bw=10)))
        plan = best_of(TIERING, cat, PlanRequest(pw="10"), sat=sat_table)
        assert plan.cpu_instance.name == "w_cheap"

    def test_equal_price_breaks_by_catalog_order(self, sat_table, best_of):
        cat = Catalog((gpu("v", od="1", spot="0.1", bw=10),
                       cpu("w_first", od="0.2", bw=10),
                       cpu("w_second", od="0.2", bw=10)))
        plan = best_of(TIERING, cat, PlanRequest(pw="10"), sat=sat_table)
        assert plan.cpu_instance.name == "w_first"

    def test_saturation_of_one_still_tiers(self, best_of):
        # With n_sat = 1 even n = 1 needs m = 2 receivers: the m = 1 range is empty.
        cat = Catalog((gpu("v", od="1", spot="0.1"), cpu("w", od="0.05")))
        sat = SaturationTable(((0.3, 1),))
        req = PlanRequest(pw="0.5")
        expected = brute_force_best(cat, req, sat=sat)
        assert expected["config"] == ("tiering", "v", 3, "w", 4)
        assert expected["price"] == Decimal("0.50")
        plans = recommend(cat, req, sat=sat)
        assert plan_tuple(plans[0]) == expected["config"]
        assert plans[0].hourly_price == expected["price"]
        assert plan_tuple(best_of(TIERING, cat, req, sat=sat)) == expected["config"]


class TestRecommend:
    def test_tiering_dominates_at_generous_budget(self, simulated_catalog):
        plans = recommend(simulated_catalog, PlanRequest(pw="3"))
        assert plans[0].architecture == "tiering"
        assert plans[0].gpu_instance.name == "D"

    def test_only_single_anchor_without_cpus(self, simulated_catalog):
        cat = Catalog((simulated_catalog.by_name("J"),))
        plans = recommend(cat, PlanRequest(pw="1"))
        assert plans and all(p.architecture == "single_anchor" for p in plans)

    def test_top_k_contract(self, simulated_catalog):
        plans = recommend(simulated_catalog, PlanRequest(pw="3", top_k=3))
        assert len(plans) == 3
        assert all(a.score_z >= b.score_z for a, b in zip(plans, plans[1:]))
        assert len({plan_tuple(p) for p in plans}) == 3

    def test_empty_when_infeasible(self, simulated_catalog):
        assert recommend(simulated_catalog, PlanRequest(pw="0.01")) == []

    def test_budget_feasibility(self, simulated_catalog):
        for pw in ("0.3", "1", "2.5", "7.7"):
            req = PlanRequest(pw=pw, top_k=10)
            for plan in recommend(simulated_catalog, req):
                assert plan.hourly_price <= req.pw

    def test_plans_reference_catalog_instances(self, simulated_catalog):
        for plan in recommend(simulated_catalog, PlanRequest(pw="5", top_k=10)):
            assert plan.gpu_instance in simulated_catalog.instances
            if plan.cpu_instance is not None:
                assert plan.cpu_instance in simulated_catalog.instances

    def test_architecture_structure(self, simulated_catalog):
        for plan in recommend(simulated_catalog, PlanRequest(pw="6", top_k=10)):
            if plan.architecture == "single_anchor":
                assert plan.cpu_instance is None and plan.m_cpu is None
            else:
                assert plan.cpu_instance is not None and plan.m_cpu >= 1
                assert plan.n_gpu / plan.m_cpu < 32  # below the largest n_sat

    def test_deterministic(self, simulated_catalog):
        first = recommend(simulated_catalog, PlanRequest(pw="4.4", top_k=5))
        second = recommend(simulated_catalog, PlanRequest(pw="4.4", top_k=5))
        assert [p.summary() for p in first] == [p.summary() for p in second]

    def test_monotone_in_budget(self, simulated_catalog):
        previous = 0.0
        for pw in ("0.5", "1", "1.5", "2", "3", "5", "8"):
            plans = recommend(simulated_catalog, PlanRequest(pw=pw))
            z = plans[0].score_z if plans else 0.0
            assert z >= previous
            previous = z

    def test_price_scale_invariance(self, simulated_catalog):
        req = PlanRequest(pw="3")
        base = plan_tuple(recommend(simulated_catalog, req)[0])
        for lam in (Decimal("0.5"), Decimal("2"), Decimal("10")):
            scaled = Catalog(tuple(
                InstanceSpec(
                    name=s.name, kind=s.kind,
                    od_price=s.od_price * lam, spot_price=s.spot_price * lam,
                    network_bw=s.network_bw, eflops=s.eflops, memory=s.memory,
                    available=s.available, scaling_params=s.scaling_params,
                )
                for s in simulated_catalog.instances
            ))
            plans = recommend(scaled, PlanRequest(pw=Decimal("3") * lam))
            assert plan_tuple(plans[0]) == base

    def test_huge_budget_fills_max_instances(self, simulated_catalog, best_of):
        # The Decimal quotient budget // price needs more than 28 digits here.
        req = PlanRequest(pw="1e40", top_k=5)
        plans = recommend(simulated_catalog, req)
        assert len(plans) == 5
        assert all(p.n_gpu == req.max_instances for p in plans)
        assert all(p.m_cpu is None or p.m_cpu <= req.max_instances for p in plans)
        assert plan_noscale(simulated_catalog, req)[0].n_gpu == req.max_instances
        single = best_of(SINGLE_ANCHOR, simulated_catalog, req)
        assert single.n_gpu == req.max_instances

    def test_matches_brute_force_on_random_catalogs(self):
        import random

        rng = random.Random(20240817)
        for _ in range(20):
            catalog = random_catalog(rng)
            req = random_request(rng)
            scaling = ScalingSource()
            plans = recommend(catalog, req, scaling)
            expected = brute_force_best(catalog, req, scaling)
            if expected is None:
                assert plans == []
            else:
                top = plans[0]
                assert top.score_z == pytest.approx(expected["z"], rel=1e-9)
                assert plan_tuple(top) == expected["config"]
                assert top.hourly_price == expected["price"]


class TestFrontier:
    """What the per-row walk relies on, and its result against the oracle."""

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.floats(min_value=1e-3, max_value=10.0),
        b=st.floats(min_value=1e-2, max_value=1000.0),
        c=st.floats(min_value=1e-2, max_value=1e4),
    )
    def test_s_hybrid_does_not_fall(self, a, b, c):
        model = LogisticParams(a, b, c)
        assume(s_hybrid(model, 1) > 0)
        values = [s_hybrid(model, n) for n in range(1, 1025)]
        assert all(hi >= lo for lo, hi in zip(values, values[1:]))

    @settings(max_examples=50, deadline=None)
    @given(
        prices=st.integers(100, 40000).flatmap(lambda od: st.tuples(st.just(od), st.integers(100, od))),
        eflops=st.integers(1, 2000),
    )
    def test_single_anchor_mean_does_not_fall(self, prices, eflops):
        # In exact arithmetic; float Z moves by a few ulps, which the walk's slack covers.
        od, spot = (Decimal(p) / 10000 for p in prices)
        score = flopp(gpu("v", od=od, spot=spot, eflops=eflops))
        spfp, odfp = Fraction(score.spfp), Fraction(score.odfp)
        means = [((n - 1) * spfp + odfp) / n for n in range(1, 1025)]
        assert all(hi >= lo for lo, hi in zip(means, means[1:]))

    @settings(max_examples=40, deadline=None)
    @given(
        # s_hybrid(model, 1) > 0 exactly when b < 1 + 2/a, so b is drawn below that.
        ab=st.floats(min_value=1e-3, max_value=10.0).flatmap(
            lambda a: st.tuples(st.just(a), st.floats(min_value=1e-2, max_value=min(1000.0, 1.0 + 2.0 / a)))
        ),
        c=st.floats(min_value=1e-2, max_value=1e4),
        odfp=st.floats(min_value=1e-6, max_value=1e6),
        ratio=st.floats(min_value=1.0, max_value=1e3),
    )
    def test_z_falls_only_by_rounding_up_to_the_cap(self, ab, c, odfp, ratio):
        # The walk stops at the first n whose Z is below the pooled top_k-th
        # best by _SLACK; that skips nothing only if no Z falls below its
        # running maximum by as much.  The largest fall measured is 5.7e-16.
        model = LogisticParams(*ab, c)
        assume(s_hybrid(model, 1) > 0)
        v = gpu("v", od="1", spot="1")
        score = dataclasses.replace(flopp(v), spfp=odfp * ratio, odfp=odfp)
        s = [s_hybrid(model, n) for n in range(1, MAX_INSTANCES + 1)]
        assert all(hi >= lo for lo, hi in zip(s, s[1:]))
        anchor = _SingleAnchorRow(0, v, score)
        for row in (anchor, _TieringRow(anchor, 0, cpu("w", od="1"), 4)):
            zs = [row.z(n, k / n) for n, k in enumerate(s, 1)]
            assert all(z >= peak * (1.0 - _SLACK) for z, peak in zip(zs, itertools.accumulate(zs, max)))

    def test_top_k_matches_minimal_m_oracle(self, sat_table):
        # max_instances=300 reaches the float plateau of Z (n around 255-298),
        # where a walk that stops at the first fall of Z returns other plans.
        rng = random.Random(20261017)
        for _ in range(60):
            catalog = random_catalog(rng, max_gpu=2, max_cpu=2)
            n_sat = {
                (v.name, w.name): n_sat_lookup(sat_table, v, w)
                for v in catalog.gpu_view
                for w in catalog.cpu_view
            }
            req = PlanRequest(
                pw=Decimal(rng.randint(20000, 60000)) / 1000,
                buffer_count=1,
                max_instances=300,
                top_k=rng.randint(1, 3),
            )
            for scaling, plans in (
                (ScalingSource(), recommend(catalog, req, sat=sat_table)),
                (UnitScaling(), plan_noscale(catalog, req, sat=sat_table)),
            ):
                expected = heapq.nsmallest(req.top_k, (
                    (key, (arch, v, n, w, m))
                    for key, (arch, v, n, w, m) in brute_force_candidates(catalog, req, scaling, sat_table)
                    if w is None or m == n // n_sat[v, w] + 1
                ))
                assert [(plan_tuple(p), p.hourly_price, p.score_z) for p in plans] == [
                    (desc, key[1], -key[0]) for key, desc in expected
                ]


def _reference_walk(row, n_top, top_k, scaling):
    """planner._walk as it was before recommend() visited rows best-first."""
    v = row.v
    best = []  # min-heap of the top_k largest Z
    for n in range(n_top, 0, -1):
        z = row.z(n, scaling.factor(v, n))
        if len(best) < top_k:
            heapq.heappush(best, z)
        elif z < best[0] * (1.0 - _SLACK):
            return
        else:
            heapq.heappushpop(best, z)
        yield row.candidate(n, z)


def _reference_recommend(catalog, req, scaling=None, sat=None):
    """recommend() as it was before it visited rows best-first and before
    _rows dropped dominated rows: every affordable row is walked and all the
    candidates are pooled, budgets in the planner's exact context."""
    scaling = scaling or DEFAULT_SCALING
    pw, cap, top_k = req.pw, req.max_instances, req.top_k
    candidates = (
        candidate
        for row in _rows(catalog, dataclasses.replace(req, top_k=MAX_INSTANCES), sat or default_saturation_table())
        if (n_top := row.n_top(pw, cap)) > 0
        for candidate in _reference_walk(row, n_top, top_k, scaling)
    )
    with localcontext(_BUDGET_CONTEXT):  # the candidates are drawn, and their budgets computed, in here
        return [_plan(c) for c in heapq.nsmallest(top_k, candidates, key=itemgetter(0))]


def _outcome(plan, *args):
    """The plans, or the message of the ValueError that refuses them."""
    try:
        return plan(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@st.composite
def _best_first_case(draw):
    """A catalog, a request and a scaling source for recommend().

    GPU prices are powers of two, and most GPUs get eflops of one common
    multiple of their spot price, so several GPUs tie on FLOPP exactly.
    Some carry their own fit, superlinear ones included, and a few overflow
    Z to inf through eflops or through their fit.  CPUs repeat earlier ones
    under another name, or draw prices from four values; some cannot hold
    the checkpoints.  Budgets reach past the float plateau of Z.
    """
    ratio = draw(st.sampled_from([100, 400, 1000]))
    specs = []
    for i in range(draw(st.integers(1, 3))):
        od = Decimal(2) ** draw(st.integers(-3, 2))
        spot = od / 2 ** draw(st.integers(0, 3))
        kind = draw(st.integers(0, 9))
        eflops = 1e306 if kind == 0 else float(draw(st.integers(20, 1200))) if kind == 1 else ratio * float(spot)
        params = None
        fit = draw(st.integers(0, 9))
        if fit <= 2:
            a = draw(st.floats(0.05, 0.4))
            params = LogisticParams(a=a, b=draw(st.floats(0.5, 1 + 1.9 / a)), c=draw(st.floats(1.5, 40)))
        elif fit == 3:
            params = LogisticParams(a=0.1, b=10.0, c=1e308)
        specs.append(InstanceSpec(name=f"g{i}", kind=Kind.GPU, od_price=od, spot_price=spot,
                                  network_bw=draw(st.sampled_from([1.7, 5, 12.5])), eflops=eflops, memory=16,
                                  scaling_params=params))
    cpus = []
    for j in range(draw(st.integers(0, 4))):
        if cpus and draw(st.integers(0, 2)) == 0:
            cpus.append(dataclasses.replace(draw(st.sampled_from(cpus)), name=f"c{j}"))
        else:
            price = Decimal(draw(st.integers(1, 4))) / 20
            cpus.append(InstanceSpec(name=f"c{j}", kind=Kind.CPU, od_price=price, spot_price=price,
                                     network_bw=draw(st.sampled_from([0.3, 1.7, 5, 10, 25])),
                                     memory=draw(st.sampled_from([0.5, 8]))))
    pw = draw(st.one_of(st.integers(1, 600).map(lambda p: Decimal(p) / 10), st.just(Decimal("1e40"))))
    req = PlanRequest(
        pw=pw,
        buffer_count=draw(st.integers(1, 2)),
        max_instances=draw(st.one_of(st.sampled_from([1, 2, 17, 300, 1024, MAX_INSTANCES]), st.integers(1, MAX_INSTANCES))),
        top_k=draw(st.integers(1, 5)),
    )
    return Catalog(tuple(specs + cpus)), req, draw(st.sampled_from([ScalingSource(), UnitScaling()]))


# One GPU with two CPUs, the dearer one listed first: both tiering rows reach
# the cap, where their Z ties, so only the slack in the bound lets the
# cheaper CPU's row be walked after the dearer one's.
_TIED_CPUS = (
    Catalog((gpu("v", od="1", spot="0.5"), cpu("dear", od="0.2"), cpu("cheap", od="0.1"))),
    PlanRequest(pw="1e40", buffer_count=1, max_instances=64, top_k=1),
    ScalingSource(),
)


class TestBestFirst:
    """recommend() visits rows best-first and stops at the first row whose
    bound is below the top_k-th best Z pooled so far."""

    @settings(max_examples=200, deadline=None)
    @example(case=_TIED_CPUS)
    @given(case=_best_first_case())
    def test_equals_walking_every_row(self, sat_table, case):
        catalog, req, scaling = case
        expected = _outcome(_reference_recommend, catalog, req, scaling, sat_table)
        assert _outcome(recommend, catalog, req, scaling, sat_table) == expected

    def test_tied_cpus_plan_the_cheaper_cpu(self, sat_table):
        catalog, req, scaling = _TIED_CPUS
        (plan,) = recommend(catalog, req, scaling, sat_table)
        assert (plan.cpu_instance.name, plan.n_gpu) == ("cheap", 64)

    def test_non_finite_flopp_raises_or_plans_as_before(self, sat_table, non_finite_flopp):
        # The refused instance fails the whole catalog; the others plan as
        # the walk of every row does.
        doc, message = non_finite_flopp
        with pytest.raises(CatalogError, match=re.escape(message)):
            load_catalog(json.dumps(doc))
        refused = message.split("'")[1]
        rest = load_catalog(json.dumps({"instances": [e for e in doc["instances"] if e["name"] != refused]}))
        for pw in ("0.5", "3", "1e40"):
            for cap, top_k in ((1, 1), (16, 3), (1024, 5)):
                req = PlanRequest(pw=pw, max_instances=cap, top_k=top_k)
                expected = _outcome(_reference_recommend, rest, req, None, sat_table)
                assert _outcome(recommend, rest, req, None, sat_table) == expected

    @pytest.mark.parametrize("top_k", [1, 3])
    @pytest.mark.parametrize("catalog, limit", [("simulated_catalog", 80_000), ("aws_catalog", 90_000)])
    def test_k_calls_at_the_cap_are_bounded(self, request, factor_calls, catalog, limit, top_k):
        """Walking every row made 684,760 K(n) calls on the simulated catalog
        and 234,774 on AWS at top_k 1; best-first makes about 68,500 and
        78,300."""
        catalog = request.getfixturevalue(catalog)
        req, plans = PlanRequest(pw="1e40", max_instances=MAX_INSTANCES, top_k=top_k), []
        calls = factor_calls(lambda: plans.extend(recommend(catalog, req)))
        assert len(plans) == top_k
        assert calls <= limit, calls

    def test_k_calls_on_random_requests_are_bounded(self, factor_calls):
        """A walk that stops on the pooled top_k-th best Z, rather than on its
        own row's, makes 5,672 K(n) calls here; the row's own rule made
        6,430."""
        rng = random.Random(20261019)
        cases = [(random_catalog(rng), random_request(rng, max_instances=64)) for _ in range(500)]
        calls = factor_calls(lambda: [recommend(catalog, req) for catalog, req in cases])
        assert calls <= 5_672, calls

    @pytest.mark.parametrize(("cap", "pw", "calls"), [(16, "5", 1_176), (64, "40", 5_120)])
    def test_k_calls_are_at_most_one_per_row_and_count(self, factor_calls, simulated_catalog, sat_table, cap,
                                                       pw, calls):
        """recommend()'s work bound: one K(n) call per (row, n <= n_top) at
        most, whatever top_k is.  At a top_k no row count reaches, every row
        walks every count, so the calls are exactly the sum of n_top over the
        rows and one per plan; at top_k 3 both requests make 60 (90 when _rows
        built the rows that three others dominate)."""
        req, plans = PlanRequest(pw=pw, max_instances=cap, top_k=MAX_INSTANCES), []
        tops = sum(max(0, row.n_top(req.pw, cap)) for row in _rows(simulated_catalog, req, sat_table))
        assert factor_calls(lambda: plans.extend(recommend(simulated_catalog, req))) == tops == len(plans) == calls
        assert factor_calls(recommend, simulated_catalog, dataclasses.replace(req, top_k=3)) == 60

    @pytest.mark.parametrize("top_k", [1, 5])
    @pytest.mark.parametrize("cap", [1024, MAX_INSTANCES])
    def test_plateau_equals_walking_every_row(self, sat_table, cap, top_k):
        # At pw=1e40 every row reaches the cap, far out on the float plateau
        # of Z, where the walks are longest and Z jitters by a few ulps.
        rng = random.Random(20261019)
        for _ in range(3):
            catalog = random_catalog(rng, max_gpu=2, max_cpu=2)
            req = PlanRequest(pw="1e40", buffer_count=1, max_instances=cap, top_k=top_k)
            assert recommend(catalog, req, sat=sat_table) == _reference_recommend(catalog, req, sat=sat_table)
