"""Planning and sweeps do not depend on the caller's decimal context.

Budgets are compared in exact Decimal arithmetic, in one context that the
planner builds itself.  A library caller may run under any context: a low
precision, another rounding mode, or other traps.
"""
import decimal
from decimal import Context, Decimal, localcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spotplan import (
    PlanRequest,
    SweepSpec,
    plan_cost_first,
    plan_noscale,
    plan_performance_first,
    recommend,
    run_sweep,
    sweep_to_csv,
    sweep_to_json,
)

ROUNDINGS = (decimal.ROUND_CEILING, decimal.ROUND_DOWN, decimal.ROUND_FLOOR, decimal.ROUND_HALF_DOWN,
             decimal.ROUND_HALF_EVEN, decimal.ROUND_HALF_UP, decimal.ROUND_UP, decimal.ROUND_05UP)
SIGNALS = (decimal.Clamped, decimal.DivisionByZero, decimal.FloatOperation, decimal.Inexact,
           decimal.InvalidOperation, decimal.Overflow, decimal.Rounded, decimal.Subnormal, decimal.Underflow)

contexts = st.builds(
    lambda prec, rounding, traps: Context(prec=prec, rounding=rounding, traps=list(traps)),
    st.integers(1, 28),
    st.sampled_from(ROUNDINGS),
    st.one_of(st.just(()), st.just(SIGNALS), st.sets(st.sampled_from(SIGNALS))),  # traps off, on, or some
)


def _plans(catalog, pw, top_k):
    """Every policy's plans at one budget, each request built in the current context."""
    req = PlanRequest(pw=pw, top_k=top_k)
    return (recommend(catalog, req), plan_noscale(catalog, req), plan_cost_first(catalog, req),
            plan_performance_first(catalog, req))


def _sweep(catalog, pw_max, pw_step):
    """A sweep's CSV and JSON bytes, its spec built in the current context."""
    result = run_sweep(catalog, SweepSpec(pw_max=pw_max, pw_step=pw_step))
    return sweep_to_csv(result), sweep_to_json(result)


@settings(max_examples=40, deadline=None)
@given(
    context=contexts,
    catalog=st.sampled_from(["simulated_catalog", "aws_catalog"]),
    pw=st.decimals(min_value="0.05", max_value="20", places=4),
    top_k=st.integers(1, 5),
    pw_max=st.decimals(min_value="0.5", max_value="20", places=3),
    points=st.integers(1, 120),
)
def test_the_callers_context_moves_no_plan_and_no_byte(request, context, catalog, pw, top_k, pw_max, points):
    catalog = request.getfixturevalue(catalog)
    pw_step = pw_max / points  # up to 28 digits, in the default context
    expected = _plans(catalog, pw, top_k), _sweep(catalog, pw_max, pw_step)
    with localcontext(context):
        assert (_plans(catalog, pw, top_k), _sweep(catalog, pw_max, pw_step)) == expected


def test_a_low_precision_keeps_the_exact_price(simulated_catalog):
    with localcontext() as context:
        context.prec = 3
        plan = recommend(simulated_catalog, PlanRequest(pw="0.85"))[0]
    assert plan.hourly_price <= Decimal("0.85")
    assert plan.hourly_price == recommend(simulated_catalog, PlanRequest(pw="0.85"))[0].hourly_price


def test_the_grid_limit_names_the_planners_precision():
    with localcontext() as context:
        context.prec = 5
        with pytest.raises(ValueError, match=f"grid has {10**50 + 1} points"):
            SweepSpec(pw_max="1e40", pw_step="1e-10")
