"""Acceptance suite.

One test per acceptance criterion; each runs at its stated tolerance,
measures its runtime budget, and prints a single PASS/FAIL line (visible
with ``pytest -s``).
"""
import dataclasses
import math
import random
from decimal import Decimal
from time import perf_counter

from oracles import brute_force_best, plan_tuple, random_catalog, random_request
from spotplan import (
    Catalog,
    DEFAULT_PARAMS,
    InstanceSpec,
    Kind,
    LogisticParams,
    PlanRequest,
    REFERENCE_MODEL_FITS,
    ScalingSource,
    SpeedupSample,
    SweepSpec,
    average_params,
    bundled_aws_catalog,
    estimate_cost,
    evaluate_performance,
    fit_logistic,
    min_cpu_count,
    n_sat_lookup,
    plan_cost_first,
    plan_noscale,
    plan_performance_first,
    recommend,
    run_sweep,
    s_average,
    s_hybrid,
    scaling_factor,
    sweep_to_csv,
)

TABLE_SATURATION = {0.3: 3, 1.7: 12, 5: 16, 10: 20, 12.5: 24, 15: 24, 25: 28, 30: 32}


def _finish(num: int, name: str, elapsed: float, budget: float, failures: list):
    ok = not failures and elapsed < budget
    print(f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'} "
          f"in {elapsed:.2f}s (budget {budget:g}s)")
    assert not failures, f"criterion {num} failed: {failures[:5]}"
    assert elapsed < budget, f"criterion {num} runtime {elapsed:.2f}s exceeds {budget:g}s"


def _mk(name, kind, bw):
    return InstanceSpec(
        name=name, kind=kind, od_price="1", spot_price="0.5", network_bw=bw,
        eflops=100 if kind is Kind.GPU else 0, memory=16,
    )


def test_criterion_1_saturation_table_fidelity(sat_table):
    start = perf_counter()
    failures = []
    for bw, expected in TABLE_SATURATION.items():
        got = n_sat_lookup(sat_table, _mk("v", Kind.GPU, bw), _mk("w", Kind.CPU, bw))
        if got != expected:
            failures.append(f"bandwidth {bw}: expected {expected}, got {got}")
    _finish(1, "saturation table fidelity", perf_counter() - start, 1.0, failures)


def test_criterion_2_tiering_sizing_example(sat_table):
    start = perf_counter()
    failures = []
    v = _mk("sender", Kind.GPU, 25)
    w = _mk("receiver", Kind.CPU, 1.7)
    n_sat = n_sat_lookup(sat_table, v, w)
    m = min_cpu_count(32, n_sat)
    if m != 3:
        failures.append(f"expected m=3 for 32 senders over 1.7 Gbps, got {m}")
    _finish(2, "tiering sizing example", perf_counter() - start, 1.0, failures)


def test_criterion_3_reference_regression_parameters():
    start = perf_counter()
    failures = []

    mean = average_params(list(REFERENCE_MODEL_FITS.values()))
    for label, got, expected in (
        ("a", mean.a, DEFAULT_PARAMS.a),
        ("b", mean.b, DEFAULT_PARAMS.b),
        ("c", mean.c, DEFAULT_PARAMS.c),
    ):
        rel = abs(got - expected) / expected
        if rel > 5e-4:
            failures.append(f"average {label}: {got} vs {expected} (rel {rel:.2e})")

    ns = (1, 2, 4, 8, 12, 16, 20, 24, 28, 32)
    for model_name, truth in REFERENCE_MODEL_FITS.items():
        samples = [
            SpeedupSample(n, truth.c / (1 + math.exp(-truth.a * (n - truth.b))))
            for n in ns
        ]
        fit = fit_logistic(samples)
        for label, got, expected in (("a", fit.a, truth.a), ("b", fit.b, truth.b),
                                     ("c", fit.c, truth.c)):
            rel = abs(got - expected) / expected
            if rel > 1e-4:
                failures.append(f"{model_name} {label}: rel error {rel:.2e}")

    _finish(3, "reference regression parameters", perf_counter() - start, 10.0, failures)


def test_criterion_4_scaling_model_analytics():
    start = perf_counter()
    failures = []
    model = DEFAULT_PARAMS
    b = DEFAULT_PARAMS.b
    gap = abs(s_hybrid(model, b) - s_average(model, b))
    if not gap < 1e-12:
        failures.append(f"tangent/logistic gap at inflection: {gap}")
    for n in range(1, 257):
        k = scaling_factor(model, n)
        if not 0.0 < k < 1.0:
            failures.append(f"K({n}) = {k} outside (0, 1)")
    _finish(4, "scaling model analytics", perf_counter() - start, 1.0, failures)


def test_criterion_5_oracle_equivalence():
    start = perf_counter()
    failures = []
    rng = random.Random(987654321)
    for trial in range(100):
        catalog = random_catalog(rng, max_gpu=5, max_cpu=5)
        req = random_request(rng, max_instances=64)
        scaling = ScalingSource()
        plans = recommend(catalog, req, scaling)
        expected = brute_force_best(catalog, req, scaling)
        if expected is None:
            if plans:
                failures.append(f"trial {trial}: planner found {plan_tuple(plans[0])}, "
                                f"oracle found nothing")
            continue
        if not plans:
            failures.append(f"trial {trial}: planner empty, oracle {expected['config']}")
            continue
        top = plans[0]
        rel = abs(top.score_z - expected["z"]) / max(abs(expected["z"]), 1e-300)
        if rel > 1e-9:
            failures.append(f"trial {trial}: Z {top.score_z} vs {expected['z']}")
        if plan_tuple(top) != expected["config"]:
            failures.append(f"trial {trial}: tie-break mismatch "
                            f"{plan_tuple(top)} vs {expected['config']}")
    _finish(5, "brute-force oracle equivalence", perf_counter() - start, 60.0, failures)


def test_criterion_6_sweep_curves(simulated_catalog):
    start = perf_counter()
    failures = []
    result = run_sweep(simulated_catalog, SweepSpec())
    planner = [p.raw for p in result.curve("planner")]
    grid = [float(pw) for pw in result.grid]

    # (a) the full planner dominates every baseline at every grid point
    for policy in ("noscale", "cost_first", "performance_first"):
        other = [p.raw for p in result.curve(policy)]
        for i, (a, b) in enumerate(zip(planner, other)):
            if a < b:
                failures.append(f"(a) {policy} above planner at pw={grid[i]}")

    # (b) non-decreasing, stepwise
    if not all(b >= a for a, b in zip(planner, planner[1:])):
        failures.append("(b) planner curve decreases somewhere")
    if not any(a == b for a, b in zip(planner, planner[1:])):
        failures.append("(b) planner curve has no constant interval")

    # (c) performance-first strictly below cost-first somewhere near pw=1.6
    pf = [p.raw for p in result.curve("performance_first")]
    cf = [p.raw for p in result.curve("cost_first")]
    near = [i for i, pw in enumerate(grid) if 1.4 <= pw <= 1.8]
    if not any(pf[i] < cf[i] for i in near):
        failures.append("(c) performance-first never below cost-first near pw=1.6 "
                        "(interpretation-dependent check)")

    _finish(6, "sweep curve reproduction", perf_counter() - start, 120.0, failures)


def test_criterion_7_structural_ranking_reproduction():
    start = perf_counter()
    failures = []

    # Experiment-era pricing: 16 spot nodes of the g4dn class cost 2.5248,
    # so one node costs exactly 0.1578.
    base = bundled_aws_catalog()
    specs = tuple(
        dataclasses.replace(s, spot_price=Decimal("0.1578"))
        if s.name == "g4dn.xlarge" else s
        for s in base.instances
    )
    catalog = Catalog(specs)
    req = PlanRequest(pw="3", ckpt_size=0.3, buffer_count=2, max_instances=256, top_k=3)

    plans = recommend(catalog, req)
    top = plans[0]
    if top.architecture != "tiering":
        failures.append(f"top plan is {top.architecture}, expected tiering")
    if top.gpu_instance.name != "g4dn.xlarge":
        failures.append(f"top plan uses {top.gpu_instance.name}, expected g4dn.xlarge")
    if top.m_cpu != 1:
        failures.append(f"top plan has {top.m_cpu} cpu nodes, expected exactly 1")

    noscale = plan_noscale(catalog, req)[0]
    if plan_tuple(noscale) != plan_tuple(top):
        failures.append(f"noscale config {plan_tuple(noscale)} differs from top "
                        f"{plan_tuple(top)}")

    cost_first = plan_cost_first(catalog, req)
    perf_first = plan_performance_first(catalog, req)

    def perf_per_cost(plan):
        return evaluate_performance(plan) / float(plan.hourly_price)

    for label, plan in (("cost_first", cost_first), ("performance_first", perf_first)):
        if not perf_per_cost(plan) < perf_per_cost(top):
            failures.append(f"{label} performance per cost not strictly below top")

    total_ops = 1e9
    cost_top = estimate_cost(top, total_ops)[1]
    cost_noscale = estimate_cost(noscale, total_ops)[1]
    cost_cf = estimate_cost(cost_first, total_ops)[1]
    cost_pf = estimate_cost(perf_first, total_ops)[1]
    if not (cost_top == cost_noscale < cost_cf < cost_pf):
        failures.append(f"total cost ordering violated: top={cost_top}, "
                        f"noscale={cost_noscale}, cost_first={cost_cf}, "
                        f"performance_first={cost_pf}")

    _finish(7, "structural ranking reproduction", perf_counter() - start, 60.0, failures)


def test_criterion_8_property_suite(simulated_catalog):
    start = perf_counter()
    failures = []

    # Budget feasibility over at least 1000 plans from randomized scenarios.
    rng = random.Random(13579)
    checked = 0
    while checked < 1000:
        catalog = random_catalog(rng)
        req = random_request(rng)
        plans = list(recommend(catalog, req))
        for extra in (plan_cost_first(catalog, req), plan_performance_first(catalog, req)):
            if extra is not None:
                plans.append(extra)
        plans.extend(plan_noscale(catalog, req))
        for plan in plans:
            checked += 1
            if plan.hourly_price > req.pw:
                failures.append(f"budget violated: {plan.hourly_price} > {req.pw} "
                                f"for {plan_tuple(plan)}")

    # Price-scale argmax invariance.
    for pw in ("1.3", "3", "7.7"):
        req = PlanRequest(pw=pw)
        base = plan_tuple(recommend(simulated_catalog, req)[0])
        for lam in (Decimal("0.5"), Decimal("2"), Decimal("10")):
            scaled = Catalog(tuple(
                dataclasses.replace(
                    s, od_price=s.od_price * lam, spot_price=s.spot_price * lam
                )
                for s in simulated_catalog.instances
            ))
            got = plan_tuple(recommend(scaled, PlanRequest(pw=Decimal(pw) * lam))[0])
            if got != base:
                failures.append(f"scale invariance broken at pw={pw}, lambda={lam}: "
                                f"{got} vs {base}")

    # Monotonicity of the top plan's Z in PW.
    previous = 0.0
    for i in range(1, 41):
        pw = Decimal(i) / 4
        plans = recommend(simulated_catalog, PlanRequest(pw=pw))
        z = plans[0].score_z if plans else 0.0
        if z < previous:
            failures.append(f"top Z decreased at pw={pw}: {z} < {previous}")
        previous = z

    # Sweep determinism: two runs must be bit-identical.
    spec = SweepSpec(pw_max="6", pw_step="0.2")
    first = run_sweep(simulated_catalog, spec)
    second = run_sweep(simulated_catalog, spec)
    if sweep_to_csv(first) != sweep_to_csv(second):
        failures.append("a second sweep differs from the first")
    if first.normalizer != second.normalizer:
        failures.append("a second sweep's normalizer differs")
    for policy in spec.policies:
        for a, b in zip(first.curve(policy), second.curve(policy)):
            if a.raw != b.raw or a.normalized != b.normalized:
                failures.append(f"a second sweep's point differs at pw={a.pw} ({policy})")

    _finish(8, "property suite", perf_counter() - start, 120.0, failures)
