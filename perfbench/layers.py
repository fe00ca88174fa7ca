"""Traced calls into the package's layers, shared by the workloads and probe.py.

A layer is one module of the package.  Its time is measured from outside:
a span around the benchmark's own call into that module's public function.
"""
from __future__ import annotations

import hashlib

from spotplan import (
    ScalingSource,
    default_saturation_table,
    n_sat_lookup,
    plan_cost_first,
    plan_noscale,
    plan_performance_first,
    recommend,
    run_sweep,
    sweep_to_csv,
    sweep_to_json,
)

from common import counting_scaling, median, now
from speed import Sampler

# Span name for each sweep policy's public entry point.
POLICY_SPANS = {
    "planner": "planner.recommend",
    "noscale": "baselines.noscale",
    "cost_first": "baselines.cost_first",
    "performance_first": "baselines.performance_first",
}


def call_policy(policy, catalog, req, scaling, sat):
    if policy == "planner":
        return recommend(catalog, req, scaling=scaling, sat=sat)
    if policy == "noscale":
        return plan_noscale(catalog, req, sat=sat)
    if policy == "cost_first":
        return plan_cost_first(catalog, req, scaling)
    return plan_performance_first(catalog, req, scaling)


def traced_sweep(tracer, catalog, spec, sat) -> dict:
    """run_sweep in a span, then its policy calls replayed, one span each.

    The replay calls each policy's public function once per grid point, as
    run_sweep does (a zero ceiling is answered by run_sweep without a call).
    Spans time the same calls the workload makes; the K(n) counts come from
    repeating the calls with a counting ScalingSource outside any span.
    """
    with tracer.span("simulator.run_sweep"):
        result = run_sweep(catalog, spec, sat=sat)
    counter = counting_scaling()
    run_sweep(catalog, spec, scaling=counter, sat=sat)
    counts = {
        "factor_calls": counter.calls,
        "policy_evals": 0,
        "recommend_calls": [],
        "recommend_plans": 0,
        "recommend_infeasible": 0,
    }
    scaling = ScalingSource()
    replayed = []
    with tracer.span("simulator.replay"):
        for pw in spec.grid():
            if pw <= 0:
                continue
            req = spec.request_at(pw)
            for policy in spec.policies:
                with tracer.span(POLICY_SPANS[policy]):
                    out = call_policy(policy, catalog, req, scaling, sat)
                counts["policy_evals"] += 1
                if policy == "planner":
                    replayed.append((req, out))
    for req, out in replayed:
        counter = counting_scaling()
        recommend(catalog, req, scaling=counter, sat=sat)
        counts["recommend_calls"].append(counter.calls)
        counts["recommend_plans"] += len(out)
        counts["recommend_infeasible"] += not out
    with tracer.span("simulator.csv"):
        csv_text = sweep_to_csv(result)
    with tracer.span("simulator.json"):
        sweep_to_json(result)
    counts["csv_bytes"] = len(csv_text.encode())
    counts["csv_sha256"] = hashlib.sha256(csv_text.encode()).hexdigest()
    return counts


def saturation_layer(pairs, loads: int = 20, lookups: int = 20000) -> dict:
    """Median ms per table load, and mean us per n_sat_lookup over ``pairs``."""
    times = []
    with Sampler() as sampler:
        for _ in range(loads):
            t0 = now()
            sat = default_saturation_table()
            times.append((t0, now()))
        reps = max(1, lookups // len(pairs))
        t0 = now()
        for _ in range(reps):
            for v, w in pairs:
                n_sat_lookup(sat, v, w)
        t1 = now()
    return {
        "saturation.load_ms": median([sampler.nominal(a, b) * 1000.0 for a, b in times]),
        "saturation.lookup_us": sampler.nominal(t0, t1) * 1e6 / (reps * len(pairs)),
    }
