"""sweep: run_sweep over the 101-point default grid, one catalog at a time.

It stresses the simulator and the baselines, and reuses one catalog across
budgets that rise step by step, the structure a one-pass sweep exploits;
plan-stream has neither property.  A round sweeps the two bundled catalogs
and one seeded re-pricing of the simulated market, then serializes each
result to CSV and JSON.
"""
from __future__ import annotations

import json

from spotplan import (
    SweepSpec,
    default_saturation_table,
    load_catalog,
    run_sweep,
    sweep_to_csv,
    sweep_to_json,
)

import check
import gen
from common import CATALOG_DIR, Tracer, median, now, percentile, reference_quartiles
from speed import Sampler
from layers import traced_sweep

BUNDLED = ("simulated.json", "aws-2023-10.json")
GENERATED = "generated"


def documents(seed: int, smoke: bool) -> dict[str, str]:
    """The catalog documents of one round; a smoke round sweeps only the AWS one."""
    docs = {name: (CATALOG_DIR / name).read_text(encoding="utf-8") for name in BUNDLED}
    if smoke:
        return {"aws-2023-10.json": docs["aws-2023-10.json"]}
    docs[GENERATED] = gen.sweep_catalog(seed, docs["simulated.json"])
    return docs


def check_sweep(name, catalog, spec, result, csv_text, json_text, sat) -> list[str]:
    problems = []
    pinned = check.PINNED_SWEEP_CSV_SHA256.get(name)
    if pinned is not None and check.sha256(csv_text) != pinned:
        problems.append(f"{name}: sweep CSV digest differs from the pinned one")
    if len(json.loads(json_text)["rows"]) != len(spec.grid()) * len(spec.policies):
        problems.append(f"{name}: sweep JSON row count")
    for policy, points in result.curves.items():
        for point in points:
            if point.plan is not None:
                req = spec.request_at(point.pw)
                found = check.check_plan(catalog, req, point.plan, sat, policy == "noscale")
                problems += [f"{name} {policy} pw={point.pw}: {p}" for p in found]
    return problems


def _sweep_once(doc, spec):
    catalog = load_catalog(doc)
    result = run_sweep(catalog, spec)
    return catalog, result, sweep_to_csv(result), sweep_to_json(result)


def run(seed: int, seconds: float, smoke: bool) -> dict:
    docs = documents(seed, smoke)
    spec = SweepSpec()
    sat = default_saturation_table()
    rounds, raw_rounds, per_catalog, problems = [], [], {name: [] for name in docs}, []
    first: dict[str, tuple[str, str]] = {}
    attempted = failed = 0
    _sweep_once(docs[next(iter(docs))], spec)  # warm-up: lazy loads happen once per process
    sampler = Sampler("candidate_search").start()
    while not raw_rounds or sum(raw_rounds) < seconds:
        outputs, timings = {}, []
        for name, doc in docs.items():
            t0 = now()
            outputs[name] = _sweep_once(doc, spec)
            timings.append((name, t0, now()))
        raw_rounds.append(sum(t1 - t0 for _, t0, t1 in timings))
        rounds.append(0.0)
        for name, t0, t1 in timings:
            nominal = sampler.nominal(t0, t1)
            per_catalog[name].append(nominal)
            rounds[-1] += nominal
        for name, (catalog, result, csv_text, json_text) in outputs.items():
            attempted += 1
            if name not in first:
                found = check_sweep(name, catalog, spec, result, csv_text, json_text, sat)
                first[name] = (csv_text, json_text)
            else:
                found = [] if first[name] == (csv_text, json_text) else [f"{name}: output changed between rounds"]
            failed += bool(found)
            problems += found
    sampler.stop()
    sweeps = len(rounds) * len(docs)
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "e2e": {
            "latency_p50_ms": median(rounds) * 1000.0,
            "throughput_per_s": sweeps / sum(rounds),
        },
        "report": {
            "sweep_p50_s": [median(rounds), "s", len(rounds)],
            "raw_sweep_p50_s": [median(raw_rounds), "s", len(rounds)],
            **reference_quartiles(sampler),
            **{f"sweep_{name}_p50_s": [median(t), "s", len(t)] for name, t in per_catalog.items()},
        },
        "digests": {f"csv[{name}]": check.sha256(csv) for name, (csv, _) in first.items()},
    }


def trace(seed: int, smoke: bool) -> dict:
    docs = documents(seed, smoke)
    spec = SweepSpec()
    sat = default_saturation_table()
    sampler = Sampler("candidate_search").start()
    tracer = Tracer(sampler)
    catalogs, untraced, totals = [], 0.0, {"factor_calls": 0, "policy_evals": 0, "csv_bytes": 0}
    rec_calls, plans, infeasible, problems = [], 0, 0, []
    for name, doc in docs.items():
        tracer.request = name
        with tracer.span("catalog.load"):
            catalog = load_catalog(doc)
        catalogs.append(catalog)
        t0 = now()
        run_sweep(catalog, spec, sat=sat)
        untraced += sampler.nominal(t0, now())
        counts = traced_sweep(tracer, catalog, spec, sat)
        pinned = check.PINNED_SWEEP_CSV_SHA256.get(name)
        if pinned is not None and counts["csv_sha256"] != pinned:
            problems.append(f"{name}: traced sweep CSV digest differs from the pinned one")
        for key in totals:
            totals[key] += counts[key]
        rec_calls += counts["recommend_calls"]
        plans += counts["recommend_plans"]
        infeasible += counts["recommend_infeasible"]
    sampler.stop()

    run_ms = tracer.total_ms("simulator.run_sweep")
    rec = tracer.durations_ms("planner.recommend")
    policy_ms = {span: tracer.total_ms(span) for span in (
        "planner.recommend", "baselines.noscale", "baselines.cost_first", "baselines.performance_first")}
    replay_ms = sum(policy_ms.values())
    return {
        "attempted": len(docs),
        "failed": len(problems),
        "problems": problems,
        "spans": tracer.records(),
        "pairs": [(v, w) for c in catalogs for v in c.gpu_view for w in c.cpu_view],
        "layers": {
            "catalog.load_ms": median(tracer.durations_ms("catalog.load")),
            "catalog.loads": len(docs),
            "scaling.factor_calls": totals["factor_calls"],
            "scaling.factor_calls_per_recommend_p50": median(rec_calls),
            "planner.recommend_ms_p50": median(rec),
            "planner.recommend_ms_p99": percentile(rec, 99),
            "planner.useful_ratio": plans / max(1, sum(rec_calls)),
            "planner.infeasible_share": infeasible / len(rec),
            "baselines.noscale_ms": policy_ms["baselines.noscale"],
            "baselines.cost_first_ms": policy_ms["baselines.cost_first"],
            "baselines.performance_first_ms": policy_ms["baselines.performance_first"],
            "simulator.run_sweep_ms": run_ms,
            "simulator.policy_evals": totals["policy_evals"],
            "simulator.self_ms": run_ms - replay_ms,
            "simulator.csv_ms": tracer.total_ms("simulator.csv"),
            "simulator.json_ms": tracer.total_ms("simulator.json"),
            "simulator.csv_bytes": totals["csv_bytes"],
            "bench.trace_overhead_ratio": run_ms / 1000.0 / untraced,
        },
        "split": {
            "recommend_plus_noscale_share_of_sweep": (
                policy_ms["planner.recommend"] + policy_ms["baselines.noscale"]
            ) / run_ms,
            "replay_over_run_sweep": replay_ms / run_ms,
        },
    }
