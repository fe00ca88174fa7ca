"""plan-stream: one client in a closed loop of recommend() calls on live prices.

It stresses the planner and K(n), which do almost nothing in cli-cold.  About
one op in ten is a price update that re-parses a pooled catalog, the write
beside the planner's reads; a per-catalog planner cache would have to pay for
invalidation here instead of hitting a working set that never changes.
"""
from __future__ import annotations

import hashlib
import importlib.util
import json
import random
from decimal import Decimal

from spotplan import (
    PlanRequest,
    bundled_simulated_catalog,
    default_saturation_table,
    load_catalog,
    recommend,
)

import check
import gen
from common import ROOT, Tracer, counting_scaling, median, now, percentile, reference_quartiles, tail
from speed import Sampler

DIGEST_OPS = 1000  # the output digest always covers exactly these ops
ORACLE_SAMPLES = 5  # top-1 compared with the brute-force oracle
ORACLE_MAX_INSTANCES = 16
TRACE_OPS = 1200  # fixed, so the traced counts repeat exactly per seed


def load_oracle():
    """``brute_force_best`` from the repository's test oracle."""
    path = ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("spotplan_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.brute_force_best


def request(op: gen.PlanOp) -> PlanRequest:
    return PlanRequest(
        pw=op.pw,
        ckpt_size=op.ckpt_size,
        buffer_count=op.buffer_count,
        max_instances=op.max_instances,
        top_k=op.top_k,
    )


def check_update(catalog, op: gen.UpdateOp) -> list[str]:
    """The re-parsed catalog carries exactly the prices of the new document."""
    entries = json.loads(op.document, parse_float=Decimal)["instances"]
    want = [(e["name"], e["od_price"], e["spot_price"]) for e in entries]
    got = [(s.name, s.od_price, s.spot_price) for s in catalog.instances]
    return [] if got == want else [f"update of catalog {op.catalog}: prices differ from document"]


def run(seed: int, seconds: float, smoke: bool) -> dict:
    stream = gen.plan_stream(seed, length=200 if smoke else gen.STREAM_LEN)
    ops = stream.ops
    digest_ops = min(DIGEST_OPS, len(ops)) if not smoke else 50
    catalogs = [load_catalog(doc) for doc in stream.pool]
    sat = default_saturation_table()
    oracle = load_oracle()
    small = [
        i
        for i, op in enumerate(ops[:digest_ops])
        if isinstance(op, gen.PlanOp) and op.max_instances == ORACLE_MAX_INSTANCES
    ]
    oracle_ops = set(random.Random(seed).sample(small, min(ORACLE_SAMPLES, len(small))))
    recommend(bundled_simulated_catalog(), PlanRequest(pw="3"))  # warm-up

    timings, problems = [], []  # (start, end, is a plan request) of each timed op
    digest = hashlib.sha256()
    attempted = failed = updates = infeasible = 0
    timed = 0.0
    i = 0
    sampler = Sampler().start()
    while timed < seconds or i < digest_ops:
        op = ops[i % len(ops)]
        measuring = timed < seconds
        attempted += 1
        try:
            t0 = now()
            if isinstance(op, gen.UpdateOp):
                catalogs[op.catalog] = load_catalog(op.document)
            else:
                req = request(op)
                plans = recommend(catalogs[op.catalog], req)
            t1 = now()
            catalog = catalogs[op.catalog]
            if isinstance(op, gen.UpdateOp):
                found = check_update(catalog, op)
                updates += measuring
            else:
                found = check.check_plans(catalog, req, plans, sat)
                if i in oracle_ops:
                    found += check.check_oracle(catalog, req, plans, oracle, sat)
                if i < digest_ops:
                    digest.update(f"{i}:".encode() + "".join(map(check.plan_row, plans)).encode())
                if measuring:
                    infeasible += not plans
        except Exception as exc:  # an op that raises counts as failed; the loop goes on
            found = [f"op {i}: {type(exc).__name__}: {exc}"]
            t1 = now()
        if found:
            failed += 1
            problems += found
        if measuring:
            timed += t1 - t0
            timings.append((t0, t1, isinstance(op, gen.PlanOp)))
        i += 1
    sampler.stop()

    raw = [(t1 - t0) * 1000.0 for t0, t1, is_plan in timings if is_plan]
    latencies = [sampler.nominal(t0, t1) * 1000.0 for t0, t1, is_plan in timings if is_plan]
    nominal = sum(sampler.nominal(t0, t1) for t0, t1, _ in timings)

    p, p_tail = tail(latencies)
    plans_done = len(latencies)
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "e2e": {
            "latency_p50_ms": median(latencies),
            "throughput_per_s": plans_done / nominal,
        },
        "report": {
            "recommend_p50_ms": [median(latencies), "ms", plans_done],
            f"recommend_p{p:g}_ms": [p_tail, "ms", plans_done],
            "plans_per_s": [plans_done / nominal, "1/s", plans_done],
            "raw_recommend_p50_ms": [median(raw), "ms", plans_done],
            "raw_plans_per_s": [plans_done / timed, "1/s", plans_done],
            "price_updates": [updates, "count", updates],
            "infeasible_share": [infeasible / plans_done, "ratio", plans_done],
            **reference_quartiles(sampler),
        },
        "digests": {f"plans[0:{digest_ops}]": digest.hexdigest()},
    }


def trace(seed: int, smoke: bool) -> dict:
    """The first TRACE_OPS ops, each run untraced and then traced.

    Running the two back to back, op by op, keeps the machine's speed
    swings out of the traced-over-untraced ratio.
    """
    stream = gen.plan_stream(seed, length=100 if smoke else TRACE_OPS)
    catalogs = [load_catalog(doc) for doc in stream.pool]
    sat = default_saturation_table()
    sampler = Sampler().start()
    tracer = Tracer(sampler)
    counts = {"per_recommend": [], "plans": 0, "infeasible": 0, "loads": 0}
    problems, pairs, failed = [], [], 0
    for i, op in enumerate(stream.ops):
        tracer.request = i
        if isinstance(op, gen.UpdateOp):
            t0 = now()
            load_catalog(op.document)
            t1 = now()
            with tracer.span("catalog.load"):
                catalogs[op.catalog] = load_catalog(op.document)
            t2 = now()
            counts["loads"] += 1
        else:
            catalog, req = catalogs[op.catalog], request(op)
            t0 = now()
            recommend(catalog, req)
            t1 = now()
            with tracer.span("planner.recommend"):
                plans = recommend(catalog, req)
            t2 = now()
            scaling = counting_scaling()  # the count, outside the timed calls
            recommend(catalog, req, scaling=scaling)
            found = check.check_plans(catalog, req, plans, sat)
            failed += bool(found)
            problems += found
            counts["per_recommend"].append(scaling.calls)
            counts["plans"] += len(plans)
            counts["infeasible"] += not plans
        pairs.append((t0, t1, t2))
    sampler.stop()
    untraced = sum(sampler.nominal(t0, t1) for t0, t1, _ in pairs)
    traced = sum(sampler.nominal(t1, t2) for _, t1, t2 in pairs)
    rec = tracer.durations_ms("planner.recommend")
    # Every candidate the planner scores calls K(n) exactly once.
    scored = sum(counts["per_recommend"])
    return {
        "attempted": len(stream.ops),
        "failed": failed,
        "problems": problems,
        "spans": tracer.records(),
        "pairs": [(v, w) for c in catalogs for v in c.gpu_view for w in c.cpu_view],
        "layers": {
            "catalog.load_ms": median(tracer.durations_ms("catalog.load")),
            "catalog.loads": counts["loads"],
            "scaling.factor_calls": scored,
            "scaling.factor_calls_per_recommend_p50": median(counts["per_recommend"]),
            "planner.recommend_ms_p50": median(rec),
            "planner.recommend_ms_p99": percentile(rec, 99),
            "planner.useful_ratio": counts["plans"] / max(1, scored),
            "planner.infeasible_share": counts["infeasible"] / len(rec),
            "bench.trace_overhead_ratio": traced / untraced,
        },
        "split": {"recommend_share_of_stream": sum(rec) / 1000.0 / traced},
    }
