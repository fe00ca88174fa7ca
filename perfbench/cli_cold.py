"""cli-cold: fresh ``python -m spotplan.cli`` processes, one at a time.

It stresses interpreter start, imports, catalog and saturation loading and
the CLI itself; the planner does almost nothing here (``plan`` at pw=3).  A
round runs plan, plan on the AWS catalog as JSON, validate-catalog, fit on
three generated curves, and simulate with its defaults.
"""
from __future__ import annotations

import json

from spotplan import (
    LogisticParams,
    PlanRequest,
    SpeedupSample,
    average_params,
    bundled_aws_catalog,
    bundled_simulated_catalog,
    default_saturation_table,
    fit_logistic,
    recommend,
)
from spotplan.scaling import sum_squared_residuals

import check
import gen
from common import CATALOG_DIR, OUT_DIR, ROOT, median, percentile, probe, spawn_sampled

AWS_PATH = str((CATALOG_DIR / "aws-2023-10.json").relative_to(ROOT))


def commands(fit_paths: list[str], smoke: bool) -> list[tuple[str, list[str]]]:
    """(metric key, argv) of one round, in the order they run; smoke skips simulate."""
    round_cmds = [
        ("plan", ["plan"]),
        ("plan", ["plan", "--catalog", AWS_PATH, "--format", "json"]),
        ("validate", ["validate-catalog"]),
        ("fit", ["fit", *fit_paths, "--average"]),
        ("simulate", ["simulate"]),
    ]
    return round_cmds[:-1] if smoke else round_cmds


def write_fit_inputs(seed: int) -> list[str]:
    work = OUT_DIR / "work" / f"cli-cold-{seed}"
    work.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, text in zip("abc", gen.fit_csvs(seed)):
        path = work / f"{name}.csv"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path.relative_to(ROOT)))
    return paths


def _table_rows(text: str) -> list[tuple]:
    rows = []
    for line in text.splitlines()[1:]:
        cells = line.split()
        cpu, m = (None, None) if cells[4] == "-" else (cells[4], int(cells[5]))
        rows.append((cells[1], cells[2], int(cells[3]), cpu, m))
    return rows


def _tuple(plan) -> tuple:
    cpu = plan.cpu_instance.name if plan.cpu_instance else None
    return (plan.architecture, plan.gpu_instance.name, plan.n_gpu, cpu, plan.m_cpu)


def _fit_problems(out: dict, fit_paths: list[str]) -> list[str]:
    """Each fit explains its curve at least as well as the generating curve can.

    The samples carry at most 2% noise, so the least-squares residual is at
    most the sum of (2% of each sample) squared.
    """
    problems, fitted = [], []
    for entry, path in zip(out.get("fits", []), fit_paths):
        rows = (ROOT / path).read_text(encoding="utf-8").splitlines()[1:]
        samples = [SpeedupSample(int(n), float(s)) for n, s in (r.split(",") for r in rows)]
        params = LogisticParams(entry["a"], entry["b"], entry["c"])
        fitted.append(params)
        bound = sum((0.02 * s.speedup) ** 2 for s in samples)
        if not sum_squared_residuals(params, samples) <= bound:
            problems.append(f"fit {path}: residual above the noise bound")
        if params != fit_logistic(samples):
            problems.append(f"fit {path}: differs from the in-process fit")
    if len(fitted) != len(fit_paths):
        return problems + ["fit: wrong number of per-file fits"]
    avg = average_params(fitted)
    if (out["a"], out["b"], out["c"]) != (avg.a, avg.b, avg.c):
        problems.append("fit: --average is not the mean of the per-file fits")
    return problems


class Expected:
    """Outputs the five commands must print, recomputed in this process."""

    def __init__(self, fit_paths: list[str]):
        sat = default_saturation_table()
        self.fit_paths = fit_paths
        simulated, aws = bundled_simulated_catalog(), bundled_aws_catalog()
        self.plans = {}
        self.problems = []
        for name, catalog in (("simulated", simulated), ("aws", aws)):
            req = PlanRequest(pw="3")
            plans = recommend(catalog, req, sat=sat)
            self.problems += check.check_plans(catalog, req, plans, sat)
            self.plans[name] = plans
        self.validate = (
            f"catalog OK: {len(simulated.instances)} instances "
            f"({len(simulated.gpu_view)} gpu, {len(simulated.cpu_view)} cpu available)\n"
        )

    def problems_for(self, argv: list[str], code: int, stdout: str) -> list[str]:
        if code != 0:
            return [f"{' '.join(argv)}: exit {code}"]
        command = argv[0]
        if command == "plan" and "--format" in argv:
            got = json.loads(stdout)["plans"]
            if got != [p.summary() for p in self.plans["aws"]]:
                return ["plan --format json: plans differ from checked recommend()"]
        elif command == "plan":
            if _table_rows(stdout) != [_tuple(p) for p in self.plans["simulated"]]:
                return ["plan: table rows differ from checked recommend()"]
        elif command == "validate-catalog":
            if stdout != self.validate:
                return [f"validate-catalog printed {stdout!r}"]
        elif command == "fit":
            return _fit_problems(json.loads(stdout), self.fit_paths)
        elif command == "simulate":
            if check.sha256(stdout) != check.PINNED_SWEEP_CSV_SHA256["simulated.json"]:
                return ["simulate: CSV digest differs from the pinned one"]
        return []


def run(seed: int, seconds: float, smoke: bool) -> dict:
    fit_paths = write_fit_inputs(seed)
    expected = Expected(fit_paths)
    round_cmds = commands(fit_paths, smoke)
    walls = {key: [] for key, _ in round_cmds}
    rounds, raw_rounds, problems = [], [], list(expected.problems)
    attempted = failed = 0
    while not raw_rounds or sum(raw_rounds) < seconds:
        raw_total = total = 0.0
        for key, argv in round_cmds:
            raw, nominal, proc = spawn_sampled(["-m", "spotplan.cli", *argv])
            raw_total += raw
            total += nominal
            walls[key].append(nominal * 1000.0)
            attempted += 1
            found = expected.problems_for(argv, proc.returncode, proc.stdout.decode())
            failed += bool(found)
            problems += found
        rounds.append(total)
        raw_rounds.append(raw_total)
    invocations = len(rounds) * len(round_cmds)
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "e2e": {
            "latency_p50_ms": median(rounds) * 1000.0,
            "throughput_per_s": invocations / sum(rounds),
        },
        "report": {
            **{f"cli_{key}_p50_ms": [median(t), "ms", len(t)] for key, t in walls.items()},
            "raw_round_p50_ms": [median(raw_rounds) * 1000.0, "ms", len(raw_rounds)],
        },
        "digests": {"fit_inputs": check.sha256("".join(gen.fit_csvs(seed)))},
    }


def trace(seed: int, smoke: bool) -> dict:
    """One round: each command untraced, then again under probe.py."""
    fit_paths = write_fit_inputs(seed)
    expected = Expected(fit_paths)
    round_cmds = commands(fit_paths, smoke)
    reports, problems = [], list(expected.problems)
    untraced_ms = traced_ms = 0.0
    failed = 0
    for key, argv in round_cmds:
        raw, nominal, proc = spawn_sampled(["-m", "spotplan.cli", *argv])
        found = expected.problems_for(argv, proc.returncode, proc.stdout.decode())
        report = probe("trace", *argv)
        if report["stdout_sha256"] != check.sha256(proc.stdout):
            found.append(f"{' '.join(argv)}: output differs under the probe")
        failed += bool(found)
        problems += found
        report.update(key=key, untraced_ms=nominal * 1000.0, untraced_raw_ms=raw * 1000.0)
        reports.append(report)
        untraced_ms += nominal * 1000.0
        # Spawn to the end of cli.main, the part the untraced run also does.
        raw = report["main_end"] - report["spawned"] - report["main_busy_s"]
        traced_ms += raw * report["main_factor"] * 1000.0

    def of(key=None):
        return [r for r in reports if key is None or r["key"] == key]

    def spans(name, key=None):
        return [s[5] for r in of(key) for s in r["spans"] if s[0] == name]

    plan_rec = spans("planner.recommend", "plan")
    plan_calls = [c for r in of("plan") for c in r["counts"]["recommend_calls"]]
    layers = {
        "catalog.load_ms": median(spans("catalog.load")),
        "catalog.loads": len(spans("catalog.load")),
        "saturation.load_ms": median(spans("saturation.load")),
        "scaling.factor_calls": sum(r["counts"]["factor_calls"] for r in reports),
        "scaling.factor_calls_per_recommend_p50": median(plan_calls),
        "scaling.fit_ms": sum(spans("scaling.fit")),
        "scaling.fit_calls": len(spans("scaling.fit")),
        "planner.recommend_ms_p50": median(plan_rec),
        "planner.recommend_ms_p99": percentile(plan_rec, 99),
        "planner.useful_ratio": sum(r["counts"]["recommend_plans"] for r in of("plan")) / sum(plan_calls),
        "planner.infeasible_share": sum(not r["counts"]["recommend_plans"] for r in of("plan")) / len(plan_rec),
        "cli.self_ms": sum(r["main_ms"] - r["layer_ms"] for r in reports),
        "bench.trace_overhead_ratio": traced_ms / untraced_ms,
    }
    for key in ("plan", "simulate", "fit", "validate"):
        if of(key):
            layers[f"cli.main_{key}_ms"] = median([r["main_ms"] for r in of(key)])
    if of("simulate"):
        run_ms = sum(spans("simulator.run_sweep"))
        policies = {
            name: sum(spans(name, "simulate"))
            for name in ("planner.recommend", "baselines.noscale", "baselines.cost_first", "baselines.performance_first")
        }
        counts = of("simulate")[0]["counts"]
        layers.update(
            {
                "baselines.noscale_ms": policies["baselines.noscale"],
                "baselines.cost_first_ms": policies["baselines.cost_first"],
                "baselines.performance_first_ms": policies["baselines.performance_first"],
                "simulator.run_sweep_ms": run_ms,
                "simulator.policy_evals": counts["policy_evals"],
                "simulator.self_ms": run_ms - sum(policies.values()),
                "simulator.csv_ms": sum(spans("simulator.csv")),
                "simulator.json_ms": sum(spans("simulator.json")),
                "simulator.csv_bytes": counts["csv_bytes"],
            }
        )
    cli_plan_ms = median([r["untraced_ms"] for r in of("plan")])
    # The import metrics are raw (see probe.py), so they are set against raw time.
    cli_plan_raw_ms = median([r["untraced_raw_ms"] for r in of("plan")])
    spans_out = []
    for i, r in enumerate(reports):
        base = len(spans_out)
        for name, start, end, parent, _, ms in r["spans"]:
            spans_out.append([name, start, end, None if parent is None else base + parent, f"{i}:{r['key']}", ms])
    return {
        "attempted": len(reports),
        "failed": failed,
        "problems": problems,
        "spans": spans_out,
        "pairs": [
            (v, w) for c in (bundled_simulated_catalog(), bundled_aws_catalog()) for v in c.gpu_view for w in c.cpu_view
        ],
        "layers": layers,
        "cli_plan_raw_ms": cli_plan_raw_ms,
        "split": {"recommend_share_of_cli_plan": median(plan_rec) / cli_plan_ms},
    }
