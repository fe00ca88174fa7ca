"""spotplan benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload plan-stream --seed 1 --seconds 20 --trace 0

Run from the repository root; it needs ``src/spotplan`` and ``BENCHMARK.json``
beside ``perfbench/`` and exits 2 without a result when they are missing.

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds with
tracing off.  ``--trace 1`` is a separate run over a fixed amount of work
that reports the per-layer metrics.  ``--smoke`` shrinks every run to a few
seconds.  The last line of stdout is the JSON result; the line before it is
the full report (named metrics, sample counts, digests, machine), also
written under ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import json
import sys

import common
from common import ROOT
WORKLOADS = ("plan-stream", "sweep", "cli-cold")
SETUP_REPS = 11
IMPORT_REPS = 5
# The layer split each workload is predicted to show, as (ratio, test, limit).
PREDICTIONS = {
    "recommend_share_of_stream": (">=", 0.8),
    "recommend_plus_noscale_share_of_sweep": (">=", 0.9),
    "start_and_import_share_of_cli_plan": (">=", 0.5),
    "recommend_share_of_cli_plan": ("<", 0.05),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; finishes in seconds")
    return parser.parse_args(argv)


def _verdict(name: str, value: float) -> dict:
    entry = {"value": value}
    if name in PREDICTIONS:
        op, limit = PREDICTIONS[name]
        entry.update(predicted=f"{op} {limit}", holds=value >= limit if op == ">=" else value < limit)
    return entry


def timed_run(module, args) -> tuple[dict, dict]:
    reps = 1 if args.smoke else SETUP_REPS
    code = common.CLI_IMPORT_CODE if args.workload == "cli-cold" else common.READY_CODE
    raw_setup_s, setup_s = common.setup_seconds(code, reps)
    result = module.run(args.seed, args.seconds, args.smoke)
    result["report"]["raw_setup_s"] = [raw_setup_s, "s", reps]
    metrics = {
        "setup_s": setup_s,
        **result["e2e"],
        "peak_rss_mib": common.peak_rss_mib(children=args.workload == "cli-cold"),
    }
    return result, metrics


def traced_run(module, args, per_layer) -> tuple[dict, dict]:
    from layers import saturation_layer

    reps = 1 if args.smoke else IMPORT_REPS
    probes = [common.probe("import") for _ in range(reps)]
    imports = {
        "import.spotplan_cli_ms": common.median([p["import_ms"] for p in probes]),
        "import.modules_loaded": probes[0]["modules_loaded"],
        "import.numpy_loaded": probes[0]["numpy_loaded"],
        "import.python_bare_ms": common.median(
            [common.spawn(["-c", "pass"])[0] * 1000.0 for _ in range(reps)]
        ),
    }
    result = module.trace(args.seed, args.smoke)
    # A layer the workload never calls did no work: 0.
    metrics = dict.fromkeys(per_layer, 0)
    metrics.update(imports)
    metrics.update(saturation_layer(result["pairs"]))
    metrics.update(result["layers"])
    split = dict(result["split"])
    if "cli_plan_raw_ms" in result:
        split["start_and_import_share_of_cli_plan"] = (
            imports["import.python_bare_ms"] + imports["import.spotplan_cli_ms"]
        ) / result["cli_plan_raw_ms"]
    result["split"] = {name: _verdict(name, value) for name, value in split.items()}
    return result, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.smoke:
        args.seconds = min(args.seconds, 1.0)
    if not (ROOT / "src" / "spotplan" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print("error: run from a spotplan checkout (src/spotplan and BENCHMARK.json)", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))

    import cli_cold
    import plan_stream
    import sweep

    module = {"plan-stream": plan_stream, "sweep": sweep, "cli-cold": cli_cold}[args.workload]
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if args.trace:
        result, values = traced_run(module, args, units)
    else:
        result, values = timed_run(module, args)
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")

    problems = result["problems"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "machine": common.machine(),
        "source_sha256": common.source_digest(),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "report": {
            name: {"value": v, "unit": u, "samples": n} for name, (v, u, n) in result.get("report", {}).items()
        },
        "split": result.get("split", {}),
        "digests": result.get("digests", {}),
        "problems": problems[:50],
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = common.OUT_DIR / "results" / f"{tag}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if args.trace:
        common.write_spans(result["spans"], common.OUT_DIR / "spans" / f"{tag}.jsonl")
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    print(json.dumps(record, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0 and not problems,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
