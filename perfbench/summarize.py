"""Summarize benchmark result files: median, quartiles and spread per metric.

    python3 perfbench/summarize.py [results_dir] [--json]

Reads the ``<workload>-seed<n>-trace<t>.json`` records that run.py writes
(default ``.perfbench_out/results``) and prints, per workload and metric,
the median, the quartiles and the spread (quartile distance over median),
as a table or, with ``--json``, as one JSON object.
"""
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(results_dir: Path) -> dict:
    groups: dict = {}
    machine = None
    for path in sorted(results_dir.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if record.get("smoke"):
            continue
        machine = record["machine"]
        group = groups.setdefault(f"{record['workload']} trace={record['trace']}", {})
        for name, metric in record["metrics"].items():
            entry = group.setdefault(name, {"unit": metric["unit"], "values": [], "seeds": []})
            entry["values"].append(metric["value"])
            entry["seeds"].append(record["seed"])
    summary = {}
    for group, metrics in sorted(groups.items()):
        summary[group] = {}
        for name, entry in metrics.items():
            values = entry["values"]
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
            summary[group][name] = {
                "unit": entry["unit"],
                "n": len(values),
                "median": med,
                "q1": q[0],
                "q3": q[2],
                "spread": (q[2] - q[0]) / med if med else 0.0,
                "seeds": sorted(set(entry["seeds"])),
            }
    return {"machine": machine, "groups": summary}


def main(argv):
    as_json = "--json" in argv
    args = [a for a in argv if a != "--json"]
    results_dir = Path(args[0]) if args else ROOT / ".perfbench_out" / "results"
    summary = summarize(results_dir)
    if as_json:
        print(json.dumps(summary, indent=2))
        return 0
    print(json.dumps(summary["machine"]))
    for group, metrics in summary["groups"].items():
        print(f"\n{group}")
        for name, s in metrics.items():
            print(
                f"  {name:42} {s['median']:14.6g} {s['unit']:6} "
                f"q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} spread {s['spread']:.3f} n={s['n']}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
