"""Command-line interface: plan, simulate, fit, validate-catalog.

Each command imports the package modules it runs inside its own function, so
one CLI process loads and compiles no more of the package than it needs.
"""
import argparse
import os
import sys

__all__ = ["main"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2

CATALOG_ENV = "SPOTPLAN_CATALOG"


class _Parser(argparse.ArgumentParser):
    # Usage errors must exit 1, not argparse's default 2 (2 means infeasible).
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="spotplan",
        description="Plan cost-optimal Spot/On-Demand training clusters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_catalog_flags(p):
        p.add_argument("--catalog", help=f"catalog JSON path (default: ${CATALOG_ENV} or bundled)")
        p.add_argument("--saturation", help="network saturation table JSON path")

    def add_output_flags(p, formats, default):
        p.add_argument("--format", choices=formats, default=default)
        p.add_argument("--out", help="output path (default: stdout)")

    p_plan = sub.add_parser("plan", help="recommend cluster configurations")
    add_catalog_flags(p_plan)
    p_plan.add_argument("--pw", default="3", help="hourly price ceiling (default 3)")
    p_plan.add_argument("--ckpt-size-gib", type=float, default=0.5)
    p_plan.add_argument("--buffer-count", type=int, default=2)
    p_plan.add_argument("--max-limit", type=int, default=256)
    p_plan.add_argument("--top-k", type=int, default=3)
    add_output_flags(p_plan, ("table", "json", "csv"), "table")
    p_plan.set_defaults(func=cmd_plan)

    p_sim = sub.add_parser("simulate", help="sweep the price ceiling over a grid")
    add_catalog_flags(p_sim)
    p_sim.add_argument("--pw-min", default="0")
    p_sim.add_argument("--pw-max", default="10")
    p_sim.add_argument("--pw-step", default="0.1")
    p_sim.add_argument("--ckpt-size-gib", type=float, default=0.5)
    p_sim.add_argument("--buffer-count", type=int, default=2)
    p_sim.add_argument("--max-limit", type=int, default=256)
    add_output_flags(p_sim, ("csv", "json", "table"), "csv")
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit logistic speedup parameters from CSV samples")
    p_fit.add_argument("inputs", nargs="+", help="CSV files with header n,speedup")
    p_fit.add_argument("--average", action="store_true", help="average the fits of all inputs")
    add_output_flags(p_fit, ("json", "table"), "json")
    p_fit.set_defaults(func=cmd_fit)

    p_val = sub.add_parser("validate-catalog", help="parse and validate a catalog file")
    p_val.add_argument("path", nargs="?", help="catalog JSON path")
    p_val.set_defaults(func=cmd_validate)

    return parser


def _resolve_catalog(path):
    from .catalog import bundled_simulated_catalog, load_catalog_file

    path = path or os.environ.get(CATALOG_ENV)
    if path:
        return load_catalog_file(path)
    return bundled_simulated_catalog()


def _resolve_saturation(path):
    from .saturation import load_saturation_file

    return load_saturation_file(path) if path else None


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def cmd_plan(args) -> int:
    from .planner import PlanRequest, recommend

    catalog = _resolve_catalog(args.catalog)
    sat = _resolve_saturation(args.saturation)
    req = PlanRequest(
        pw=args.pw,
        ckpt_size=args.ckpt_size_gib,
        buffer_count=args.buffer_count,
        max_instances=args.max_limit,
        top_k=args.top_k,
    )
    plans = recommend(catalog, req, sat=sat)
    if not plans:
        print("no feasible configuration", file=sys.stderr)
        return EXIT_INFEASIBLE

    if args.format == "json":
        import json

        text = json.dumps({"plans": [p.summary() for p in plans]}, indent=2) + "\n"
    elif args.format == "csv":
        import csv
        import io

        buf = io.StringIO()
        cols = ["rank", "architecture", "gpu", "gpu_count", "cpu", "cpu_count", "hourly_price", "score_z"]
        writer = csv.DictWriter(buf, fieldnames=cols, lineterminator="\n")
        writer.writeheader()
        writer.writerows({"rank": rank, **p.summary()} for rank, p in enumerate(plans, 1))  # None -> ""
        text = buf.getvalue()
    else:
        lines = [
            f"{'#':>2}  {'architecture':<14} {'gpu':<14} {'n':>4}  {'cpu':<14} {'m':>4}  "
            f"{'price/h':>10}  {'score_z':>12}"
        ]
        for rank, p in enumerate(plans, 1):
            cpu = p.cpu_instance.name if p.cpu_instance else "-"
            m = p.m_cpu if p.m_cpu is not None else "-"
            lines.append(
                f"{rank:>2}  {p.architecture:<14} {p.gpu_instance.name:<14} {p.n_gpu:>4}  "
                f"{cpu:<14} {m:>4}  {_fmt(float(p.hourly_price)):>10}  {_fmt(p.score_z):>12}"
            )
        text = "\n".join(lines) + "\n"
    _write(text, args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    from .simulator import SweepSpec, run_sweep, sweep_rows, sweep_to_csv, sweep_to_json

    catalog = _resolve_catalog(args.catalog)
    sat = _resolve_saturation(args.saturation)
    spec = SweepSpec(
        pw_min=args.pw_min,
        pw_max=args.pw_max,
        pw_step=args.pw_step,
        ckpt_size=args.ckpt_size_gib,
        buffer_count=args.buffer_count,
        max_instances=args.max_limit,
    )
    result = run_sweep(catalog, spec, sat=sat)
    if args.format == "json":
        text = sweep_to_json(result) + "\n"
    elif args.format == "table":
        lines = [f"{'pw':>8}  {'policy':<18} {'raw':>12}  {'normalized':>10}  plan"]
        for row in sweep_rows(result):
            plan = "-"
            if row["gpu"]:
                plan = f"{row['architecture']} {row['gpu']}x{row['gpu_count']}"
                if row["cpu"]:
                    plan += f" + {row['cpu']}x{row['cpu_count']}"
            lines.append(
                f"{_fmt(row['pw']):>8}  {row['policy']:<18} {_fmt(row['raw']):>12}  "
                f"{_fmt(row['normalized']):>10}  {plan}"
            )
        text = "\n".join(lines) + "\n"
    else:
        text = sweep_to_csv(result)
    _write(text, args.out)
    return EXIT_OK


def _read_samples(path: str) -> list:
    import csv

    from .scaling import SpeedupSample

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or [f.strip() for f in header] != ["n", "speedup"]:
                raise ValueError(f"{path}: expected CSV header 'n,speedup'")
            samples = []
            for row in reader:
                if not row:
                    continue
                try:
                    if len(row) != 2:
                        raise ValueError(f"expected 2 fields n,speedup, got {len(row)}")
                    samples.append(SpeedupSample(*row))
                except ValueError as exc:
                    raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
        except csv.Error as exc:
            # A row the reader cannot split, such as a field over csv.field_size_limit().
            raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
    return samples


def cmd_fit(args) -> int:
    from .scaling import LogisticParams, average_params, fit_logistic, sum_squared_residuals

    fits = []
    for path in args.inputs:
        samples = _read_samples(path)
        params = fit_logistic(samples)
        fits.append(
            {
                "file": path,
                "a": params.a,
                "b": params.b,
                "c": params.c,
                "residual": sum_squared_residuals(params, samples),
            }
        )

    if args.average and len(fits) > 1:
        avg = average_params([LogisticParams(f["a"], f["b"], f["c"]) for f in fits])
        payload = {"a": avg.a, "b": avg.b, "c": avg.c, "residual": None, "fits": fits}
    elif len(fits) == 1:
        payload = dict(fits[0])
        payload.pop("file")
    else:
        payload = {"fits": fits}

    if args.format == "table":
        lines = []
        if "a" in payload:
            lines.append(f"a={_fmt(payload['a'])} b={_fmt(payload['b'])} c={_fmt(payload['c'])}")
            if payload.get("residual") is not None:
                lines.append(f"residual={_fmt(payload['residual'])}")
        for f in payload.get("fits", []):
            lines.append(
                f"{f['file']}: a={_fmt(f['a'])} b={_fmt(f['b'])} c={_fmt(f['c'])} "
                f"residual={_fmt(f['residual'])}"
            )
        text = "\n".join(lines) + "\n"
    else:
        import json

        text = json.dumps(payload, indent=2) + "\n"
    _write(text, args.out)
    return EXIT_OK


def cmd_validate(args) -> int:
    from .scaling import DEFAULT_SCALING, superlinear_from

    catalog = _resolve_catalog(args.path)
    print(
        f"catalog OK: {len(catalog.instances)} instances "
        f"({len(catalog.gpu_view)} gpu, {len(catalog.cpu_view)} cpu available)"
    )
    for spec in catalog.instances:
        n = superlinear_from(DEFAULT_SCALING.model_for(spec))
        if n is not None:
            print(
                f"note: instance {spec.name!r}: scaling factor K(n) exceeds 1 from n={n} "
                "(superlinear speedup model); it is used as-is"
            )
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # CatalogError and NonConvergenceError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
