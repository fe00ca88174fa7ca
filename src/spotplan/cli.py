"""Command-line interface: plan, simulate, fit, validate-catalog.

Each command imports the package modules it runs inside its own function, so
one CLI process loads and compiles no more of the package than it needs.
"""
import os
import sys
import warnings
from argparse import SUPPRESS, ArgumentParser

__all__ = ["main"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2

CATALOG_ENV = "SPOTPLAN_CATALOG"
_LINE_BREAKS = {ord(c): ascii(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}  # what splitlines() breaks on


class _Parser(ArgumentParser):
    # A usage error is refused as any bad input is, in one line and with exit 1 (argparse's 2 means infeasible).
    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")

    # A request flag's help states its PlanRequest or SweepSpec default, read only when help is printed.
    def format_help(self):
        from . import PlanRequest, SweepSpec

        fields = {**PlanRequest.__dataclass_fields__, **SweepSpec.__dataclass_fields__}
        for action in self._actions:
            if action.default is SUPPRESS and action.dest in fields:
                action.help = f"(default: {fields[action.dest].default})"
        return super().format_help()


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

    # A flag named after a PlanRequest or SweepSpec field sets it only when given; --pw has no library default.
    def add_request_flags(p):
        p.add_argument("--ckpt-size-gib", dest="ckpt_size", metavar="CKPT_SIZE_GIB", type=float, default=SUPPRESS)
        p.add_argument("--buffer-count", type=int, default=SUPPRESS)
        p.add_argument("--max-limit", dest="max_instances", metavar="MAX_LIMIT", type=int, default=SUPPRESS)

    p_plan = sub.add_parser("plan", help="recommend cluster configurations")
    add_catalog_flags(p_plan)
    p_plan.add_argument("--pw", default="3", help="hourly price ceiling (default: 3)")
    add_request_flags(p_plan)
    p_plan.add_argument("--top-k", type=int, default=SUPPRESS)
    add_output_flags(p_plan, ("table", "json", "csv"), "table")
    p_plan.set_defaults(func=cmd_plan)

    p_sim = sub.add_parser("simulate", help="sweep the price ceiling over a grid")
    add_catalog_flags(p_sim)
    p_sim.add_argument("--pw-min", default=SUPPRESS)
    p_sim.add_argument("--pw-max", default=SUPPRESS)
    p_sim.add_argument("--pw-step", default=SUPPRESS)
    add_request_flags(p_sim)
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


def _given(cls, args) -> dict:
    """The parsed flags that name fields of the dataclass cls."""
    return {k: v for k, v in vars(args).items() if k in cls.__dataclass_fields__}


def cmd_plan(args) -> int:
    from .planner import PlanRequest, recommend

    catalog = _resolve_catalog(args.catalog)
    sat = _resolve_saturation(args.saturation)
    plans = recommend(catalog, PlanRequest(**_given(PlanRequest, args)), sat=sat)
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
        writer = csv.DictWriter(buf, fieldnames=["rank", *plans[0].summary()], lineterminator="\n")
        writer.writeheader()
        writer.writerows({"rank": rank, **p.summary()} for rank, p in enumerate(plans, 1))  # None -> ""
        text = buf.getvalue()
    else:
        lines = [
            f"{'#':>2}  {'architecture':<14} {'gpu':<14} {'n':>4}  {'cpu':<14} {'m':>4}  "
            f"{'price/h':>10}  {'score_z':>12}"
        ]
        for rank, p in enumerate(plans, 1):  # a plan has no CPU or m_cpu >= 1 of one
            architecture, gpu, n, cpu, m, price, z = p._values
            lines.append(f"{rank:>2}  {architecture:<14} {gpu:<14} {n:>4}  {cpu or '-':<14} {m or '-':>4}  "
                         f"{_fmt(price):>10}  {_fmt(z):>12}")
        text = "\n".join(lines) + "\n"
    _write(text, args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    from .simulator import SweepSpec, run_sweep, sweep_rows, sweep_to_csv, sweep_to_json

    catalog = _resolve_catalog(args.catalog)
    sat = _resolve_saturation(args.saturation)
    result = run_sweep(catalog, SweepSpec(**_given(SweepSpec, args)), sat=sat)
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

    with open(path, newline="", encoding="utf-8-sig") as fh:  # drops a leading byte-order mark, as spreadsheets write
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
    from .scaling import average_params, fit_logistic, sum_squared_residuals

    models, fits = [], []
    for path in args.inputs:
        samples = _read_samples(path)
        models.append(params := fit_logistic(samples))
        fits.append({"file": path, **vars(params), "residual": sum_squared_residuals(params, samples)})

    if args.average and len(fits) > 1:
        payload = {**vars(average_params(models)), "residual": None, "fits": fits}
    elif len(fits) == 1:
        payload = {**vars(models[0]), "residual": fits[0]["residual"]}
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
    with warnings.catch_warnings(record=True) as caught:  # under the caller's filters; shown unless refused
        try:
            args = _build_parser().parse_args(argv)
            code = args.func(args)
        except (ValueError, OSError) as exc:  # usage errors, CatalogError and NonConvergenceError among them
            print(f"error: {str(exc).translate(_LINE_BREAKS)}", file=sys.stderr)  # in one line, whatever argv held
            return EXIT_ERROR
    sys.stderr.writelines(f"warning: {warning.message}\n" for warning in caught)
    return code


if __name__ == "__main__":
    sys.exit(main())
