"""Fresh-interpreter probe: times ``import spotplan.cli``, then optionally one command.

    python perfbench/probe.py import
    python perfbench/probe.py trace plan --format json

``import`` reports the import time, the modules it loaded and whether numpy
came with it.  ``trace`` then runs ``cli.main(argv)`` with its output
captured, and replays the public layer calls that command makes, one span
each; from there on machine speed is sampled and times are nominal (see
speed.py).  The last line of stdout is a JSON report.  Nothing but ``sys``
and ``time`` is imported before the measured import.
"""
import sys
import time

# Spans of the replay that cli.main does not make itself.
_NOT_IN_MAIN = {"simulator.replay", "simulator.json"}


def _replay(tracer, argv):
    """The layer calls ``spotplan <argv>`` makes, as the CLI makes them."""
    from spotplan import (
        PlanRequest,
        SpeedupSample,
        SweepSpec,
        average_params,
        bundled_simulated_catalog,
        default_saturation_table,
        fit_logistic,
        load_catalog_file,
        recommend,
    )

    from common import counting_scaling
    from layers import traced_sweep

    command, args = argv[0], argv[1:]
    counts = {"factor_calls": 0, "recommend_calls": [], "recommend_plans": 0}
    if command in ("plan", "simulate", "validate-catalog"):
        with tracer.span("catalog.load"):
            if "--catalog" in args:
                catalog = load_catalog_file(args[args.index("--catalog") + 1])
            else:
                catalog = bundled_simulated_catalog()
    if command in ("plan", "simulate"):
        with tracer.span("saturation.load"):
            sat = default_saturation_table()
    if command == "plan":
        with tracer.span("planner.recommend"):
            plans = recommend(catalog, PlanRequest(pw="3"), sat=sat)
        scaling = counting_scaling()  # the count, outside the span
        recommend(catalog, PlanRequest(pw="3"), scaling=scaling, sat=sat)
        counts["factor_calls"] = scaling.calls
        counts["recommend_calls"].append(scaling.calls)
        counts["recommend_plans"] = len(plans)
    elif command == "simulate":
        counts.update(traced_sweep(tracer, catalog, SweepSpec(), sat))
    elif command == "fit":
        fits = []
        for path in (a for a in args if not a.startswith("--")):
            with open(path, encoding="utf-8") as fh:
                rows = [line.split(",") for line in fh.read().splitlines()[1:]]
            samples = [SpeedupSample(int(n), float(s)) for n, s in rows]
            with tracer.span("scaling.fit"):
                fits.append(fit_logistic(samples))
        average_params(fits)
        counts["fit_calls"] = len(fits)
    # Top-level spans mirror the calls cli.main makes; the rest of main is cli self time.
    layer_ms = sum(
        tracer.ms(s) for s in tracer.spans if s[3] is None and s[0] not in _NOT_IN_MAIN
    )
    return counts, layer_ms


def main() -> int:
    mode, argv = sys.argv[1], sys.argv[2:]
    before = len(sys.modules)
    t0 = time.perf_counter()
    import spotplan.cli

    import_ms = (time.perf_counter() - t0) * 1000.0
    report = {
        "import_ms": import_ms,
        "modules_loaded": len(sys.modules) - before,
        "numpy_loaded": int("numpy" in sys.modules),
    }
    if mode == "trace":
        import contextlib
        import hashlib
        import io

        import speed
        from common import Tracer

        sampler = speed.Sampler().start()
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = spotplan.cli.main(argv)
        t1 = time.perf_counter()
        tracer = Tracer(sampler)
        counts, layer_ms = _replay(tracer, argv)
        sampler.stop()
        report.update(
            exit_code=code,
            stdout_sha256=hashlib.sha256(out.getvalue().encode()).hexdigest(),
            main_ms=sampler.nominal(t0, t1) * 1000.0,
            # For the parent: the end of main, and how to scale up to there.
            main_end=t1,
            main_busy_s=sampler.busy(t0, t1),
            main_factor=sampler.factor(t0, t1),
            layer_ms=layer_ms,
            counts=counts,
            spans=tracer.records(),
        )
    import json

    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
