"""The command line's contract, fuzzed: generated argv for plan, simulate and validate-catalog, run in-process.

Every run ends one of three ways: exit 0 with its output, exit 2 when nothing
fits, or exit 1 with exactly one stderr line, "error: ...".  Flag values come
from valid numbers, boundaries, non-numbers and missing values, and a stray
value, which may hold a character that str.splitlines() breaks on, lands
anywhere after the command; no run is given --out, so none writes a file.
"""
import contextlib
import io
import json
import math
import pathlib
from decimal import Context, Decimal, Inexact, localcontext

from hypothesis import given, settings
from hypothesis import strategies as st

import spotplan
from spotplan import PlanRequest
from spotplan.cli import _resolve_catalog, main

BUNDLED = pathlib.Path(spotplan.__file__).parent / "data" / "catalogs"
_PATHS = [str(BUNDLED / "simulated.json"), str(BUNDLED / "aws-2023-10.json"), str(BUNDLED / "missing.json")]

_COUNTS, _AMOUNTS = st.integers(1, 300).map(str), st.decimals("0.01", "60", places=2).map(str)  # valid numbers
_VALUES = st.one_of(
    _COUNTS, _AMOUNTS,
    st.sampled_from(["0", "-1", "10000", "10001", "1e-400", "1e400"]),  # boundaries
    st.sampled_from(["x", "nan", "inf", ""]),  # non-numbers
    st.none(),  # the flag without its value
)
_FLAGS = {"plan": ("--pw", "--ckpt-size-gib", "--buffer-count", "--max-limit", "--top-k"),
          "simulate": ("--pw-min", "--pw-max", "--pw-step", "--ckpt-size-gib", "--buffer-count", "--max-limit")}
_COUNT_FLAGS = {"--buffer-count", "--max-limit", "--top-k"}
_FORMATS = st.sampled_from(["table", "json", "csv", "xml", ""])  # both commands take the first three
_STRAYS = st.text(st.sampled_from("ab é\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"), min_size=1, max_size=4)


@st.composite
def _argv(draw) -> tuple[list[str], dict]:
    """An argv and the flags it gives a value, each at most once, in a drawn order; in a quarter of the runs, a
    stray value follows the command somewhere, which a flag may take as its value."""
    command = draw(st.sampled_from(["plan", "simulate", "validate-catalog"]))
    argv, given = [command], {}
    if command == "validate-catalog":
        argv += draw(st.sampled_from([[], *([path] for path in _PATHS)]))
    else:
        valid = draw(st.booleans())  # in half the runs, each value is a valid number for its flag
        options = [(flag, _VALUES if not valid else _COUNTS if flag in _COUNT_FLAGS else _AMOUNTS)
                   for flag in _FLAGS[command]]
        options += [("--catalog", st.sampled_from(_PATHS)), ("--format", _FORMATS)]
        for flag, values in draw(st.permutations(options)):
            if draw(st.booleans()):
                value = draw(values)
                argv += [flag] if value is None else [flag, value]
                given[flag] = value
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(1, len(argv))), draw(_STRAYS))
    return argv, given


def _exact_price(catalog, plan: dict) -> Decimal:
    """The plan's hourly price from the catalog's Decimal prices; Inexact traps any rounding."""
    gpu = catalog.by_name(plan["gpu"])
    with localcontext(Context(prec=100, traps=[Inexact])):
        if plan["cpu"] is None:
            return gpu.od_price + (plan["gpu_count"] - 1) * gpu.spot_price
        return plan["gpu_count"] * gpu.spot_price + plan["cpu_count"] * catalog.by_name(plan["cpu"]).od_price


# The slowest valid run, a 10,000-point simulate --format json at --max-limit 10000, takes about 0.35 s on a
# 2-core machine: the caps bound every run, so a deadline 10 times that fails only on unbounded work.
@settings(max_examples=250, deadline=5000)
@given(case=_argv())
def test_every_run_exits_0_1_or_2_and_a_refusal_prints_one_line(case):
    argv, given = case
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert len(err.splitlines()) == 1
    else:
        assert not any(line.startswith("error:") for line in err.splitlines())
    if code == 0 and argv[0] == "plan":  # the run's plans, printed as JSON: the last --format wins
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main([*argv, "--format", "json"]) == 0
        catalog = _resolve_catalog(given.get("--catalog"))
        pw, cap = Decimal(given.get("--pw", "3")), int(given.get("--max-limit", PlanRequest.max_instances))
        for plan in json.loads(out.getvalue())["plans"]:
            price = _exact_price(catalog, plan)
            assert price <= pw and plan["hourly_price"] == float(price)
            assert 1 <= plan["gpu_count"] <= cap
            assert 0 <= plan["score_z"] < math.inf
