import csv
import hashlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import pytest

import spotplan
from spotplan import (
    PlanRequest,
    SweepSpec,
    bundled_aws_catalog,
    bundled_simulated_catalog,
    fit_logistic,
    load_catalog,
    recommend,
    run_sweep,
    sweep_to_csv,
)
from spotplan.cli import _build_parser, _read_samples, main

BUNDLED = pathlib.Path(spotplan.__file__).parent / "data" / "catalogs"
BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark that spreadsheet exports write first

REF_ROWS = {
    "resnet18": (0.1222, 11.7094, 4.0927),
    "resnet152": (0.1414, 13.0476, 6.8803),
    "efficientnet_v2l": (0.1380, 13.8657, 7.5652),
}


def logistic(a, b, c, n):
    return c / (1 + math.exp(-a * (n - b)))


def write_samples(path, a, b, c, ns=(1, 2, 4, 8, 12, 16, 20, 24, 28, 32)):
    lines = ["n,speedup"] + [f"{n},{logistic(a, b, c, n)!r}" for n in ns]
    path.write_text("\n".join(lines) + "\n")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPlanCommand:
    def test_defaults_give_three_ranked_plans(self, capsys):
        code, out, err = run(capsys, "plan")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4  # header + 3 plans
        zs = [float(line.split()[-1]) for line in lines[1:]]
        assert zs == sorted(zs, reverse=True)

    def test_infeasible_budget_exits_2(self, capsys):
        code, out, err = run(capsys, "plan", "--pw", "0.0001")
        assert code == 2
        assert "no feasible configuration" in err

    def test_malformed_catalog_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, out, err = run(capsys, "plan", "--catalog", str(bad))
        assert code == 1
        assert "malformed" in err

    def test_missing_catalog_file_exits_1(self, capsys, tmp_path):
        code, out, err = run(capsys, "plan", "--catalog", str(tmp_path / "nope.json"))
        assert code == 1

    @pytest.mark.parametrize("pw", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_pw_exits_1(self, capsys, pw):
        code, out, err = run(capsys, "plan", f"--pw={pw}")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"od_price": "NaN"}, "not a finite price"),
            ({"scaling": {"a": 0.05, "b": 50, "c": 4}}, "S_hybrid(1) <= 0"),
            ({"network_gbps": "Infinity"}, "network_bw must be finite"),
            ({"eflops": "Infinity"}, "eflops must be finite"),
            ({"name": ["solo"]}, "instance '#0': name must be a string, got [\"solo\"]"),
            ({"name": {"first": "solo"}}, "instance '#0': name must be a string"),
            ({"name": 5}, "instance '#0': name must be a string, got 5"),
            ({"eflops": None}, "instance 'solo': eflops must be a number, got null"),
            ({"eflops": [10]}, "instance 'solo': eflops must be a number, got [10]"),
            ({"memory_gib": None}, "instance 'solo': memory_gib must be a number, got null"),
            ({"memory_gib": [16]}, "instance 'solo': memory_gib must be a number, got [16]"),
            ({"available": "false"}, "instance 'solo': available must be true or false, got \"false\""),
            ({"available": None}, "instance 'solo': available must be true or false, got null"),
            ({"od_price": True}, "instance 'solo': od_price must be a number, got true"),
            ({"network_gbps": True}, "instance 'solo': network_gbps must be a number, got true"),
            ({"scaling": 5}, "instance 'solo': scaling must be an object"),
            ({"scaling": {"a": True, "b": 10, "c": 5}}, "instance 'solo': a must be a number, got true"),
            ({"scaling": {"a": 0.1, "b": 10, "c": 1e308}}, "plan of 1 x 'solo' scores Z = inf"),
            ({"eflops": 1e307}, "x 'solo' scores Z = "),
            # JSON integers beyond float range, which float() refuses with an OverflowError.
            ({"eflops": 10**400}, "instance 'solo': eflops: int too large to convert to float"),
            ({"network_gbps": 10**400}, "instance 'solo': network_gbps: int too large to convert to float"),
            ({"memory_gib": 10**400}, "instance 'solo': memory_gib: int too large to convert to float"),
            ({"scaling": {"a": 0.1, "b": 10**400, "c": 5}}, "instance 'solo': b: int too large to convert to float"),
        ],
    )
    def test_catalog_rejected_in_one_line(self, capsys, tmp_path, entry, message):
        doc = {"instances": [{"name": "solo", "kind": "gpu", "od_price": 0.2,
                              "spot_price": 0.1, "network_gbps": 10,
                              "eflops": 10, **entry}]}
        path = tmp_path / "cat.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "plan", "--catalog", str(path))
        assert code == 1 and out == ""
        assert message in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["plan", "simulate"])
    @pytest.mark.parametrize(
        "doc, message",
        [
            ('{"entries": 5}', "saturation entries must be a list of pairs, not int"),
            ('{"entries": [["NaN", 3]]}', 'bandwidth "NaN" is not a finite positive number'),
            ('{"entries": [["Infinity", 3]]}', 'bandwidth "Infinity" is not a finite positive number'),
            ('{"entries": [[NaN, 3]]}', "bandwidth NaN is not a finite positive number"),
            ('{"entries": [[10, 20, 30]]}', "is not a [bandwidth, n_sat] pair"),
            ('{"entries": [10]}', "is not a [bandwidth, n_sat] pair"),
            ('{"entries": [[10, 3.7]]}', "n_sat 3.7 is not an integer"),
            pytest.param("[" * 200_000 + "]" * 200_000, "malformed saturation document: maximum recursion",
                         id="nested-200000-deep"),
        ],
    )
    def test_saturation_rejected_in_one_line(self, capsys, tmp_path, command, doc, message):
        path = tmp_path / "sat.json"
        path.write_text(doc)
        code, out, err = run(capsys, command, "--saturation", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and message in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["plan", "simulate"])
    def test_an_empty_saturation_table_exits_1_whatever_the_catalog(self, capsys, tmp_path, command):
        # A catalog with no CPU looks up no n_sat: the table is refused as it loads.
        doc = {"instances": [{"name": "solo", "kind": "gpu", "od_price": 0.2, "spot_price": 0.1,
                              "network_gbps": 10, "eflops": 10}]}
        (tmp_path / "cat.json").write_text(json.dumps(doc))
        (tmp_path / "sat.json").write_text('{"entries": []}')
        code, out, err = run(capsys, command, "--catalog", str(tmp_path / "cat.json"),
                             "--saturation", str(tmp_path / "sat.json"))
        assert (code, out, err) == (1, "", "error: saturation table is empty\n")

    @pytest.mark.parametrize("command", ["plan", "simulate"])
    @pytest.mark.parametrize("data", [b'{"entries": [[10, 3]]', b"\xff", b'{"entries": [[10, ' + b"1" * 5000 + b"]]}"],
                             ids=["syntax", "not-utf8", "int-over-4300-digits"])
    def test_unreadable_saturation_exits_1_in_one_line(self, capsys, tmp_path, command, data):
        path = tmp_path / "sat.json"
        path.write_bytes(data)
        code, out, err = run(capsys, command, "--saturation", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: malformed saturation document: ") and err.count("\n") == 1

    def test_huge_budget_is_capped_by_max_limit(self, capsys):
        code, out, err = run(capsys, "plan", "--pw", "1e40", "--max-limit", "40", "--format", "json")
        assert code == 0 and err == ""
        plans = json.loads(out)["plans"]
        assert plans and all(p["gpu_count"] <= 40 for p in plans)
        assert all(p["cpu_count"] is None or p["cpu_count"] <= 40 for p in plans)

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "plan", "--format", "json", "--top-k", "2")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["plans"]) == 2
        assert payload["plans"][0]["score_z"] >= payload["plans"][1]["score_z"]

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "plan", "--format", "csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 0 and len(rows) == 3
        assert rows[0]["rank"] == "1"

    @pytest.mark.parametrize("argv, text", [
        ((), "1,tiering,D,17,M,1,2.975,16631.592416736858\n2,tiering,D,17,N,1,2.997,16631.592416736858\n"
             "3,tiering,D,16,M,1,2.81,15804.401696011173\n"),
        (("--top-k", "3", "--ckpt-size-gib", "64"),  # no CPU holds 128 GiB: cpu and cpu_count are empty
         "1,single_anchor,D,15,,,2.86,14256.222419245583\n2,single_anchor,D,14,,,2.695,13383.155276959376\n"
         "3,single_anchor,D,13,,,2.53,12500.796803153005\n"),
    ])
    def test_csv_bytes_are_pinned(self, capsys, argv, text):
        code, out, err = run(capsys, "plan", "--format", "csv", *argv)
        assert (code, err) == (0, "")
        assert out == "rank,architecture,gpu,gpu_count,cpu,cpu_count,hourly_price,score_z\n" + text

    def test_table_round_trips_through_json_at_6_digits(self, capsys):
        code, table_out, _ = run(capsys, "plan", "--pw", "4.3")
        code2, json_out, _ = run(capsys, "plan", "--pw", "4.3", "--format", "json")
        assert code == code2 == 0
        table_rows = table_out.strip().splitlines()[1:]
        for line, plan in zip(table_rows, json.loads(json_out)["plans"]):
            tokens = line.split()
            assert float(tokens[-1]) == float(f"{plan['score_z']:.6g}")
            assert float(tokens[-2]) == float(f"{plan['hourly_price']:.6g}")

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "plans.json"
        code, out, _ = run(capsys, "plan", "--format", "json", "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["plans"]

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "plan", "--pw", "5.5", "--format", "json")
        _, second, _ = run(capsys, "plan", "--pw", "5.5", "--format", "json")
        assert first == second

    def test_env_var_supplies_catalog(self, capsys, tmp_path, monkeypatch):
        doc = {"instances": [{"name": "solo", "kind": "gpu", "od_price": 0.2,
                              "spot_price": 0.1, "network_gbps": 10,
                              "eflops": 10, "memory_gib": 16}]}
        path = tmp_path / "cat.json"
        path.write_text(json.dumps(doc))
        monkeypatch.setenv("SPOTPLAN_CATALOG", str(path))
        code, out, _ = run(capsys, "plan", "--format", "json")
        assert code == 0
        assert {p["gpu"] for p in json.loads(out)["plans"]} == {"solo"}

    def test_flag_overrides_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SPOTPLAN_CATALOG", str(tmp_path / "missing.json"))
        doc = {"instances": [{"name": "solo", "kind": "gpu", "od_price": 0.2,
                              "spot_price": 0.1, "network_gbps": 10,
                              "eflops": 10, "memory_gib": 16}]}
        path = tmp_path / "cat.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "plan", "--catalog", str(path), "--format", "json")
        assert code == 0


class TestRequestFields:
    """Each request flag sets its PlanRequest or SweepSpec field only when given, so every
    default but --pw's is the library's."""

    def test_the_parser_sets_no_library_default(self):
        plan = vars(_build_parser().parse_args(["plan"]))
        assert plan.keys() & PlanRequest.__dataclass_fields__.keys() == {"pw"}
        simulate = vars(_build_parser().parse_args(["simulate"]))
        assert not simulate.keys() & SweepSpec.__dataclass_fields__.keys()

    @pytest.mark.parametrize("flags, fields", [
        ((), {}),
        (("--ckpt-size-gib", "1", "--buffer-count", "3", "--max-limit", "9", "--top-k", "2"),
         dict(ckpt_size=1.0, buffer_count=3, max_instances=9, top_k=2)),
    ])
    def test_plan_is_recommend_with_the_given_fields(self, capsys, flags, fields):
        code, out, err = run(capsys, "plan", "--format", "json", *flags)
        plans = recommend(bundled_simulated_catalog(), PlanRequest(pw="3", **fields))
        assert (code, err) == (0, "")
        assert json.loads(out) == {"plans": [p.summary() for p in plans]}

    @pytest.mark.parametrize("flags, fields", [
        ((), {}),
        (("--pw-min", "1", "--pw-max", "2", "--pw-step", "0.5", "--max-limit", "9"),
         dict(pw_min="1", pw_max="2", pw_step="0.5", max_instances=9)),
        (("--ckpt-size-gib", "64", "--buffer-count", "1", "--pw-step", "2"),
         dict(ckpt_size=64.0, buffer_count=1, pw_step="2")),
    ])
    def test_simulate_is_run_sweep_with_the_given_fields(self, capsys, flags, fields):
        code, out, err = run(capsys, "simulate", *flags)
        assert (code, err) == (0, "")
        assert out == sweep_to_csv(run_sweep(bundled_simulated_catalog(), SweepSpec(**fields)))


def _python(code, *args):
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(spotplan.__file__))}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True)


_GPU_ENTRY = {"name": "X", "kind": "gpu", "od_price": 0.2, "spot_price": 0.1, "network_gbps": 10, "eflops": 5}


@pytest.mark.parametrize("doc", [
    None,  # the bundled saturation table: unknown "entries", and no "instances"
    {"extra": 1, "instances": [{**_GPU_ENTRY, "color": "red"}, _GPU_ENTRY]},  # refused: a duplicate name
], ids=["saturation-table", "duplicate-name"])
def test_a_refused_catalog_with_unknown_fields_prints_one_line(tmp_path, doc):
    # In a child process, so that stderr shows the warnings as a user sees them.
    path = BUNDLED.parent / "saturation.json" if doc is None else tmp_path / "cat.json"
    if doc is not None:
        path.write_text(json.dumps(doc))
    proc = _python("import sys; from spotplan.cli import main; sys.exit(main(sys.argv[1:]))",
                   "validate-catalog", str(path))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("command", [["validate-catalog"], ["plan", "--catalog"]], ids=["validate", "plan"])
def test_a_catalog_with_unknown_fields_warns_in_one_line_each(tmp_path, command):
    # In a child process, as above: stdout and the exit code are those of the catalog without them.
    (tmp_path / "extra.json").write_text(json.dumps({"extra": 1, "instances": [{**_GPU_ENTRY, "color": "red"}]}))
    (tmp_path / "plain.json").write_text(json.dumps({"instances": [_GPU_ENTRY]}))
    code = "import sys; from spotplan.cli import main; sys.exit(main(sys.argv[1:]))"
    extra, plain = (_python(code, *command, str(tmp_path / name)) for name in ("extra.json", "plain.json"))
    assert (extra.returncode, extra.stdout, plain.stderr) == (0, plain.stdout, "") and plain.returncode == 0
    assert extra.stderr == ("warning: ignoring unknown catalog field(s): ['extra']\n"
                            "warning: instance 'X': ignoring unknown field(s) ['color']\n")


def test_import_leaves_numpy_unloaded():
    # The package has no runtime dependencies: importing the CLI loads no numpy.
    proc = _python("import sys, spotplan.cli; print('numpy' in sys.modules)")
    assert proc.returncode == 0 and proc.stdout.strip() == "False"


def test_every_command_runs_without_numpy(tmp_path):
    paths = []
    for name, row in REF_ROWS.items():
        path = tmp_path / f"{name}.csv"
        write_samples(path, *row)
        paths.append(str(path))
    code = """
import sys
sys.modules["numpy"] = None  # any import of numpy now fails
from spotplan.cli import main
out = sys.argv[1]
codes = [
    main(["plan", "--out", out]),
    main(["validate-catalog"]),
    main(["fit", *sys.argv[2:], "--average", "--out", out]),
    main(["simulate", "--out", out]),
]
print(codes)
"""
    proc = _python(code, str(tmp_path / "out.txt"), *paths)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0]"


# The spotplan modules a fresh interpreter holds, printed as the last line.
_PRINT_LOADED = "\nimport sys\nprint(*sorted(m[9:] for m in sys.modules if m.startswith('spotplan.')))"
_PLAN_MODULES = ["catalog", "cli", "planner", "saturation", "scaling"]


@pytest.mark.parametrize(
    "argv, loaded",
    [
        ("import spotplan", []),
        ("import spotplan.cli", ["cli"]),
        (["fit", "{csv}"], ["cli", "scaling"]),
        (["validate-catalog"], ["catalog", "cli", "scaling"]),
        (["plan"], _PLAN_MODULES),
        (["plan", "--catalog", str(BUNDLED / "aws-2023-10.json"), "--format", "json"], _PLAN_MODULES),
        (["simulate", "--pw-step", "5"], [*_PLAN_MODULES, "simulator"]),
    ],
    ids=["package", "cli", "fit", "validate-catalog", "plan", "plan-aws-json", "simulate"],
)
def test_each_command_loads_only_its_modules(tmp_path, argv, loaded):
    if isinstance(argv, str):
        code = argv
    else:
        write_samples(tmp_path / "fit.csv", *REF_ROWS["resnet18"])
        argv = [str(tmp_path / "fit.csv") if arg == "{csv}" else arg for arg in argv]
        code = f"import spotplan.cli\nassert spotplan.cli.main({argv!r}) == 0"
    proc = _python(code + _PRINT_LOADED)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split() == loaded


@pytest.mark.parametrize(
    "command, defaults",
    [
        ("plan", {"--ckpt-size-gib": "0.5", "--buffer-count": "2", "--max-limit": "256", "--top-k": "3"}),
        ("simulate", {"--pw-min": "0", "--pw-max": "10", "--pw-step": "0.1", "--ckpt-size-gib": "0.5",
                      "--buffer-count": "2", "--max-limit": "256"}),
    ],
)
def test_help_states_each_request_flags_default(capsys, command, defaults):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())  # argparse wraps a help line where it likes
    assert excinfo.value.code == 0
    stated = dict(re.findall(r"(--[\w-]+) [A-Z_]+ \(default: ([^)]*)\)", text))
    assert stated == defaults


def test_catalog_and_saturation_files_may_open_with_a_byte_order_mark(capsys, tmp_path):
    sat = BUNDLED.parent / "saturation.json"
    (tmp_path / "cat.json").write_bytes(BOM + (BUNDLED / "aws-2023-10.json").read_bytes())
    (tmp_path / "sat.json").write_bytes(BOM + sat.read_bytes())
    plain = run(capsys, "plan", "--catalog", str(BUNDLED / "aws-2023-10.json"), "--saturation", str(sat))
    assert plain[0] == 0
    assert run(capsys, "plan", "--catalog", str(tmp_path / "cat.json"), "--saturation", str(tmp_path / "sat.json")) \
        == plain


class TestSimulateCommand:
    def test_coarse_grid_row_count(self, capsys):
        code, out, _ = run(capsys, "simulate", "--pw-step", "5")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 3 * 4  # 3 grid points x 4 policies

    def test_json_round_trips_csv(self, capsys):
        code, csv_out, _ = run(capsys, "simulate", "--pw-step", "2.5")
        code2, json_out, _ = run(capsys, "simulate", "--pw-step", "2.5", "--format", "json")
        assert code == code2 == 0
        csv_rows = list(csv.DictReader(io.StringIO(csv_out)))
        json_rows = json.loads(json_out)["rows"]
        assert len(csv_rows) == len(json_rows)
        for crow, jrow in zip(csv_rows, json_rows):
            assert float(crow["pw"]) == jrow["pw"]
            assert crow["policy"] == jrow["policy"]
            assert float(crow["normalized"]) == pytest.approx(jrow["normalized"], rel=1e-15)

    def test_table_format(self, capsys):
        code, out, _ = run(capsys, "simulate", "--pw-step", "5", "--format", "table")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 3 * 4
        assert lines[0].split()[:2] == ["pw", "policy"]

    def test_table_bytes_are_pinned(self, capsys):
        # sha256 of the default sweep's table, as the row-dict table loop printed it.
        code, out, _ = run(capsys, "simulate", "--format", "table")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "4c1fa009bda3c5fb92a80a4fe0b1de3fe2f0ce8de0cb3682abbc2c290248e5dd"
        )

    def test_usage_error_exits_1(self, capsys):
        code = main(["simulate", "--pw-step", "0"])
        capsys.readouterr()
        assert code == 1

    @pytest.mark.parametrize("step, count", [("1e-9", "10000000001"), ("1e-40", str(10**41 + 1))])
    def test_oversized_grid_exits_1(self, capsys, step, count):
        code, out, err = run(capsys, "simulate", "--pw-step", step)
        assert code == 1 and out == ""
        assert f"grid has {count} points" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"scaling": {"a": 0.1, "b": 10, "c": 1e308}}, "plan of 1 x 'solo' scores Z = inf"),
            ({"eflops": 1e307}, "plan of 3 x 'solo' scores Z = inf"),
        ],
    )
    def test_overflowing_scores_exit_1_in_one_line(self, capsys, tmp_path, entry, message):
        doc = {"instances": [{"name": "solo", "kind": "gpu", "od_price": 0.2,
                              "spot_price": 0.1, "network_gbps": 10, "eflops": 10, **entry}]}
        path = tmp_path / "cat.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "simulate", "--catalog", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and message in err and err.count("\n") == 1

    def test_bad_flag_exits_1(self, capsys):
        assert main(["simulate", "--bogus"]) == 1
        assert capsys.readouterr().err == "error: spotplan: unrecognized arguments: --bogus\n"


class TestFitCommand:
    def test_single_file_recovers_params(self, capsys, tmp_path):
        path = tmp_path / "resnet152.csv"
        write_samples(path, *REF_ROWS["resnet152"])
        code, out, _ = run(capsys, "fit", str(path))
        assert code == 0
        payload = json.loads(out)
        a, b, c = REF_ROWS["resnet152"]
        assert payload["a"] == pytest.approx(a, rel=1e-4)
        assert payload["b"] == pytest.approx(b, rel=1e-4)
        assert payload["c"] == pytest.approx(c, rel=1e-4)
        assert payload["residual"] < 1e-10

    def test_average_of_three_reference_fits(self, capsys, tmp_path):
        paths = []
        for name, row in REF_ROWS.items():
            path = tmp_path / f"{name}.csv"
            write_samples(path, *row)
            paths.append(str(path))
        code, out, _ = run(capsys, "fit", *paths, "--average")
        assert code == 0
        payload = json.loads(out)
        # exact mean of the three generating rows
        assert payload["a"] == pytest.approx(0.4016 / 3, rel=1e-4)
        assert payload["b"] == pytest.approx(38.6227 / 3, rel=1e-4)
        assert payload["c"] == pytest.approx(18.5382 / 3, rel=1e-4)
        assert len(payload["fits"]) == 3

    def test_one_file_json_is_a_catalog_scaling_object(self, capsys, tmp_path):
        path = tmp_path / "resnet18.csv"
        write_samples(path, *REF_ROWS["resnet18"])
        code, out, _ = run(capsys, "fit", str(path))
        assert code == 0
        catalog = load_catalog('{"instances": [{"name": "v", "kind": "gpu", "od_price": 1, "spot_price": 0.5, '
                               '"network_gbps": 10, "eflops": 100, "scaling": %s}]}' % out)
        model, fitted = catalog.instances[0].scaling_params, fit_logistic(_read_samples(str(path)))
        assert [x.hex() for x in vars(model).values()] == [x.hex() for x in vars(fitted).values()]

    def test_a_byte_order_mark_is_skipped(self, capsys, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_samples(plain, *REF_ROWS["resnet18"])
        marked.write_bytes(BOM + plain.read_bytes())
        code, out, err = run(capsys, "fit", str(marked))
        assert (code, out, err) == run(capsys, "fit", str(plain)) and code == 0

    def test_too_few_rows_exits_1(self, capsys, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("n,speedup\n1,1.0\n2,1.8\n")
        code, out, err = run(capsys, "fit", str(path))
        assert code == 1
        assert "4 samples" in err

    def test_bad_header_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nodes,speed\n1,1.0\n")
        code, _, err = run(capsys, "fit", str(path))
        assert code == 1
        assert "expected CSV header" in err

    @pytest.mark.parametrize(
        "row, message",
        [
            ("2", "expected 2 fields n,speedup, got 1"),
            ("2,1.9,7", "expected 2 fields n,speedup, got 3"),
            ("2,fast", "speedup: could not convert string to float: 'fast'"),
            pytest.param("2," + "1" * 131_073, "field larger than field limit (131072)", id="oversized-field"),
        ],
    )
    def test_malformed_row_exits_1_naming_file_and_line(self, capsys, tmp_path, row, message):
        path = tmp_path / "rows.csv"
        path.write_text(f"n,speedup\n1,1\n{row}\n4,3.2\n8,4.1\n16,4.9\n")
        code, out, err = run(capsys, "fit", str(path))
        assert code == 1 and out == ""
        assert err == f"error: {path}, line 3: {message}\n"

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_several_files_without_average_fit_each(self, capsys, tmp_path, fmt):
        paths = [tmp_path / f"{name}.csv" for name in ("resnet18", "resnet152")]
        for path in paths:
            write_samples(path, *REF_ROWS[path.stem])
        code, out, err = run(capsys, "fit", *map(str, paths), "--format", fmt)
        assert code == 0 and err == ""
        if fmt == "json":
            payload = json.loads(out)
            assert list(payload) == ["fits"] and [f["file"] for f in payload["fits"]] == list(map(str, paths))
            for f, path in zip(payload["fits"], paths):
                assert (f["a"], f["b"], f["c"]) == pytest.approx(REF_ROWS[path.stem], rel=1e-4)
        else:
            assert [line.split(": a=")[0] for line in out.splitlines()] == list(map(str, paths))

    def test_blank_rows_are_skipped(self, capsys, tmp_path):
        plain, blank = tmp_path / "plain.csv", tmp_path / "blank.csv"
        write_samples(plain, *REF_ROWS["resnet18"])
        header, *rows = plain.read_text().splitlines()
        blank.write_text("\n".join([header, "", *(f"{row}\n" for row in rows), ""]))
        assert run(capsys, "fit", str(blank)) == run(capsys, "fit", str(plain))

    def test_table_format(self, capsys, tmp_path):
        path = tmp_path / "fit.csv"
        write_samples(path, 0.2, 8.0, 5.0)
        code, out, _ = run(capsys, "fit", str(path), "--format", "table")
        assert code == 0
        assert out.startswith("a=")

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_overflowing_start_exits_0(self, capsys, tmp_path, fmt):
        path = tmp_path / "far.csv"
        path.write_text("n,speedup\n1,1\n2,2\n3,3\n100000,4\n")
        code, out, err = run(capsys, "fit", str(path), "--format", fmt)
        assert code == 0 and err == ""

    def test_not_converging_exits_1_in_one_line(self, capsys, tmp_path):
        path = tmp_path / "stuck.csv"
        path.write_text("n,speedup\n1,1\n2,1\n3,1\n400,900\n")
        code, out, err = run(capsys, "fit", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: logistic fit did not converge; best iterate LogisticParams(a=0.0251")
        assert "np." not in err and err.count("\n") == 1

    def test_node_count_beyond_float_range_exits_1_in_one_line(self, capsys, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text(f"n,speedup\n1,1\n2,2\n3,3\n{10**400},4\n")
        code, out, err = run(capsys, "fit", str(path))
        assert code == 1 and out == ""
        assert err == f"error: {path}, line 5: node count must be finite and within float range\n"

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_non_finite_residual_exits_1_in_one_line(self, capsys, tmp_path, fmt):
        path = tmp_path / "huge.csv"
        path.write_text("n,speedup\n1,1e300\n2,1e300\n3,1e300\n4,1e300\n")
        code, out, err = run(capsys, "fit", str(path), "--format", fmt)
        assert code == 1 and out == ""
        assert "did not converge" in err and "residual inf" in err and err.count("\n") == 1


class TestValidateCommand:
    def test_bundled_default_is_valid(self, capsys):
        code, out, _ = run(capsys, "validate-catalog")
        assert code == 0
        assert "17 instances (10 gpu, 7 cpu available)" in out

    def test_bundled_catalogs_have_no_notes(self, capsys):
        for name in ("simulated.json", "aws-2023-10.json"):
            code, out, err = run(capsys, "validate-catalog", str(BUNDLED / name))
            assert code == 0 and err == "" and "note:" not in out

    def test_superlinear_models_are_noted(self, capsys, tmp_path):
        def gpu(name, scaling=None):
            entry = {"name": name, "kind": "gpu", "od_price": 1, "spot_price": 0.5,
                     "network_gbps": 10, "eflops": 100}
            return {**entry, "scaling": scaling} if scaling else entry

        doc = {"instances": [
            gpu("S", {"a": 0.1, "b": 10.0, "c": 30.0}),
            gpu("plain"),
            gpu("T", {"a": 0.5, "b": 4.9, "c": 30.0}),
            gpu("sublinear", {"a": 0.14, "b": 13.0, "c": 6.9}),
        ]}
        path = tmp_path / "super.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate-catalog", str(path))
        assert code == 0 and err == ""
        assert out.splitlines()[1:] == [
            "note: instance 'S': scaling factor K(n) exceeds 1 from n=1 "
            "(superlinear speedup model); it is used as-is",
            "note: instance 'T': scaling factor K(n) exceeds 1 from n=2 "
            "(superlinear speedup model); it is used as-is",
        ]

    @pytest.mark.parametrize("field", ["network_gbps", "eflops"])
    def test_infinite_number_exits_1(self, capsys, tmp_path, field):
        entry = {"name": "X", "kind": "gpu", "od_price": 0.2, "spot_price": 0.1,
                 "network_gbps": 10, "eflops": 5, field: "Infinity"}
        path = tmp_path / "inf.json"
        path.write_text(json.dumps({"instances": [entry]}))
        code, out, err = run(capsys, "validate-catalog", str(path))
        assert code == 1 and out == ""
        assert "must be finite" in err and err.count("\n") == 1

    @pytest.mark.parametrize("name", [["X"], {"first": "X"}])
    def test_unhashable_name_exits_1_in_one_line(self, capsys, tmp_path, name):
        entry = {"name": name, "kind": "gpu", "od_price": 0.2, "spot_price": 0.1,
                 "network_gbps": 10, "eflops": 5}
        path = tmp_path / "named.json"
        path.write_text(json.dumps({"instances": [entry]}))
        code, out, err = run(capsys, "validate-catalog", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: instance '#0': name must be a string") and err.count("\n") == 1

    def test_env_var_supplies_catalog(self, capsys, monkeypatch):
        monkeypatch.setenv("SPOTPLAN_CATALOG", str(BUNDLED / "aws-2023-10.json"))
        code, out, err = run(capsys, "validate-catalog")
        assert code == 0 and err == ""
        assert out.startswith(f"catalog OK: {len(bundled_aws_catalog().instances)} instances")

    def test_undecodable_catalog_exits_1_in_one_line(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"instances": [], "comment": "caf\u00e9"}'.encode("latin-1"))
        code, out, err = run(capsys, "validate-catalog", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: malformed catalog document: 'utf-8' codec can't decode") and err.count("\n") == 1

    def test_invalid_catalog_reports_and_exits_1(self, capsys, tmp_path):
        doc = {"instances": [{"name": "X", "kind": "gpu", "od_price": 0.2,
                              "spot_price": 0.3, "network_gbps": 10,
                              "eflops": 5, "memory_gib": 16}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "validate-catalog", str(path))
        assert code == 1
        assert "spot_price exceeds od_price" in err


@pytest.mark.parametrize("command", ["plan", "simulate", "validate-catalog"])
def test_non_finite_flopp_catalog_exits_1_in_one_line(capsys, tmp_path, command, non_finite_flopp):
    doc, message = non_finite_flopp
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(doc))
    argv = [command, str(path)] if command == "validate-catalog" else [command, "--catalog", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("brk", "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029", ids=ascii)
def test_an_argument_with_a_line_break_exits_1_in_one_line(capsys, brk):
    """argparse puts the raw argv in its message; each character str.splitlines() breaks on prints escaped, and
    printable text as it is."""
    code, out, err = run(capsys, "plan", f"gépu{brk}b")
    assert code == 1 and out == ""
    assert err == f"error: spotplan: unrecognized arguments: gépu{ascii(brk)[1:-1]}b\n"
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [["plan", "--pw", "1e40"], ["simulate"]], ids=["plan", "simulate"])
def test_max_limit_over_the_cap_exits_1_in_one_line(capsys, argv):
    code, out, err = run(capsys, *argv, "--max-limit", "10001")
    assert code == 1 and out == ""
    assert err == "error: max_instances must be in 1..10000, not 10001\n"


def test_top_k_over_the_cap_exits_1_in_one_line(capsys):
    code, out, err = run(capsys, "plan", "--pw", "1e40", "--top-k", "10001")
    assert code == 1 and out == ""
    assert err == "error: top_k must be in 1..10000, not 10001\n"


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["plan", "--pw", "1e-400"], "pw must be a nonzero float, not 1E-400"),
        (["simulate", "--pw-step", "1e-400"], "pw_step must be a nonzero float, not 1E-400"),
        (["validate-catalog", "CATALOG"], "instance 'w': spot_price is 0 as a float (1E-400)"),
    ],
)
def test_input_that_is_0_as_a_float_exits_1_in_one_line(capsys, tmp_path, argv, message):
    """Budget arithmetic is exact, and stays within float's range of digits only without such inputs."""
    path = tmp_path / "cat.json"
    path.write_text(json.dumps({"instances": [
        {"name": "v", "kind": "gpu", "od_price": 1, "spot_price": 1, "network_gbps": 10, "eflops": 1},
        {"name": "w", "kind": "cpu", "od_price": 1, "spot_price": "1e-400", "network_gbps": 10}]}))
    code, out, err = run(capsys, *[str(path) if arg == "CATALOG" else arg for arg in argv])
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_a_zero_pw_min_of_any_exponent_sweeps(capsys):
    """Each grid point was exact pw_min + i * pw_step, a billion digits long."""
    code, out, err = run(capsys, "simulate", "--pw-min", "0E-999999999", "--pw-max", "1", "--pw-step", "0.5")
    assert code == 0 and err == ""
    assert [row["pw"] for row in csv.DictReader(io.StringIO(out)) if row["policy"] == "planner"] == ["0.0", "0.5", "1.0"]


_LONG_PRICE = "1." + "0" * 1001


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["plan", "--pw", _LONG_PRICE], "a price has at most 1000 decimal places, not 1001"),
        (["simulate", "--pw-step", _LONG_PRICE], "a price has at most 1000 decimal places, not 1001"),
        (["validate-catalog", "CATALOG"], "instance 'v': a price has at most 1000 decimal places, not 1001"),
    ],
    ids=["plan", "simulate", "validate-catalog"],
)
def test_a_price_of_more_than_1000_places_exits_1_in_one_line(capsys, tmp_path, argv, message):
    """Budget arithmetic is exact, so a sum has the decimal places of its most precise operand."""
    path = tmp_path / "cat.json"
    path.write_text(json.dumps({"instances": [
        {"name": "v", "kind": "gpu", "od_price": _LONG_PRICE, "spot_price": 1, "network_gbps": 10, "eflops": 1}]}))
    code, out, err = run(capsys, *[str(path) if arg == "CATALOG" else arg for arg in argv])
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["plan", "--pw", "1e999999999"], "pw must be a finite float, not 1E+999999999"),
        (["plan", "--pw", "1e400"], "pw must be a finite float, not 1E+400"),
        (["simulate", "--pw-max", "1e999999999", "--pw-step", "1e999999990"],
         "pw_max must be a finite float, not 1E+999999999"),
        (["simulate", "--pw-max", "1e400000", "--pw-step", "1e399999"], "pw_max must be a finite float, not 1E+400000"),
        (["simulate", "--pw-min", "2e308", "--pw-max", "3e308"], "pw_min must be a finite float, not 2E+308"),
        (["simulate", "--pw-step", "1e309"], "pw_step must be a finite float, not 1E+309"),
    ],
)
def test_budget_beyond_float_range_exits_1_in_one_line(capsys, argv, message):
    """These ended in a decimal.Overflow traceback, or (simulate to 1e400000) wrote inf budgets and exited 0."""
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["plan", "simulate"])
@pytest.mark.parametrize("count", ["0", str(10**400)], ids=["zero", "401-digits"])
def test_buffer_count_out_of_range_exits_1_in_one_line(capsys, command, count):
    """A 401-digit count ended in an OverflowError traceback from required_memory."""
    code, out, err = run(capsys, command, "--buffer-count", count)
    assert code == 1 and out == ""
    assert err == "error: buffer_count must be in 1..1.798e+308\n"


@pytest.mark.parametrize("command", ["plan", "simulate"])
def test_infinite_required_memory_is_accepted(capsys, command):
    """Only the count is bounded: a finite size times a finite count may overflow to inf, and plans as today."""
    code, out, err = run(capsys, command, "--ckpt-size-gib", "1e308", "--buffer-count", "10")
    assert code == 0 and out and err == ""


@pytest.mark.parametrize("command", ["plan", "simulate"])
@pytest.mark.parametrize("size", ["inf", "nan"])
def test_non_finite_ckpt_size_exits_1_in_one_line(capsys, command, size):
    code, out, err = run(capsys, command, "--ckpt-size-gib", size)
    assert code == 1 and out == ""
    assert err == "error: ckpt_size must be positive and finite\n"


@pytest.mark.parametrize("argv", [["validate-catalog"], ["plan", "--catalog"]], ids=["validate-catalog", "plan"])
def test_unknown_kind_exits_1_in_one_line(capsys, tmp_path, argv):
    path = tmp_path / "tpu.json"
    path.write_text(json.dumps({"instances": [
        {"name": "x", "kind": "tpu", "od_price": 1, "spot_price": 1, "network_gbps": 10}]}))
    code, out, err = run(capsys, *argv, str(path))
    assert code == 1 and out == ""
    assert err == 'error: instance \'x\': kind must be "gpu" or "cpu", got "tpu"\n'


def test_a_grid_one_point_over_the_limit_exits_1_in_one_line(capsys):
    code, out, err = run(capsys, "simulate", "--pw-max", "1000", "--pw-step", "0.1")
    assert code == 1 and out == ""
    assert err == "error: the PW grid has 10001 points; the limit is 10000\n"


@pytest.mark.parametrize("argv", [["validate-catalog"], ["plan", "--catalog"]], ids=["validate-catalog", "plan"])
def test_deeply_nested_catalog_exits_1_in_one_line(capsys, tmp_path, argv):
    path = tmp_path / "deep.json"
    path.write_text('{"instances": ' + "[" * 200_000 + "]" * 200_000 + "}")
    code, out, err = run(capsys, *argv, str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: malformed catalog document: maximum recursion") and err.count("\n") == 1
