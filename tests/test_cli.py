import csv
import hashlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import spotplan
from spotplan import bundled_aws_catalog
from spotplan.cli import main

BUNDLED = pathlib.Path(spotplan.__file__).parent / "data" / "catalogs"

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
            ('{"entries": 5}', 'must contain an "entries" list'),
            ('{"entries": [["NaN", 3]]}', "bandwidth 'NaN' is not a finite positive number"),
            ('{"entries": [["Infinity", 3]]}', "bandwidth 'Infinity' is not a finite positive number"),
            ('{"entries": [[NaN, 3]]}', "bandwidth nan is not a finite positive number"),
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


def _python(code, *args):
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(spotplan.__file__))}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True)


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

    @pytest.mark.parametrize("step, count", [("1e-9", "10000000001"), ("1e-40", "more than 10**28")])
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
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--bogus"])
        capsys.readouterr()
        assert excinfo.value.code == 1


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
            ("2,fast", "could not convert string to float: 'fast'"),
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
        assert err == "error: node count must be finite and within float range\n"

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


@pytest.mark.parametrize("argv", [["plan", "--pw", "1e40"], ["simulate"]], ids=["plan", "simulate"])
def test_max_limit_over_the_cap_exits_1_in_one_line(capsys, argv):
    code, out, err = run(capsys, *argv, "--max-limit", "10001")
    assert code == 1 and out == ""
    assert err == "error: max_instances must be in 1..10000, not 10001\n"


@pytest.mark.parametrize("command", ["plan", "simulate"])
@pytest.mark.parametrize("size", ["inf", "nan"])
def test_non_finite_ckpt_size_exits_1_in_one_line(capsys, command, size):
    code, out, err = run(capsys, command, "--ckpt-size-gib", size)
    assert code == 1 and out == ""
    assert err == "error: ckpt_size must be positive and finite\n"


@pytest.mark.parametrize("argv", [["validate-catalog"], ["plan", "--catalog"]], ids=["validate-catalog", "plan"])
def test_deeply_nested_catalog_exits_1_in_one_line(capsys, tmp_path, argv):
    path = tmp_path / "deep.json"
    path.write_text('{"instances": ' + "[" * 200_000 + "]" * 200_000 + "}")
    code, out, err = run(capsys, *argv, str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: malformed catalog document: maximum recursion") and err.count("\n") == 1
