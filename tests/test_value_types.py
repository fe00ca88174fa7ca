"""Each value type is the one definition of its valid values.  Its constructor
converts and checks every field, and refuses a bad value with one line from
the ValueError family; its loader only maps a document onto it.  So the
constructor and the loader refuse the same values with the same message,
apart from the loader's label, and every value that constructs round-trips
through its loader.

The loaders: a catalog entry's "scaling" object for LogisticParams (whose
CatalogValidationError labels the constructor's ValueError, its cause), a
row of a `spotplan fit` CSV file for SpeedupSample, and load_saturation for
SaturationTable.  ClusterPlan, SweepPoint and SweepResult have no loader;
hostile values are refused in one line by them too.
"""
import json
import math
from decimal import Decimal

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spotplan import (
    Catalog,
    ClusterPlan,
    CatalogParseError,
    CatalogValidationError,
    InstanceSpec,
    Kind,
    LogisticParams,
    PlanRequest,
    SaturationTable,
    SpeedupSample,
    SweepPoint,
    SweepResult,
    SweepSpec,
    load_catalog,
    load_saturation,
    s_hybrid,
)
from spotplan.cli import _read_samples, main

ENTRY = '{"name": "solo", "kind": "gpu", "od_price": 0.2, "spot_price": 0.1, "network_gbps": 10, "eflops": 10'

# Scaling objects a document may hold, each with one bad value.
SCALING = [
    '{"a": true, "b": 10, "c": 5}',
    '{"a": 0.2, "b": null, "c": 5}',
    '{"a": 0.2, "b": 10, "c": [5]}',
    '{"a": {}, "b": 10, "c": 5}',
    '{"a": "x", "b": 10, "c": 5}',
    '{"a": 1e400, "b": 10, "c": 5}',
    '{"a": 0.2, "b": %d, "c": 5}' % 10**400,
    '{"a": "Infinity", "b": 10, "c": 5}',
    '{"a": NaN, "b": 10, "c": 5}',
    '{"a": 0.2, "b": -1, "c": 5}',
    '{"a": 0.2, "b": 10, "c": 0}',
]


@pytest.mark.parametrize("text", SCALING)
def test_logistic_params_refuse_what_a_scaling_object_refuses(text):
    with pytest.raises(CatalogValidationError) as from_document:
        load_catalog('{"instances": [%s, "scaling": %s}]}' % (ENTRY, text))
    with pytest.raises(ValueError) as from_constructor:
        LogisticParams(**json.loads(text, parse_float=Decimal))
    assert type(from_document.value.__cause__) is type(from_constructor.value)
    assert str(from_document.value) == "instance 'solo': " + str(from_constructor.value)
    assert "\n" not in str(from_constructor.value)


def test_an_infinite_logistic_parameter_is_named_as_not_finite(capsys, tmp_path):
    path = tmp_path / "cat.json"
    path.write_text('{"instances": [%s, "scaling": {"a": 1e400, "b": 10, "c": 5}}]}' % ENTRY)
    assert main(["validate-catalog", str(path)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: instance 'solo': logistic parameter a must be positive and finite, got inf\n")


positive = st.floats(min_value=0, exclude_min=True, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(a=positive, b=positive, c=positive)
def test_every_logistic_params_that_constructs_round_trips(a, b, c):
    params = LogisticParams(a, b, c)
    assume(s_hybrid(params, 1) > 0)  # as an instance's model must give
    spec = InstanceSpec(name="solo", kind=Kind.GPU, od_price="0.2", spot_price="0.1", network_bw=10, eflops=10,
                        scaling_params=params)
    assert load_catalog(Catalog((spec,)).to_json()).instances[0].scaling_params == params


# CSV rows of `spotplan fit` input, each with one bad field.
ROWS = [
    ("2.5", "1.5"),
    ("0", "1.5"),
    ("-3", "1.5"),
    ("x", "1.5"),
    ("1e3", "1.5"),
    (str(10**400), "1.5"),
    ("2", "fast"),
    ("2", "0"),
    ("2", "-1"),
    ("2", "inf"),
    ("2", "nan"),
    ("2", ""),
]


@pytest.mark.parametrize("row", ROWS, ids=[",".join(row)[:20] for row in ROWS])
def test_speedup_sample_refuses_what_a_fit_row_refuses(tmp_path, row):
    path = tmp_path / "rows.csv"
    path.write_text("n,speedup\n1,1\n%s\n" % ",".join(row))
    with pytest.raises(ValueError) as from_file:
        _read_samples(str(path))
    with pytest.raises(ValueError) as from_constructor:
        SpeedupSample(*row)
    assert type(from_file.value) is type(from_constructor.value)
    assert str(from_file.value) == f"{path}, line 3: {from_constructor.value}"
    assert "\n" not in str(from_constructor.value)


@pytest.mark.parametrize("cls, fields, message", [
    (SpeedupSample, dict(n="2.5", speedup=1), "node count: invalid literal for int() with base 10: '2.5'"),
    (SpeedupSample, dict(n=1, speedup="fast"), "speedup: could not convert string to float: 'fast'"),
    (LogisticParams, dict(a="x", b=1, c=1), "a: could not convert string to float: 'x'"),
    (PlanRequest, dict(pw="3", ckpt_size="abc"), "ckpt_size: could not convert string to float: 'abc'"),
])
def test_text_that_is_no_number_is_refused_by_name(cls, fields, message):
    with pytest.raises(ValueError) as excinfo:
        cls(**fields)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("n", [2.5, math.inf, math.nan, True, None, "2.0"])
def test_a_node_count_must_be_an_int_or_its_text(n):
    with pytest.raises(ValueError):
        SpeedupSample(n, 1.0)


def test_node_counts_and_speedups_are_converted():
    assert SpeedupSample("3", "1.5") == SpeedupSample(3, 1.5) == SpeedupSample(3.0, Decimal("1.5"))
    assert type(SpeedupSample(3.0, 1).n) is int and type(SpeedupSample(3.0, 1).speedup) is float


@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=1, max_value=10**308), speedup=positive)
def test_every_speedup_sample_that_constructs_round_trips(tmp_path_factory, n, speedup):
    sample = SpeedupSample(n, speedup)
    path = tmp_path_factory.mktemp("fit") / "row.csv"
    path.write_text(f"n,speedup\n{sample.n},{sample.speedup!r}\n")
    assert _read_samples(str(path)) == [sample]


# Saturation entries a document may hold, each with one bad value.
ENTRIES = [
    "5",
    '{"0.3": 3}',
    '"entries"',
    "[[true, 3]]",
    '[["0.3", 3]]',
    "[[1e400, 3]]",
    "[[%d, 3]]" % 10**400,
    "[[0.3, 3.5]]",
    "[[0.3, 1e400]]",
    "[[0.3, %d]]" % 10**400,
    '[[0.3, "3"]]',
    "[[0.3, null]]",
    "[[0.3, 3, 4]]",
    "[[0.3, 3], [0.3, 4]]",
    "[[0.3, 3], [0.4, 2]]",
    "[]",
]


@pytest.mark.parametrize("text", ENTRIES)
def test_saturation_table_refuses_what_a_document_refuses(text):
    with pytest.raises(ValueError) as from_document:
        load_saturation('{"entries": %s}' % text)
    with pytest.raises(ValueError) as from_constructor:
        SaturationTable(json.loads(text, parse_float=Decimal))
    assert type(from_document.value) is type(from_constructor.value)
    assert str(from_document.value) == str(from_constructor.value)
    assert "\n" not in str(from_constructor.value)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(positive, st.integers(min_value=1, max_value=10**6)), min_size=1, max_size=8))
def test_every_saturation_table_that_constructs_round_trips(pairs):
    bws = sorted({bw for bw, _ in pairs})
    table = SaturationTable(tuple(zip(bws, sorted(n for _, n in pairs))))
    assert load_saturation(json.dumps({"entries": table.entries})) == table


@pytest.mark.parametrize("speedup", ["inf", "1e400"])
def test_an_infinite_speedup_is_named_as_not_finite(capsys, tmp_path, speedup):
    path = tmp_path / "rows.csv"
    path.write_text(f"n,speedup\n1,1\n4,{speedup}\n")
    assert main(["fit", str(path)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"error: {path}, line 3: speedup must be positive and finite, got inf\n")


_GPU = InstanceSpec(name="v", kind=Kind.GPU, od_price="2", spot_price="1", network_bw=10, eflops=3, memory=16)
_CPU = InstanceSpec(name="w", kind=Kind.CPU, od_price="0.5", spot_price="0.2", network_bw=10, eflops=0, memory=64)

# A valid value for each field of each value type.
VALID = {
    LogisticParams: dict(a=0.2, b=10.0, c=5.0),
    SpeedupSample: dict(n=2, speedup=1.5),
    Catalog: dict(instances=()),
    PlanRequest: dict(pw="3", ckpt_size=0.5, buffer_count=2, max_instances=256, top_k=3),
    SweepSpec: dict(pw_min="0", pw_max="10", pw_step="0.5", policies=("planner",), ckpt_size=0.5, buffer_count=2,
                    max_instances=256),
    SaturationTable: dict(entries=((10.0, 3),)),
    ClusterPlan: dict(architecture="tiering", gpu_instance=_GPU, n_gpu=4, cpu_instance=_CPU, m_cpu=1,
                      hourly_price=Decimal("4.5"), score_z=12.0),
    SweepPoint: dict(pw=Decimal(1), raw=1.0, normalized=0.5, plan=None),
    SweepResult: dict(grid=(Decimal(1),), steps={"planner": (SweepPoint(Decimal(1), 1.0, 0.5, None),)},
                      normalizer=2.0),
}
CYCLE = []
CYCLE.append(CYCLE)
HOSTILE = [True, None, "x", [], {}, {(1, 2): 3}, CYCLE, 5, 10**400, math.nan, math.inf, -1]


@pytest.mark.parametrize("cls, field", [(cls, field) for cls, fields in VALID.items() for field in fields])
def test_hostile_values_construct_or_are_refused_in_one_line(cls, field):
    """A TypeError, OverflowError or AttributeError escapes and fails the test."""
    for value in HOSTILE:
        try:
            cls(**{**VALID[cls], field: value})
        except ValueError as exc:
            assert "\n" not in str(exc), (field, value)


@pytest.mark.parametrize("cls, fields", [(PlanRequest, dict(pw=True)), (PlanRequest, dict(pw="3", ckpt_size=True)),
                                         (SweepSpec, dict(pw_step=False)), (LogisticParams, dict(a=True, b=10, c=5))])
def test_numbers_refuse_a_bool(cls, fields):
    with pytest.raises(ValueError, match="must be a number, got (true|false)$"):
        cls(**fields)


# Values that JSON cannot write, each refused by the field's name and shown by its repr.
UNWRITABLE = [({(1, 2): 3}, "{(1, 2): 3}"), (CYCLE, "[[...]]")]


@pytest.mark.parametrize("value, shown", UNWRITABLE)
def test_a_value_json_cannot_write_is_refused_by_name(value, shown):
    with pytest.raises(ValueError) as excinfo:
        LogisticParams(value, 1, 1)
    assert str(excinfo.value) == f"a must be a number, got {shown}"
    fields = dict(name="solo", kind=Kind.GPU, od_price="0.2", spot_price="0.1", network_bw=10, eflops=10)
    for field, message in [("od_price", "od_price must be a number"), ("network_bw", "network_gbps must be a number"),
                           ("kind", "kind must be a Kind"), ("available", "available must be true or false")]:
        with pytest.raises(CatalogParseError) as excinfo:
            InstanceSpec(**{**fields, field: value})
        assert str(excinfo.value) == f"instance 'solo': {message}, got {shown}"
    with pytest.raises(CatalogParseError) as excinfo:
        InstanceSpec(**{**fields, "name": value})
    assert str(excinfo.value) == f"name must be a string, got {shown}"
