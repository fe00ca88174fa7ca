"""Each value type is the one definition of its valid values.  Its constructor
converts and checks every field, and refuses a bad value with one line from
the ValueError family; its loader only maps a document onto it.  So the
constructor and the loader refuse the same values with the same message,
apart from the loader's label, and every value that constructs round-trips
through its loader.

The loaders: a catalog entry's "scaling" object for LogisticParams (whose
CatalogValidationError labels the constructor's ValueError, its cause), a
row of a `spotplan fit` CSV file for SpeedupSample, and load_saturation for
SaturationTable.
"""
import json
import math
from decimal import Decimal

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spotplan import (
    DEFAULT_PARAMS,
    Catalog,
    CatalogValidationError,
    InstanceSpec,
    Kind,
    LogisticParams,
    PlanRequest,
    SaturationTable,
    ScalingSource,
    SpeedupSample,
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
]


@pytest.mark.parametrize("text", ENTRIES)
def test_saturation_table_refuses_what_a_document_refuses(text):
    with pytest.raises(ValueError) as from_document:
        load_saturation('{"entries": %s}' % text)
    entries = json.loads(text, parse_float=Decimal)
    if not isinstance(entries, list):  # the document's own shape check, before the table sees its entries
        assert str(from_document.value) == 'saturation document must contain an "entries" list'
    with pytest.raises(ValueError) as from_constructor:
        SaturationTable(entries)
    if isinstance(entries, list):
        assert type(from_document.value) is type(from_constructor.value)
        assert str(from_document.value) == str(from_constructor.value)
    assert "\n" not in str(from_constructor.value)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(positive, st.integers(min_value=1, max_value=10**6)), max_size=8))
def test_every_saturation_table_that_constructs_round_trips(pairs):
    bws = sorted({bw for bw, _ in pairs})
    table = SaturationTable(tuple(zip(bws, sorted(n for _, n in pairs))))
    assert load_saturation(json.dumps({"entries": table.entries})) == table


# A valid value for each field of each value type.
VALID = {
    LogisticParams: dict(a=0.2, b=10.0, c=5.0),
    SpeedupSample: dict(n=2, speedup=1.5),
    ScalingSource: dict(default=DEFAULT_PARAMS),
    Catalog: dict(instances=()),
    PlanRequest: dict(pw="3", ckpt_size=0.5, buffer_count=2, max_instances=256, top_k=3),
    SweepSpec: dict(pw_min="0", pw_max="10", pw_step="0.5", policies=("planner",), ckpt_size=0.5, buffer_count=2,
                    max_instances=256),
    SaturationTable: dict(entries=((10.0, 3),)),
}
HOSTILE = [True, None, "x", [], {}, 5, 10**400, math.nan, math.inf, -1]


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
