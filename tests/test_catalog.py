import dataclasses
import io
import json
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spotplan import (
    Catalog,
    CatalogParseError,
    CatalogValidationError,
    InstanceSpec,
    Kind,
    LogisticParams,
    PlanRequest,
    SweepSpec,
    as_price,
    load_catalog,
    recommend,
    run_sweep,
)


def make_gpu(name="g", od="1.0", spot="0.5", bw=10, eflops=100, memory=16, **kw):
    return InstanceSpec(
        name=name, kind=Kind.GPU, od_price=od, spot_price=spot,
        network_bw=bw, eflops=eflops, memory=memory, **kw,
    )


def make_cpu(name="c", od="0.2", spot="0.1", bw=10, memory=8, **kw):
    return InstanceSpec(
        name=name, kind=Kind.CPU, od_price=od, spot_price=spot,
        network_bw=bw, eflops=0, memory=memory, **kw,
    )


def test_load_single_gpu_row():
    doc = {
        "instances": [
            {"name": "A", "kind": "gpu", "od_price": 0.75, "spot_price": 0.225,
             "network_gbps": 10, "eflops": 100, "memory_gib": 16}
        ]
    }
    cat = load_catalog(json.dumps(doc))
    assert len(cat.instances) == 1
    (a,) = cat.gpu_view
    assert a.name == "A"
    assert a.od_price == Decimal("0.75")
    assert a.spot_price == Decimal("0.225")
    assert a.network_bw == 10.0
    assert a.eflops == 100.0
    assert cat.cpu_view == ()


def test_views_are_built_once():
    gpus, cpus = (make_gpu("g1"), make_gpu("g2", available=False)), (make_cpu("c1"), make_cpu("c2"))
    cat, fresh = Catalog(gpus + cpus), Catalog(gpus + cpus)
    assert cat.gpu_view is cat.gpu_view and cat.cpu_view is cat.cpu_view
    assert [s.name for s in cat.gpu_view] == ["g1"] and [s.name for s in cat.cpu_view] == ["c1", "c2"]
    # The views are not fields: a catalog whose views were built compares,
    # hashes and prints as one whose views were not.
    assert cat == fresh and hash(cat) == hash(fresh) and repr(cat) == repr(fresh)
    assert "view" not in repr(cat)
    replaced = dataclasses.replace(cat, instances=gpus[:1] + cpus[1:])
    assert [s.name for s in replaced.gpu_view] == ["g1"] and [s.name for s in replaced.cpu_view] == ["c2"]


def test_load_empty_catalog():
    cat = load_catalog('{"instances": []}')
    assert cat.instances == ()
    assert cat.gpu_view == () and cat.cpu_view == ()


def test_spot_above_od_rejected():
    doc = {"instances": [{"name": "X", "kind": "gpu", "od_price": 0.2,
                          "spot_price": 0.3, "network_gbps": 10, "eflops": 5}]}
    with pytest.raises(CatalogValidationError, match="spot_price exceeds od_price"):
        load_catalog(json.dumps(doc))


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("od_price", 0, "od_price must be positive"),
        ("spot_price", -1, "spot_price must be positive"),
        ("network_gbps", 0, "network_bw must be positive"),
        ("memory_gib", 0, "memory must be positive"),
        ("eflops", 0, "eflops must be positive"),
    ],
)
def test_invariant_violations_name_instance(field, value, message):
    entry = {"name": "bad", "kind": "gpu", "od_price": 1, "spot_price": 0.5,
             "network_gbps": 10, "eflops": 100, "memory_gib": 16}
    entry[field] = value
    with pytest.raises(CatalogValidationError, match=f"'bad'.*{message}"):
        load_catalog(json.dumps({"instances": [entry]}))


def test_non_finite_flopp_is_refused(non_finite_flopp, sat_table):
    doc, message = non_finite_flopp
    text = json.dumps(doc)
    for use in (
        lambda: recommend(load_catalog(text), PlanRequest(pw="1.5e-10"), sat=sat_table),
        lambda: run_sweep(load_catalog(text), SweepSpec(pw_min="1.5e-10", pw_max="1.6e-10", pw_step="1e-11"),
                          sat=sat_table),
    ):
        with pytest.raises(CatalogValidationError) as excinfo:
            use()
        assert str(excinfo.value) == message


def test_cpu_with_nonzero_eflops_rejected():
    with pytest.raises(CatalogValidationError, match="eflops must be 0"):
        InstanceSpec(name="c", kind=Kind.CPU, od_price="0.2", spot_price="0.1",
                     network_bw=10, eflops=5, memory=8)


def test_unavailable_gpu_may_lack_benchmark():
    spec = InstanceSpec(name="p", kind=Kind.GPU, od_price="1", spot_price="0.5",
                        network_bw=10, eflops=0, memory=16, available=False)
    cat = Catalog((spec,))
    assert cat.gpu_view == ()  # retained but not plannable
    assert cat.instances == (spec,)


def test_duplicate_names_rejected():
    with pytest.raises(CatalogValidationError, match="duplicate"):
        Catalog((make_gpu("X"), make_cpu("X")))


def test_unknown_fields_warn_but_load():
    doc = {"instances": [{"name": "A", "kind": "gpu", "od_price": 1,
                          "spot_price": 0.5, "network_gbps": 10, "eflops": 100,
                          "memory_gib": 16, "color": "red"}]}
    with pytest.warns(UserWarning, match="unknown field"):
        cat = load_catalog(json.dumps(doc))
    assert cat.by_name("A").eflops == 100


def test_malformed_document():
    with pytest.raises(CatalogParseError):
        load_catalog(b"{not json")
    with pytest.raises(CatalogParseError):
        load_catalog("[1, 2]")
    with pytest.raises(CatalogParseError, match="missing required field"):
        load_catalog('{"instances": [{"name": "A"}]}')


def test_scaling_override_parsed():
    doc = {"instances": [{"name": "A", "kind": "gpu", "od_price": 1,
                          "spot_price": 0.5, "network_gbps": 10, "eflops": 100,
                          "memory_gib": 16,
                          "scaling": {"a": 0.2, "b": 10, "c": 5}}]}
    cat = load_catalog(json.dumps(doc))
    params = cat.by_name("A").scaling_params
    assert (params.a, params.b, params.c) == (0.2, 10.0, 5.0)


def test_bundled_simulated_contents(simulated_catalog):
    cat = simulated_catalog
    assert len(cat.gpu_view) == 10
    assert len(cat.cpu_view) == 7
    i = cat.by_name("I")
    assert i.od_price == Decimal("1.622")
    assert i.spot_price == Decimal("0.487")
    assert i.network_bw == 30.0
    assert i.eflops == 900.0
    k = cat.by_name("K")
    assert k.od_price == Decimal("0.199")
    assert k.spot_price == Decimal("0.126")
    assert k.network_bw == 1.7
    assert k.kind is Kind.CPU


def test_bundled_aws_contents(aws_catalog):
    cat = aws_catalog
    # only the three benchmarked GPU types are plannable
    assert [g.name for g in cat.gpu_view] == ["g3s.xlarge", "g4dn.xlarge", "g5.xlarge"]
    assert len(cat.cpu_view) == 8
    g4 = cat.by_name("g4dn.xlarge")
    assert g4.spot_price == Decimal("0.1941")
    assert g4.eflops == 377.0
    assert cat.by_name("c4.xlarge").network_bw == 1.7
    assert cat.by_name("p2.16xlarge").available is False


def test_round_trip_bundled(simulated_catalog):
    again = load_catalog(simulated_catalog.to_json())
    assert again == simulated_catalog


def test_as_price_exact():
    assert as_price(0.1941) == Decimal("0.1941")
    assert as_price("0.1") == Decimal("0.1")
    assert as_price(3) == Decimal(3)


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "sNaN", float("nan"),
                                   float("inf"), Decimal("NaN"), Decimal("-Infinity")])
def test_as_price_rejects_non_finite(value):
    with pytest.raises(CatalogParseError, match="not a finite price"):
        as_price(value)


def test_nan_price_in_document_rejected():
    doc = {"instances": [{"name": "A", "kind": "gpu", "od_price": "NaN",
                          "spot_price": 0.5, "network_gbps": 10, "eflops": 100}]}
    with pytest.raises(CatalogParseError, match="not a finite price"):
        load_catalog(json.dumps(doc))


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("network_gbps", "Infinity", "network_bw must be finite"),
        ("eflops", "Infinity", "eflops must be finite"),
        ("memory_gib", "Infinity", "memory must be finite"),
        ("eflops", "NaN", "eflops must be finite"),  # an unavailable gpu skips the eflops > 0 check
    ],
)
def test_non_finite_numbers_rejected(field, value, message):
    entry = {"name": "bad", "kind": "gpu", "od_price": 1, "spot_price": 0.5,
             "network_gbps": 10, "eflops": 100, "memory_gib": 16, "available": False}
    entry[field] = value
    with pytest.raises(CatalogValidationError, match=f"'bad': {message}"):
        load_catalog(json.dumps({"instances": [entry]}))


def test_scaling_with_nonpositive_start_rejected():
    # a * (b - 1) >= 2 puts the tangent, and so S_hybrid(1), at or below 0.
    doc = {"instances": [{"name": "A", "kind": "gpu", "od_price": 1,
                          "spot_price": 0.5, "network_gbps": 10, "eflops": 100,
                          "scaling": {"a": 0.05, "b": 50, "c": 4}}]}
    with pytest.raises(CatalogValidationError, match="'A': scaling gives S_hybrid"):
        load_catalog(json.dumps(doc))


price_4dp = st.integers(min_value=1, max_value=10**8).map(lambda i: Decimal(i) / 10000)


@settings(max_examples=60, deadline=None)
@given(
    od=price_4dp,
    spot_frac=st.integers(min_value=1, max_value=10000),
    bw=st.floats(min_value=0.1, max_value=400, allow_nan=False),
    eflops=st.integers(min_value=1, max_value=10**6),
    kind=st.sampled_from([Kind.GPU, Kind.CPU]),
)
def test_round_trip_random_instance(od, spot_frac, bw, eflops, kind):
    spot = (od * spot_frac / 10000).quantize(Decimal("0.0001")) or Decimal("0.0001")
    spot = min(spot, od)
    spec = InstanceSpec(
        name="x", kind=kind, od_price=od, spot_price=spot, network_bw=bw,
        eflops=eflops if kind is Kind.GPU else 0, memory=16,
    )
    cat = Catalog((spec,))
    again = load_catalog(cat.to_json())
    assert again == cat
    assert again.by_name("x").od_price == od
    assert again.by_name("x").spot_price == spot


def test_invalid_price_text_rejected():
    with pytest.raises(CatalogParseError, match=r"^not a valid price: 'abc'$"):
        as_price("abc")


def test_empty_name_rejected():
    with pytest.raises(CatalogValidationError, match="^instance with empty name$"):
        make_gpu(name="")


def test_negative_eflops_rejected_on_unavailable_gpu():
    with pytest.raises(CatalogValidationError, match="^instance 'g': eflops must not be negative$"):
        make_gpu(eflops=-1, available=False)


_ENTRY = '{"name": "A", "kind": "gpu", "od_price": 1, "spot_price": 0.5, "network_gbps": 10, "eflops": 100'


@pytest.mark.parametrize(
    "doc, message",
    [
        ('{"comment": "no instances"}', 'catalog document must contain an "instances" list'),
        ('{"instances": {"A": {}}}', 'catalog document must contain an "instances" list'),
        ('{"instances": [5]}', "instance entry #0 is not an object"),
        ('{"instances": [%s, "scaling": {"a": 0.2, "b": 10}}]}' % _ENTRY, "instance 'A': scaling object missing key 'c'"),
    ],
    ids=["no-instances", "instances-not-a-list", "entry-not-an-object", "scaling-missing-key"],
)
def test_document_shape_errors_name_the_problem(doc, message):
    with pytest.raises(CatalogParseError) as excinfo:
        load_catalog(doc)
    assert str(excinfo.value) == message


def test_unknown_top_level_field_warns_but_loads():
    with pytest.warns(UserWarning, match=r"^ignoring unknown catalog field\(s\): \['extra'\]$"):
        cat = load_catalog('{"instances": [], "extra": 1}')
    assert cat.instances == ()


def test_by_name_raises_key_error_for_a_missing_name(simulated_catalog):
    with pytest.raises(KeyError, match="nope"):
        simulated_catalog.by_name("nope")


def test_to_json_round_trips_an_instance_with_its_own_fit():
    cat = Catalog((make_gpu(scaling_params=LogisticParams(0.2, 10.0, 5.0)), make_cpu()))
    assert load_catalog(cat.to_json()) == cat
    assert json.loads(cat.to_json(indent=None))["instances"][0]["scaling"] == {"a": 0.2, "b": 10.0, "c": 5.0}


# Documents that cannot be decoded or parsed: each is a CatalogParseError
# naming the document, never a bare UnicodeDecodeError or ValueError.
UNREADABLE = {
    "not-utf8": lambda: b"\xff",
    "not-utf8-file": lambda: io.BytesIO(b'{"instances": []\xff}'),
    "not-utf8-text-file": lambda: io.TextIOWrapper(io.BytesIO(b'{"instances": []\xff}'), encoding="utf-8"),
    "int-over-4300-digits": lambda: '{"instances": [' + "1" * 5000 + "]}",
}


@pytest.mark.parametrize("source", UNREADABLE.values(), ids=UNREADABLE.keys())
def test_unreadable_document_is_a_parse_error(source):
    with pytest.raises(CatalogParseError, match="^malformed catalog document: "):
        load_catalog(source())
