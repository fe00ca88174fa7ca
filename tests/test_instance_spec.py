"""InstanceSpec is the one definition of a valid instance: the constructor
refuses what load_catalog refuses, with the same error and message, and every
spec that constructs round-trips through a catalog document."""
import json
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spotplan import (
    Catalog,
    CatalogError,
    CatalogParseError,
    CatalogValidationError,
    InstanceSpec,
    Kind,
    LogisticParams,
    bundled_simulated_catalog,
    load_catalog,
)
from spotplan import catalog

DOC = {"name": "solo", "kind": "gpu", "od_price": 0.2, "spot_price": 0.1, "network_gbps": 10, "eflops": 10}
SPEC = dict(name="solo", kind=Kind.GPU, od_price="0.2", spot_price="0.1", network_bw=10, eflops=10)
FIELDS = {"network_gbps": "network_bw", "memory_gib": "memory", "scaling": "scaling_params"}


def spec_fields(entry):
    """The InstanceSpec fields of the document entry's keys, a scaling object
    as LogisticParams."""
    fields = {FIELDS.get(key, key): value for key, value in entry.items()}
    if isinstance(fields.get("scaling_params"), dict):
        fields["scaling_params"] = LogisticParams(**fields["scaling_params"])
    return fields


# The field values that the CLI's one-line catalog errors and the invariant
# tests of test_catalog.py pin, each with the fields InstanceSpec is given.
PINNED = [
    {"od_price": "NaN"},
    {"scaling": {"a": 0.05, "b": 50, "c": 4}},
    {"network_gbps": "Infinity"},
    {"eflops": "Infinity"},
    {"name": ["solo"]},
    {"name": {"first": "solo"}},
    {"name": 5},
    {"eflops": None},
    {"eflops": [10]},
    {"memory_gib": None},
    {"memory_gib": [16]},
    {"available": "false"},
    {"available": None},
    {"od_price": True},
    {"network_gbps": True},
    {"scaling": 5},
    {"eflops": 10**400},
    {"network_gbps": 10**400},
    {"memory_gib": 10**400},
    {"od_price": 0},
    {"spot_price": -1},
    {"network_gbps": 0},
    {"memory_gib": 0},
    {"eflops": 0},
]
CASES = [(entry, spec_fields(entry)) for entry in PINNED] + [
    ({"scaling": [1, 2, 3]}, {"scaling_params": (1, 2, 3)}),
    ({"available": 0}, {"available": 0}),
]


@pytest.mark.parametrize("entry, fields", CASES, ids=[json.dumps(entry)[:40] for entry, _ in CASES])
def test_constructor_refuses_what_the_loader_refuses(entry, fields):
    with pytest.raises(CatalogError) as from_document:
        load_catalog(json.dumps({"instances": [{**DOC, **entry}]}))
    with pytest.raises(CatalogError) as from_constructor:
        InstanceSpec(**{**SPEC, **fields})
    assert type(from_constructor.value) is type(from_document.value)
    # A document names an entry whose name is not a string by its position;
    # the constructor has none to give.
    label = "" if isinstance(fields.get("name", ""), str) else "instance '#0': "
    assert label + str(from_constructor.value) == str(from_document.value)
    assert "\n" not in str(from_constructor.value)


@pytest.mark.parametrize("kind", ["gpu", "GPU", None, 0])
def test_kind_must_be_a_kind(kind):
    with pytest.raises(CatalogParseError) as excinfo:
        InstanceSpec(**{**SPEC, "kind": kind})
    assert str(excinfo.value) == f"instance 'solo': kind must be a Kind, got {json.dumps(kind)}"


def test_catalog_refuses_an_entry_that_is_not_an_instance_spec():
    spec = InstanceSpec(**SPEC)
    for instances, position, kind in (((1,), 0, "int"), ((spec, {"name": "x"}), 1, "dict")):
        with pytest.raises(CatalogValidationError) as excinfo:
            Catalog(instances)
        assert str(excinfo.value) == f"catalog entry #{position} has type {kind}, not InstanceSpec"


def test_loading_converts_each_price_once(monkeypatch):
    """A work count: as_price runs once per price, two per instance."""
    calls = [0]

    def counting(value, real=catalog.as_price):
        calls[0] += 1
        return real(value)

    monkeypatch.setattr(catalog, "as_price", counting)
    assert len(bundled_simulated_catalog().instances) == 17
    assert calls[0] == 34


positive = st.floats(min_value=0, exclude_min=True, allow_infinity=False)
prices = st.one_of(
    st.decimals(min_value=0, allow_nan=False, allow_infinity=False),
    positive,
    st.integers(min_value=1, max_value=10**6),
)
params = st.builds(LogisticParams, a=positive, b=positive, c=positive)


@settings(max_examples=300, deadline=None)
@given(
    name=st.text(),
    kind=st.sampled_from(Kind),
    price_pair=st.lists(prices, min_size=2, max_size=2),
    network_bw=positive,
    eflops=positive,
    memory=positive,
    available=st.booleans(),
    scaling_params=st.none() | params,
)
def test_every_spec_that_constructs_round_trips(name, kind, price_pair, network_bw, eflops, memory, available,
                                                scaling_params):
    spot_price, od_price = sorted(price_pair, key=Decimal)
    try:
        spec = InstanceSpec(name=name, kind=kind, od_price=od_price, spot_price=spot_price, network_bw=network_bw,
                            eflops=eflops if kind is Kind.GPU else 0, memory=memory, available=available,
                            scaling_params=scaling_params)
    except CatalogError:
        return
    cat = Catalog((spec,))
    assert load_catalog(cat.to_json()) == cat
