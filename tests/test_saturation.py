import io
import math
import re
from decimal import Decimal
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spotplan import (
    InstanceSpec,
    Kind,
    PlanRequest,
    SaturationTable,
    default_saturation_table,
    load_saturation,
    load_saturation_file,
    min_cpu_count,
    n_sat_lookup,
    recommend,
    saturation,
)

TABLE_V = {0.3: 3, 1.7: 12, 5: 16, 10: 20, 12.5: 24, 15: 24, 25: 28, 30: 32}


def inst(bw, kind=Kind.GPU, name="x"):
    return InstanceSpec(
        name=name, kind=kind, od_price="1", spot_price="0.5", network_bw=bw,
        eflops=100 if kind is Kind.GPU else 0, memory=16,
    )


def test_exact_keys(sat_table):
    for bw, expected in TABLE_V.items():
        assert n_sat_lookup(sat_table, inst(bw), inst(bw, Kind.CPU, "y")) == expected


def test_bottleneck_is_min_bandwidth(sat_table):
    assert n_sat_lookup(sat_table, inst(25), inst(1.7, Kind.CPU, "y")) == 12
    assert n_sat_lookup(sat_table, inst(1.7), inst(25, Kind.CPU, "y")) == 12


def test_floor_between_keys(sat_table):
    assert n_sat_lookup(sat_table, inst(11), inst(11, Kind.CPU, "y")) == 20


def test_below_smallest_key(sat_table):
    assert n_sat_lookup(sat_table, inst(0.1), inst(0.1, Kind.CPU, "y")) == 3


def test_above_largest_key(sat_table):
    assert n_sat_lookup(sat_table, inst(100), inst(100, Kind.CPU, "y")) == 32


def test_monotone_in_bandwidth(sat_table):
    probes = [0.1, 0.3, 1.0, 1.7, 3, 5, 8, 10, 11, 12.5, 14, 15, 20, 25, 29, 30, 50]
    values = [n_sat_lookup(sat_table, inst(bw), inst(bw, Kind.CPU, "y")) for bw in probes]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_empty_table_errors():
    empty = SaturationTable(())
    with pytest.raises(ValueError, match="empty"):
        n_sat_lookup(empty, inst(10), inst(10, Kind.CPU, "y"))


def test_table_invariants_enforced():
    with pytest.raises(ValueError):
        SaturationTable(((5, 16), (5, 18)))  # not strictly increasing
    with pytest.raises(ValueError):
        SaturationTable(((1, 10), (2, 8)))  # n_sat decreases
    with pytest.raises(ValueError):
        SaturationTable(((1, 0),))  # n_sat below 1


def test_load_saturation_document():
    table = load_saturation('{"entries": [[0.3, 3], [1.7, 12]]}')
    assert table.entries == ((0.3, 3), (1.7, 12))
    with pytest.raises(ValueError):
        load_saturation('{"rows": []}')


# Documents that must be refused, with the message each gives.
BAD_DOCUMENTS = {
    '{"entries": 5}': 'must contain an "entries" list',
    '{"entries": {"0.3": 3}}': 'must contain an "entries" list',
    '{"entries": [["NaN", 3]]}': "bandwidth 'NaN' is not a finite positive number",
    '{"entries": [["Infinity", 3]]}': "bandwidth 'Infinity' is not a finite positive number",
    '{"entries": [[NaN, 3]]}': "bandwidth nan is not a finite positive number",
    '{"entries": [[Infinity, 3]]}': "bandwidth inf is not a finite positive number",
    '{"entries": [[1e400, 3]]}': "bandwidth 1E+400 is not a finite positive number",
    '{"entries": [[0, 3]]}': "bandwidth 0 is not a finite positive number",
    '{"entries": [["0.3", 3]]}': "bandwidth '0.3' is not a finite positive number",
    '{"entries": [[true, 3]]}': "bandwidth True is not a finite positive number",
    '{"entries": [[0.3, 3, 4]]}': "entry [Decimal('0.3'), 3, 4] is not a [bandwidth, n_sat] pair",
    '{"entries": [[0.3]]}': "entry [Decimal('0.3')] is not a [bandwidth, n_sat] pair",
    '{"entries": [5]}': "entry 5 is not a [bandwidth, n_sat] pair",
    '{"entries": ["ab"]}': "entry 'ab' is not a [bandwidth, n_sat] pair",
    '{"entries": [[0.3, 3.7]]}': "n_sat 3.7 is not an integer",
    '{"entries": [[0.3, NaN]]}': "n_sat nan is not an integer",
    '{"entries": [[0.3, Infinity]]}': "n_sat inf is not an integer",
    '{"entries": [[0.3, "3"]]}': "n_sat '3' is not an integer",
    '{"entries": [[0.3, null]]}': "n_sat None is not an integer",
}


@pytest.mark.parametrize("doc", BAD_DOCUMENTS)
def test_malformed_documents_are_refused(doc):
    with pytest.raises(ValueError, match=re.escape(BAD_DOCUMENTS[doc]) + "$"):
        load_saturation(doc)


def test_bandwidth_beyond_float_range_is_refused():
    big = "1" + "0" * 400
    with pytest.raises(ValueError, match=f"^saturation bandwidth {big} is not a finite positive number$"):
        load_saturation('{"entries": [[%s, 3]]}' % big)


# Documents that cannot be decoded or parsed: one ValueError naming the
# document, never a UnicodeDecodeError or a bare JSON message.
UNREADABLE = {
    "not-utf8": lambda: b"\xff",
    "not-utf8-file": lambda: io.BytesIO(b'{"entries": []\xff}'),
    "int-over-4300-digits": lambda: '{"entries": [[0.3, ' + "1" * 5000 + "]]}",
    "syntax": lambda: '{"entries": [[0.3, 3]]',
}


@pytest.mark.parametrize("source", UNREADABLE.values(), ids=UNREADABLE.keys())
def test_unreadable_document_is_refused_in_one_line(source):
    with pytest.raises(ValueError) as excinfo:
        load_saturation(source())
    assert type(excinfo.value) is ValueError
    assert str(excinfo.value).startswith("malformed saturation document: ") and "\n" not in str(excinfo.value)


def test_integral_n_sat_is_kept_as_int():
    table = load_saturation('{"entries": [[0.3, 3.0], [1.7, 1.2e1]]}')
    assert table.entries == ((0.3, 3), (1.7, 12))
    assert all(type(n) is int for _, n in table.entries)


def test_table_refuses_non_finite_bandwidth_and_fractional_n_sat():
    for entries in (((math.nan, 3),), ((math.inf, 3),), ((0.3, 3.7),), ((0.3, Decimal("3.5")),), ((0.3, Decimal("Infinity")),), ((0.3, 3, 4),)):
        with pytest.raises(ValueError):
            SaturationTable(entries)


def test_default_table_is_parsed_once(monkeypatch):
    calls = []
    real = saturation.load_saturation

    def counting(source):
        calls.append(source)
        return real(source)

    monkeypatch.setattr(saturation, "load_saturation", counting)
    default_saturation_table.cache_clear()
    try:
        first = default_saturation_table()
        assert all(default_saturation_table() is first for _ in range(5))
        assert len(calls) == 1
    finally:
        default_saturation_table.cache_clear()


def test_recommend_without_sat_uses_the_bundled_table(simulated_catalog, aws_catalog):
    path = resources.files("spotplan").joinpath("data/saturation.json")
    with resources.as_file(path) as fs_path:
        explicit = load_saturation_file(fs_path)
    assert explicit == default_saturation_table()
    for catalog in (simulated_catalog, aws_catalog):
        for pw in ("0.5", "3", "12", "60"):
            req = PlanRequest(pw=pw, top_k=5)
            assert recommend(catalog, req) == recommend(catalog, req, sat=explicit)


class TestMinCpuCount:
    def test_reference_sizing_example(self):
        assert min_cpu_count(32, 12) == 3

    def test_single_sender(self):
        assert min_cpu_count(1, 3) == 1

    def test_exact_multiple_needs_one_more(self):
        # 24/2 = 12 is not strictly below 12, so three receivers are needed.
        assert min_cpu_count(24, 12) == 3

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            min_cpu_count(0, 3)
        with pytest.raises(ValueError):
            min_cpu_count(3, 0)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(min_value=1, max_value=10**6), ns=st.integers(min_value=1, max_value=10**4))
    def test_minimality_property(self, n, ns):
        m = min_cpu_count(n, ns)
        assert m >= 1
        assert n / m < ns
        if m > 1:
            assert n / (m - 1) >= ns

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=1000),
        ns=st.integers(min_value=1, max_value=100),
    )
    def test_monotonicity(self, n, ns):
        assert min_cpu_count(n + 1, ns) >= min_cpu_count(n, ns)
        assert min_cpu_count(n, ns + 1) <= min_cpu_count(n, ns)
