"""Network saturation policy for N-to-1 checkpoint shard transfer.

A single CPU receiver only tolerates so many GPU senders before transfer
time stops improving.  The measured saturation points are keyed by link
bandwidth; the effective bandwidth of a (sender, receiver) pair is the
bottleneck (minimum) of the two, and lookups floor to the nearest lower key.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from decimal import Decimal
from functools import cache
from importlib import resources
from operator import itemgetter
from typing import IO, Union

from .catalog import InstanceSpec, _is_number, _read_json

__all__ = [
    "SaturationTable",
    "n_sat_lookup",
    "min_cpu_count",
    "load_saturation",
    "load_saturation_file",
    "default_saturation_table",
]


def _shown(x) -> str:
    return str(x) if isinstance(x, Decimal) else repr(x)  # JSON numbers parse to Decimal


def _entry(row) -> tuple[float, int]:
    """One [bandwidth, n_sat] pair: a finite positive bandwidth and an
    integral n_sat."""
    if not isinstance(row, (list, tuple)) or len(row) != 2:
        raise ValueError(f"saturation entry {row!r} is not a [bandwidth, n_sat] pair")
    bw, n = row
    try:
        bw_ok = _is_number(bw) and 0 < float(bw) < math.inf
    except OverflowError:  # an int beyond float range
        bw_ok = False
    if not bw_ok:
        raise ValueError(f"saturation bandwidth {_shown(bw)} is not a finite positive number")
    try:
        n_ok = _is_number(n) and int(n) == n
    except (ValueError, OverflowError):  # NaN or infinite
        n_ok = False
    if not n_ok:
        raise ValueError(f"n_sat {_shown(n)} is not an integer")
    return float(bw), int(n)


@dataclass(frozen=True)
class SaturationTable:
    """(bandwidth Gbps, n_sat) pairs, ascending by bandwidth."""

    entries: tuple[tuple[float, int], ...]

    def __post_init__(self):
        normalized = tuple(_entry(row) for row in self.entries)
        object.__setattr__(self, "entries", normalized)
        prev_bw, prev_n = 0.0, 0
        for bw, n in normalized:
            if bw <= prev_bw:
                raise ValueError("saturation bandwidths must be strictly increasing")
            if n < max(prev_n, 1):
                raise ValueError("n_sat values must be >= 1 and non-decreasing")
            prev_bw, prev_n = bw, n


def n_sat_lookup(table: SaturationTable, v: InstanceSpec, w: InstanceSpec) -> int:
    """Saturation point for GPU senders v feeding one CPU receiver w.

    Keys on the bottleneck bandwidth min(v, w); floors to the nearest lower
    table key, or the smallest key when below the table.
    """
    if not table.entries:
        raise ValueError("saturation table is empty")
    beta = min(v.network_bw, w.network_bw)
    idx = bisect_right(table.entries, beta, key=itemgetter(0)) - 1
    if idx < 0:
        idx = 0
    return table.entries[idx][1]


def min_cpu_count(n_gpu: int, n_sat: int) -> int:
    """Smallest receiver count m >= 1 with n_gpu / m strictly below n_sat."""
    if n_gpu < 1 or n_sat < 1:
        raise ValueError("n_gpu and n_sat must be >= 1")
    return n_gpu // n_sat + 1


def load_saturation(source: Union[bytes, str, IO]) -> SaturationTable:
    """Parse a saturation table document: {"entries": [[bw, n_sat], ...]}."""
    doc = _read_json(source, "saturation", ValueError)
    if not isinstance(doc, dict) or not isinstance(doc.get("entries"), list):
        raise ValueError('saturation document must contain an "entries" list')
    return SaturationTable(doc["entries"])


def load_saturation_file(path) -> SaturationTable:
    with open(path, "rb") as fh:
        return load_saturation(fh)


@cache
def default_saturation_table() -> SaturationTable:
    """The bundled measured table, read and parsed once per process."""
    data = resources.files("spotplan").joinpath("data/saturation.json")
    return load_saturation(data.read_bytes())
