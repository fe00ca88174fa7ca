"""Instance catalogs: validated VM specs plus the two bundled datasets.

Prices are held as exact ``Decimal`` values so that budget comparisons never
suffer binary-float drift.  A catalog is immutable after loading and safe to
share across concurrent planner workers.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from enum import Enum
from functools import cached_property
from importlib import resources
from typing import IO, Any, Union

from .scaling import LogisticParams, s_hybrid

__all__ = [
    "Kind",
    "InstanceSpec",
    "Catalog",
    "CatalogError",
    "CatalogParseError",
    "CatalogValidationError",
    "as_price",
    "load_catalog",
    "load_catalog_file",
    "bundled_simulated_catalog",
    "bundled_aws_catalog",
]


class CatalogError(ValueError):
    """Base class for catalog problems, which are all ValueErrors."""


class CatalogParseError(CatalogError):
    """The document is not well-formed."""


class CatalogValidationError(CatalogError):
    """The document parsed but violates an instance or catalog invariant."""


class Kind(Enum):
    GPU = "gpu"
    CPU = "cpu"


def as_price(value: Union[Decimal, int, str, float]) -> Decimal:
    """Convert a price-like value to an exact, finite Decimal.

    Floats are routed through their shortest repr, so ``as_price(0.1941)``
    gives exactly ``Decimal("0.1941")``.  NaN and infinities are rejected.
    """
    if isinstance(value, float):
        value = str(value)
    try:
        price = Decimal(value)
    except InvalidOperation as exc:
        raise CatalogParseError(f"not a valid price: {value!r}") from exc
    if not price.is_finite():
        raise CatalogParseError(f"not a finite price: {value!r}")
    return price


@dataclass(frozen=True)
class InstanceSpec:
    """One VM type: prices, network bandwidth, training throughput, memory.

    ``eflops`` is the benchmarked deep-learning throughput index; it must be
    positive for available GPU instances and zero for CPU instances (CPU-VMs
    never train).  An optional per-instance logistic parameter set overrides
    the default speedup model.
    """

    name: str
    kind: Kind
    od_price: Decimal
    spot_price: Decimal
    network_bw: float
    eflops: float = 0.0
    memory: float = 8.0
    available: bool = True
    scaling_params: LogisticParams | None = None

    def __post_init__(self):
        object.__setattr__(self, "od_price", as_price(self.od_price))
        object.__setattr__(self, "spot_price", as_price(self.spot_price))
        object.__setattr__(self, "network_bw", float(self.network_bw))
        object.__setattr__(self, "eflops", float(self.eflops))
        object.__setattr__(self, "memory", float(self.memory))
        self._validate()

    def _validate(self) -> None:
        def bad(reason: str) -> CatalogValidationError:
            return CatalogValidationError(f"instance {self.name!r}: {reason}")

        if not self.name:
            raise CatalogValidationError("instance with empty name")
        if not self.od_price > 0:
            raise bad("od_price must be positive")
        if not self.spot_price > 0:
            raise bad("spot_price must be positive")
        if self.spot_price > self.od_price:
            raise bad("spot_price exceeds od_price")
        # Plans report prices as floats.  With spot_price <= od_price, a finite
        # float od_price makes the spot price finite too.
        if not math.isfinite(float(self.od_price)):
            raise bad(f"od_price is not a finite float ({self.od_price})")
        if not self.network_bw > 0:
            raise bad("network_bw must be positive")
        if not self.memory > 0:
            raise bad("memory must be positive")
        for name in ("network_bw", "eflops", "memory"):
            if not math.isfinite(getattr(self, name)):
                raise bad(f"{name} must be finite")
        if self.kind is Kind.GPU:
            # Unavailable GPU entries may lack a benchmark (eflops 0); they
            # are excluded from planning anyway.
            if self.available and not self.eflops > 0:
                raise bad("eflops must be positive for an available gpu instance")
            if self.eflops < 0:
                raise bad("eflops must not be negative")
            # The planner's FLOPP divides eflops by each price as floats.  With
            # spot_price <= od_price, a finite SPFP makes the ODFP finite too.
            spot = float(self.spot_price)
            if not (spot > 0 and math.isfinite(self.eflops / spot)):
                raise bad(f"eflops / spot_price is not a finite float ({self.eflops!r} / {spot!r})")
        elif self.eflops != 0:
            raise bad("eflops must be 0 for cpu instances")
        # The planner relies on Z rising with n, which needs S_hybrid(1) > 0.
        params = self.scaling_params
        if params is not None and not s_hybrid(params, 1) > 0:
            raise bad("scaling gives S_hybrid(1) <= 0, that is a * (b - 1) >= 2")


@dataclass(frozen=True)
class Catalog:
    """An immutable, validated collection of instance specs."""

    instances: tuple[InstanceSpec, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "instances", tuple(self.instances))
        seen: set[str] = set()
        for spec in self.instances:
            if spec.name in seen:
                raise CatalogValidationError(f"duplicate instance name {spec.name!r}")
            seen.add(spec.name)

    # The views are built once per catalog and are not fields, so equality,
    # hashing, repr and dataclasses.replace ignore them.
    @cached_property
    def gpu_view(self) -> tuple[InstanceSpec, ...]:
        """Available GPU instances, in catalog order."""
        return tuple(s for s in self.instances if s.kind is Kind.GPU and s.available)

    @cached_property
    def cpu_view(self) -> tuple[InstanceSpec, ...]:
        """Available CPU instances, in catalog order."""
        return tuple(s for s in self.instances if s.kind is Kind.CPU and s.available)

    def by_name(self, name: str) -> InstanceSpec:
        for spec in self.instances:
            if spec.name == name:
                return spec
        raise KeyError(name)

    def to_document(self) -> dict:
        """Plain-JSON representation (round-trips through load_catalog)."""
        entries = []
        for s in self.instances:
            entry: dict[str, Any] = {
                "name": s.name,
                "kind": s.kind.value,
                "od_price": float(s.od_price),
                "spot_price": float(s.spot_price),
                "network_gbps": s.network_bw,
                "eflops": s.eflops,
                "memory_gib": s.memory,
                "available": s.available,
            }
            if s.scaling_params is not None:
                p = s.scaling_params
                entry["scaling"] = {"a": p.a, "b": p.b, "c": p.c}
            entries.append(entry)
        return {"instances": entries}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_document(), indent=indent)


_KNOWN_ENTRY_KEYS = {
    "name",
    "kind",
    "od_price",
    "spot_price",
    "network_gbps",
    "eflops",
    "memory_gib",
    "available",
    "scaling",
    "comment",
}
_KNOWN_TOP_KEYS = {"instances", "comment"}


def load_catalog(source: Union[bytes, str, IO]) -> Catalog:
    """Parse and validate a catalog document (JSON text, bytes, or file).

    Unknown fields are ignored with a warning.  ``memory_gib`` defaults to
    8 GiB and ``eflops`` to 0 when omitted.
    """
    doc = _read_json(source, "catalog", CatalogParseError)
    if not isinstance(doc, dict):
        raise CatalogParseError("catalog document must be a JSON object")

    unknown_top = set(doc) - _KNOWN_TOP_KEYS
    if unknown_top:
        warnings.warn(
            f"ignoring unknown catalog field(s): {sorted(unknown_top)}", stacklevel=2
        )
    if "instances" not in doc or not isinstance(doc["instances"], list):
        raise CatalogParseError('catalog document must contain an "instances" list')

    specs = []
    for idx, entry in enumerate(doc["instances"]):
        if not isinstance(entry, dict):
            raise CatalogParseError(f"instance entry #{idx} is not an object")
        specs.append(_parse_entry(idx, entry))
    return Catalog(tuple(specs))


def _read_json(source: Union[bytes, str, IO], what: str, error: type[Exception]):
    """The JSON document in source (text, UTF-8 bytes or a file), with floats
    as Decimal; raises error(...) if it cannot be decoded or parsed.  The read
    is inside the try, since a text file decodes as it reads."""
    try:
        if hasattr(source, "read"):
            source = source.read()
        if isinstance(source, bytes):
            source = source.decode("utf-8")
        return json.loads(source, parse_float=Decimal)
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError and JSONDecodeError among them
        raise error(f"malformed {what} document: {exc}") from exc


def _is_number(x) -> bool:
    """A JSON number: int, float or Decimal, and not a bool."""
    return isinstance(x, (int, float, Decimal)) and not isinstance(x, bool)


def _number(key: str, value):
    """value, given that it is a number or a string such as "Infinity"; a
    TypeError names the key otherwise."""
    if not (_is_number(value) or isinstance(value, str)):
        raise TypeError(f"{key} must be a number, got {json.dumps(value, default=str)}")
    return value


def _parse_entry(idx: int, entry: dict) -> InstanceSpec:
    name = entry.get("name")
    label = name if isinstance(name, str) else f"#{idx}"
    unknown = set(entry) - _KNOWN_ENTRY_KEYS
    if unknown:
        warnings.warn(
            f"instance {label!r}: ignoring unknown field(s) {sorted(unknown)}",
            stacklevel=3,
        )
    try:
        if not isinstance(entry["name"], str):
            raise TypeError(f"name must be a string, got {json.dumps(name, default=str)}")
        kind = Kind(entry["kind"])
        od_price = as_price(_number("od_price", entry["od_price"]))
        spot_price = as_price(_number("spot_price", entry["spot_price"]))
        network = float(_number("network_gbps", entry["network_gbps"]))
        eflops = float(_number("eflops", entry.get("eflops", 0.0)))
        memory = float(_number("memory_gib", entry.get("memory_gib", 8.0)))
        available = entry.get("available", True)
        if not isinstance(available, bool):
            raise TypeError(f"available must be true or false, got {json.dumps(available, default=str)}")
    except KeyError as exc:
        raise CatalogParseError(f"instance {label!r}: missing required field {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise CatalogParseError(f"instance {label!r}: {exc}") from exc

    scaling = None
    if entry.get("scaling") is not None:
        raw = entry["scaling"]
        try:
            if not isinstance(raw, dict):
                raise TypeError("scaling must be an object with keys a, b and c")
            scaling = LogisticParams(*(float(_number(key, raw[key])) for key in "abc"))
        except KeyError as exc:
            raise CatalogParseError(
                f"instance {label!r}: scaling object missing key {exc}"
            ) from exc
        except (ValueError, TypeError) as exc:
            raise CatalogValidationError(f"instance {label!r}: {exc}") from exc

    return InstanceSpec(
        name=name,
        kind=kind,
        od_price=od_price,
        spot_price=spot_price,
        network_bw=network,
        eflops=eflops,
        memory=memory,
        available=available,
        scaling_params=scaling,
    )


def load_catalog_file(path) -> Catalog:
    """Load a catalog from a filesystem path."""
    with open(path, "rb") as fh:
        return load_catalog(fh)


def _bundled(name: str) -> Catalog:
    data = resources.files("spotplan").joinpath(f"data/catalogs/{name}")
    return load_catalog(data.read_bytes())


def bundled_simulated_catalog() -> Catalog:
    """The 17-instance simulated catalog (10 GPU types A-J, 7 CPU types K-Q)."""
    return _bundled("simulated.json")


def bundled_aws_catalog() -> Catalog:
    """AWS N.Virginia instance types and prices as listed in October 2023."""
    return _bundled("aws-2023-10.json")
