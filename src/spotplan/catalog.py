"""Instance catalogs: validated VM specs plus the two bundled datasets.

Prices are held as exact ``Decimal`` values so that budget comparisons never
suffer binary-float drift.  A catalog is immutable after loading and safe to
share across concurrent planner workers.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass, field
from decimal import Decimal, InvalidOperation
from enum import Enum
from functools import cached_property
from importlib import resources
from typing import IO, Union

from .scaling import LogisticParams, _number, _json_text, s_hybrid

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

MAX_PRICE_PLACES = 1000  # exact budget sums have the decimal places of their most precise operand: this bounds them


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
    """Convert a price-like value to an exact, finite Decimal: 0, or one of at most MAX_PRICE_PLACES places.

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
    if (places := -price.as_tuple().exponent) > MAX_PRICE_PLACES and price:
        raise CatalogParseError(f"a price has at most {MAX_PRICE_PLACES} decimal places, not {places}")
    return price or Decimal(0)


@dataclass(frozen=True)
class InstanceSpec:
    """One VM type: prices, network bandwidth, training throughput, memory.

    ``eflops`` is the benchmarked deep-learning throughput index; it must be
    positive for available GPU instances and zero for CPU instances (CPU-VMs
    never train).  An optional per-instance logistic parameter set overrides
    the default speedup model.

    The constructor is the one definition of a valid instance: it converts each
    field once and refuses exactly what ``load_catalog`` refuses, with the same
    ``CatalogError`` and message; type messages name the document key.
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
        if not isinstance(self.name, str):  # no name to label the error with: load_catalog gives the position
            raise CatalogParseError(f"name must be a string, got {_json_text(self.name)}")
        try:
            if not isinstance(self.kind, Kind):
                raise ValueError(f"kind must be a Kind, got {_json_text(self.kind)}")
            object.__setattr__(self, "od_price", _number("od_price", self.od_price, as_price))
            object.__setattr__(self, "spot_price", _number("spot_price", self.spot_price, as_price))
            object.__setattr__(self, "network_bw", _number("network_gbps", self.network_bw))
            object.__setattr__(self, "eflops", _number("eflops", self.eflops))
            object.__setattr__(self, "memory", _number("memory_gib", self.memory))
            if not isinstance(self.available, bool):
                raise ValueError(f"available must be true or false, got {_json_text(self.available)}")
        except ValueError as exc:
            raise CatalogParseError(f"instance {self.name!r}: {exc}") from exc
        if not (self.scaling_params is None or isinstance(self.scaling_params, LogisticParams)):
            raise CatalogValidationError(f"instance {self.name!r}: scaling must be an object with keys a, b and c")
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
        elif not float(self.spot_price) > 0:  # as for a GPU's FLOPP: exact budget sums stay within float's digits
            raise bad(f"spot_price is 0 as a float ({self.spot_price})")
        # The planner relies on Z rising with n, which needs S_hybrid(1) > 0.
        params = self.scaling_params
        if params is not None and not s_hybrid(params, 1) > 0:
            raise bad("scaling gives S_hybrid(1) <= 0, that is a * (b - 1) >= 2")


@dataclass(frozen=True)
class Catalog:
    """An immutable, validated collection of instance specs."""

    instances: tuple[InstanceSpec, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not isinstance(self.instances, (tuple, list)):
            raise CatalogValidationError(f"catalog instances are a {type(self.instances).__name__}, not a tuple")
        object.__setattr__(self, "instances", tuple(self.instances))
        seen: set[str] = set()
        for idx, spec in enumerate(self.instances):
            if not isinstance(spec, InstanceSpec):
                raise CatalogValidationError(f"catalog entry #{idx} has type {type(spec).__name__}, not InstanceSpec")
            if spec.name in seen:
                raise CatalogValidationError(f"duplicate instance name {spec.name!r}")
            seen.add(spec.name)

    # The views and the planner's table (planner._planning) are built once per catalog and kept in its __dict__,
    # not as fields: equality, hashing, repr, dataclasses.replace and pickling ignore them.
    def __getstate__(self) -> dict:
        return {"instances": self.instances}

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
        def value(v):  # a price as a float where it reads back exactly, else as its exact text
            if isinstance(v, Decimal):
                return f if Decimal(repr(f := float(v))) == v else str(v)
            if isinstance(v, Kind):
                return v.value
            return asdict(v) if isinstance(v, LogisticParams) else v
        return {"instances": [{key: value(v) for key, field in _ENTRY_KEYS if (v := getattr(s, field)) is not None}
                              for s in self.instances]}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_document(), indent=indent)


# (document key, InstanceSpec field) in field order; the first five fields have no default, so their keys are required
_ENTRY_KEYS = (("name", "name"), ("kind", "kind"), ("od_price", "od_price"), ("spot_price", "spot_price"),
               ("network_gbps", "network_bw"), ("eflops", "eflops"), ("memory_gib", "memory"),
               ("available", "available"), ("scaling", "scaling_params"))
_KNOWN_ENTRY_KEYS = {key for key, _ in _ENTRY_KEYS} | {"comment"}
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


def _parse_entry(idx: int, entry: dict) -> InstanceSpec:
    """The entry's values by field, kind as a Kind and a scaling object as
    LogisticParams, for InstanceSpec to convert and check."""
    name = entry.get("name")
    label = name if isinstance(name, str) else f"#{idx}"
    unknown = set(entry) - _KNOWN_ENTRY_KEYS
    if unknown:
        warnings.warn(
            f"instance {label!r}: ignoring unknown field(s) {sorted(unknown)}",
            stacklevel=3,
        )
    try:
        fields = {field: entry[key] for key, field in _ENTRY_KEYS[:5]}
        fields["kind"] = Kind(fields["kind"])
    except KeyError as exc:
        raise CatalogParseError(f"instance {label!r}: missing required field {exc}") from exc
    except ValueError as exc:  # Kind refuses the value
        kind = _json_text(fields["kind"])
        raise CatalogParseError(f'instance {label!r}: kind must be "gpu" or "cpu", got {kind}') from exc
    fields.update((field, entry[key]) for key, field in _ENTRY_KEYS[5:] if key in entry)

    if isinstance(raw := fields.get("scaling_params"), dict):  # keys other than a, b and c are ignored
        try:
            fields["scaling_params"] = LogisticParams(raw["a"], raw["b"], raw["c"])
        except KeyError as exc:
            raise CatalogParseError(
                f"instance {label!r}: scaling object missing key {exc}"
            ) from exc
        except ValueError as exc:
            raise CatalogValidationError(f"instance {label!r}: {exc}") from exc

    try:
        return InstanceSpec(**fields)
    except CatalogParseError as exc:  # a name that is not a str: the document gives its position
        if isinstance(name, str):
            raise
        raise CatalogParseError(f"instance {label!r}: {exc}") from exc


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
