"""Seeded input generator for the benchmark workloads.

Everything the program under test sees is produced here as the bytes it
parses: catalog JSON documents (read with ``load_catalog``), speedup CSV files
(read by ``spotplan fit``) and plan-request fields.  The same seed always gives
byte-identical inputs; every random draw goes through one ``random.Random``
per input family, derived from the seed and a family label.

Draws are stratified: a value drawn from a list comes from a shuffled deck,
so each appears equally often, and a continuous draw falls in a shuffled
stratum of its range.  The inputs keep the stated distributions, but two
seeds differ less in how much work they ask for, which is what lets runs on
different seeds be compared.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

from spotplan.scaling import REFERENCE_MODEL_FITS

# Bandwidths are keys of the bundled saturation table, so every (v, w) pair
# hits a measured n_sat value.
GPU_BANDWIDTHS = (1.7, 5, 10, 12.5, 15, 25, 30)
CPU_BANDWIDTHS = (0.3, 1.7, 5, 10, 12.5, 15, 25, 30)
GPU_MEMORY_GIB = (16, 24, 32, 48, 80)
CPU_MEMORY_GIB = (0.5, 2, 4, 8, 16, 32)
MAX_INSTANCES = (16, 64, 256, 1024)
CKPT_SIZES_GIB = (0.5, 1.0, 2.0, 4.0)
BUFFER_COUNTS = (1, 2, 3)

POOL_SIZE = 50
STREAM_LEN = 16000
UPDATE_SHARE = 0.1
FIT_POINTS = 32


def rng_for(seed: int, family: str) -> random.Random:
    """Independent, reproducible generator for one input family."""
    return random.Random(f"{seed}:{family}")


class Deck:
    """Draws from ``values`` so that each comes up equally often: a shuffled
    deck, refilled when it runs out."""

    def __init__(self, rng: random.Random, values):
        self.rng, self.values, self.cards = rng, list(values), []

    def draw(self):
        if not self.cards:
            self.cards = list(self.values)
            self.rng.shuffle(self.cards)
        return self.cards.pop()


def _strata(rng: random.Random, count: int) -> list[float]:
    """``count`` draws from [0, 1), one in each equal-width stratum, shuffled."""
    draws = [(k + rng.random()) / count for k in range(count)]
    rng.shuffle(draws)
    return draws


def _log_scale(u: float, lo: float, hi: float) -> float:
    """Map u in [0, 1) log-uniformly onto [lo, hi)."""
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _price(x: float) -> float:
    # Whole ten-thousandths, so the JSON float reads back as that exact Decimal.
    return max(1, round(x * 10000)) / 10000


def _jittered_fit(rng: random.Random) -> dict:
    """One whole reference fit with +-2% jitter per parameter.

    Drawing a, b and c independently would give superlinear K(1) and
    warnings, which real fitted traffic does not produce.
    """
    ref = REFERENCE_MODEL_FITS[rng.choice(sorted(REFERENCE_MODEL_FITS))]
    return {
        k: round(getattr(ref, k) * rng.uniform(0.98, 1.02), 6) for k in ("a", "b", "c")
    }


def _spot(od: float, u: float) -> float:
    """Spot price at 25-75% of on-demand, u in [0, 1) picking the share."""
    return min(od, _price(od * (0.25 + 0.5 * u)))


def _gpu_entry(rng, decks, name: str, u_price: float, u_spot: float) -> dict:
    od = _price(_log_scale(u_price, 0.5, 32.0))
    entry = {
        "name": name,
        "kind": "gpu",
        "od_price": od,
        "spot_price": _spot(od, u_spot),
        "network_gbps": decks["gpu_bw"].draw(),
        "eflops": max(20, round(rng.uniform(0.4, 1.6) * 400 * od**0.7)),
        "memory_gib": decks["gpu_mem"].draw(),
    }
    if decks["scaling"].draw():
        entry["scaling"] = _jittered_fit(rng)
    return entry


def _cpu_entry(decks, name: str, u_price: float, u_spot: float) -> dict:
    od = _price(_log_scale(u_price, 0.05, 2.0))
    return {
        "name": name,
        "kind": "cpu",
        "od_price": od,
        "spot_price": _spot(od, u_spot),
        "network_gbps": decks["cpu_bw"].draw(),
        "eflops": 0,
        "memory_gib": decks["cpu_mem"].draw(),
    }


def render(entries: list[dict]) -> str:
    """Catalog document text for a list of instance entries."""
    return json.dumps({"instances": entries}, separators=(",", ":"))


def catalog_pool(rng: random.Random, size: int) -> list[list[dict]]:
    """Catalogs of 4-16 GPU and 2-12 CPU types.

    On-demand prices are log-uniform over [0.5, 32] for GPUs and [0.05, 2]
    for CPUs, spot prices 25-75% of those; a third of the GPU types carry a
    per-instance scaling fit.
    """
    decks = {
        "n_gpu": Deck(rng, range(4, 17)),
        "n_cpu": Deck(rng, range(2, 13)),
        "gpu_bw": Deck(rng, GPU_BANDWIDTHS),
        "gpu_mem": Deck(rng, GPU_MEMORY_GIB),
        "cpu_bw": Deck(rng, CPU_BANDWIDTHS),
        "cpu_mem": Deck(rng, CPU_MEMORY_GIB),
        "scaling": Deck(rng, (True, False, False)),
    }
    pool = []
    for _ in range(size):
        n_gpu, n_cpu = decks["n_gpu"].draw(), decks["n_cpu"].draw()
        gpus = zip(_strata(rng, n_gpu), _strata(rng, n_gpu))
        cpus = zip(_strata(rng, n_cpu), _strata(rng, n_cpu))
        pool.append(
            [_gpu_entry(rng, decks, f"gpu-{i:02d}", *u) for i, u in enumerate(gpus)]
            + [_cpu_entry(decks, f"cpu-{i:02d}", *u) for i, u in enumerate(cpus)]
        )
    return pool


def reprice(rng: random.Random, entries: list[dict]) -> list[dict]:
    """New spot prices for every instance of a catalog; everything else kept."""
    shares = _strata(rng, len(entries))
    return [dict(e, spot_price=_spot(e["od_price"], u)) for e, u in zip(entries, shares)]


@dataclass(frozen=True)
class PlanOp:
    catalog: int
    pw: str
    ckpt_size: float
    buffer_count: int
    max_instances: int
    top_k: int


@dataclass(frozen=True)
class UpdateOp:
    catalog: int
    document: str


@dataclass(frozen=True)
class PlanStream:
    """Initial catalog documents plus the op sequence of one client."""

    pool: tuple[str, ...]
    ops: tuple


def plan_stream(seed: int, pool_size: int = POOL_SIZE, length: int = STREAM_LEN) -> PlanStream:
    """Seeded closed-loop stream: ~90% plan requests, ~10% price updates.

    ``pw`` is log-uniform over [0.3, 60].  An update re-prices one pooled catalog's spot prices and
    carries the re-rendered document, which the workload re-parses.
    """
    pool = catalog_pool(rng_for(seed, "catalogs"), pool_size)
    docs = tuple(render(entries) for entries in pool)
    rng = rng_for(seed, "stream")
    strata = 100
    decks = {
        "update": Deck(rng, [True] + [False] * (round(1 / UPDATE_SHARE) - 1)),
        "catalog": Deck(rng, range(pool_size)),
        "pw": Deck(rng, range(strata)),
        "ckpt_size": Deck(rng, CKPT_SIZES_GIB),
        "buffer_count": Deck(rng, BUFFER_COUNTS),
        "max_instances": Deck(rng, MAX_INSTANCES),
        "top_k": Deck(rng, range(1, 6)),
    }
    ops = []
    for _ in range(length):
        if decks["update"].draw():
            idx = rng.randrange(pool_size)
            pool[idx] = reprice(rng, pool[idx])
            ops.append(UpdateOp(idx, render(pool[idx])))
            continue
        u = (decks["pw"].draw() + rng.random()) / strata
        ops.append(
            PlanOp(
                catalog=decks["catalog"].draw(),
                pw=f"{_log_scale(u, 0.3, 60.0):.3f}",
                ckpt_size=decks["ckpt_size"].draw(),
                buffer_count=decks["buffer_count"].draw(),
                max_instances=decks["max_instances"].draw(),
                top_k=decks["top_k"].draw(),
            )
        )
    return PlanStream(docs, tuple(ops))


def sweep_catalog(seed: int, simulated_document: str) -> str:
    """The bundled simulated market with seeded prices and scaling overrides.

    It keeps the simulated catalog's instance types, so its sweep costs about
    the same on every seed: od and spot prices move by up to +-15%, and every
    third GPU type gets a jittered reference scaling fit.  Which types get
    one is fixed, because an override makes every K(n) of that type dearer.
    """
    rng = rng_for(seed, "sweep-catalog")
    entries = []
    for i, entry in enumerate(json.loads(simulated_document)["instances"]):
        od = _price(entry["od_price"] * rng.uniform(0.85, 1.15))
        spot = min(od, _price(entry["spot_price"] * rng.uniform(0.85, 1.15)))
        entry = dict(entry, od_price=od, spot_price=spot)
        if entry["kind"] == "gpu" and i % 3 == 0:
            entry["scaling"] = _jittered_fit(rng)
        entries.append(entry)
    return render(entries)


def fit_csv(rng: random.Random) -> str:
    """A 32-point ``n,speedup`` curve from a jittered reference fit, 2% noise."""
    p = _jittered_fit(rng)
    lines = ["n,speedup"]
    for n in range(1, FIT_POINTS + 1):
        s = p["c"] / (1.0 + math.exp(-p["a"] * (n - p["b"])))
        lines.append(f"{n},{s * rng.uniform(0.98, 1.02):.6f}")
    return "\n".join(lines) + "\n"


def fit_csvs(seed: int, count: int = 3) -> list[str]:
    rng = rng_for(seed, "fit")
    return [fit_csv(rng) for _ in range(count)]
