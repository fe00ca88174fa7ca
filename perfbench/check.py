"""Output checks: every plan the program returns is recomputed from the catalog.

The checks run outside the timed region.  Each function returns a list of
problems (empty when the output is correct) so that the workloads can count
a failed operation without stopping.
"""
from __future__ import annotations

import hashlib
from decimal import Decimal

from spotplan import SINGLE_ANCHOR, TIERING, ScalingSource, flopp, n_sat_lookup, scaling_factor

# sha256 of `spotplan simulate` CSV bytes (default SweepSpec) per bundled
# catalog, pinned from the source tree of commit 140281b.
PINNED_SWEEP_CSV_SHA256 = {
    "simulated.json": "453c0da135057f7cc8cfa9b3bdc268a454d54869968d3d0ce32fa1b97c7c1398",
    "aws-2023-10.json": "ca1ca79993477537d3cffbf8a6a989302863ffb2dc3568c3c509f696db6a5544",
}

_DEFAULT_SCALING = ScalingSource()
Z_REL_TOL = 1e-12


def sha256(text: str | bytes) -> str:
    if isinstance(text, str):
        text = text.encode("utf-8")
    return hashlib.sha256(text).hexdigest()


def expected_z(arch: str, v, n: int, unit_scaling: bool = False) -> float:
    """Z recomputed from flopp and K(n): (spot count * SPFP + od count * ODFP) * K."""
    score = flopp(v)
    k = 1.0 if unit_scaling else scaling_factor(_DEFAULT_SCALING.model_for(v), n)
    if arch == SINGLE_ANCHOR:
        return ((n - 1) * score.spfp + score.odfp) * k
    return n * score.spfp * k


def check_plan(catalog, req, plan, sat, unit_scaling: bool = False) -> list[str]:
    """Budget, count caps, memory and saturation rules, exact price and Z."""
    v, n, w, m = plan.gpu_instance, plan.n_gpu, plan.cpu_instance, plan.m_cpu
    label = f"{plan.architecture} {v.name}x{n}" + (f" + {w.name}x{m}" if w else "")
    problems = []
    if v not in catalog.gpu_view:
        problems.append(f"{label}: gpu not an available catalog gpu")
    if not 1 <= n <= req.max_instances:
        problems.append(f"{label}: n outside 1..{req.max_instances}")
    if plan.architecture == SINGLE_ANCHOR:
        if w is not None or m is not None:
            problems.append(f"{label}: single_anchor with a cpu tier")
        price = v.od_price + (n - 1) * v.spot_price
    elif plan.architecture == TIERING:
        if w is None or m is None:
            return problems + [f"{label}: tiering without a cpu tier"]
        if w not in catalog.cpu_view:
            problems.append(f"{label}: cpu not an available catalog cpu")
        if not 1 <= m <= req.max_instances:
            problems.append(f"{label}: m outside 1..{req.max_instances}")
        if w.memory < req.ckpt_size * req.buffer_count:
            problems.append(f"{label}: cpu memory below ckpt_size * buffer_count")
        n_sat = n_sat_lookup(sat, v, w)
        if not n < m * n_sat:
            problems.append(f"{label}: n >= m * n_sat ({n_sat})")
        elif m != n // n_sat + 1:
            problems.append(f"{label}: m is not the minimal receiver count")
        price = n * v.spot_price + m * w.od_price
    else:
        return problems + [f"{label}: unknown architecture"]
    if plan.hourly_price != price:
        problems.append(f"{label}: hourly_price {plan.hourly_price} != {price}")
    if not price <= req.pw:
        problems.append(f"{label}: price {price} over budget {req.pw}")
    z = expected_z(plan.architecture, v, n, unit_scaling)
    if abs(plan.score_z - z) > Z_REL_TOL * abs(z):
        problems.append(f"{label}: score_z {plan.score_z!r} != {z!r}")
    return problems


def cheapest_price(catalog, req) -> Decimal | None:
    """Price of the cheapest configuration any architecture could offer."""
    need = req.ckpt_size * req.buffer_count
    prices = [v.od_price for v in catalog.gpu_view]
    cpus = [w.od_price for w in catalog.cpu_view if w.memory >= need]
    if cpus:
        prices += [v.spot_price + min(cpus) for v in catalog.gpu_view]
    return min(prices, default=None)


def check_plans(catalog, req, plans, sat) -> list[str]:
    """A recommend() result: each plan valid, sorted by (-Z, price), <= top_k.

    An empty result is checked too: then nothing may fit the budget.
    """
    if not plans:
        cheapest = cheapest_price(catalog, req)
        if cheapest is not None and cheapest <= req.pw:
            return [f"empty result but a {cheapest}/h configuration fits pw {req.pw}"]
        return []
    problems = []
    if len(plans) > req.top_k:
        problems.append(f"{len(plans)} plans for top_k {req.top_k}")
    for plan in plans:
        problems += check_plan(catalog, req, plan, sat)
    keys = [(-p.score_z, p.hourly_price) for p in plans]
    if keys != sorted(keys):
        problems.append("plans not sorted by (-Z, price)")
    return problems


def plan_row(plan) -> str:
    """One digest line: (arch, gpu, n, cpu, m, price)."""
    if plan is None:
        return "-\n"
    cpu = plan.cpu_instance.name if plan.cpu_instance else ""
    m = plan.m_cpu if plan.m_cpu is not None else ""
    return f"{plan.architecture},{plan.gpu_instance.name},{plan.n_gpu},{cpu},{m},{plan.hourly_price}\n"


def check_oracle(catalog, req, plans, oracle_best, sat) -> list[str]:
    """Top-1 must equal the brute-force best (configuration and exact price)."""
    best = oracle_best(catalog, req, sat=sat)
    top = plans[0] if plans else None
    if best is None or top is None:
        return [] if best is top else [f"oracle {best} vs planner {top}"]
    got = (
        top.architecture,
        top.gpu_instance.name,
        top.n_gpu,
        top.cpu_instance.name if top.cpu_instance else None,
        top.m_cpu,
    )
    if got != best["config"] or top.hourly_price != best["price"]:
        return [f"oracle {best['config']} at {best['price']} vs planner {got} at {top.hourly_price}"]
    return []
