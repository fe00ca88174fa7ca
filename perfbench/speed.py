"""Machine-speed sampling, so that timings taken on a shared machine compare.

The cores of a shared sandbox slow down by half or more, for milliseconds
to seconds at a time, and the same work then takes that much longer in any
process.  A Sampler times a fixed piece of reference work from a SIGALRM
handler every 20 ms (about 2% of the time) while a measurement runs.  A
timing of the interval [start, end] is then converted to seconds at nominal
machine speed: the handler's own time inside the interval is taken out, and
the rest is scaled by the nominal over the measured reference time near the
interval.  Raw wall times are reported beside the nominal ones.

This module imports only what the package under test imports itself, so a
sampled CLI child process loads nothing extra.
"""
import heapq
import json
import math
import signal
import time
from bisect import bisect_left, bisect_right
from collections import namedtuple
from dataclasses import dataclass
from decimal import Decimal
from importlib import resources

INTERVAL_S = 0.02
# Samples this close to an interval count towards its speed.
WINDOW_S = 0.1


_Candidate = namedtuple("_Candidate", "z price rank v w n m name")
_DOCUMENT = (
    '{"instances": [{"name": "A", "kind": "gpu", "od_price": 0.75, "spot_price": 0.225},'
    ' {"name": "K", "kind": "cpu", "od_price": 0.199, "spot_price": 0.126}]}'
)


@dataclass(frozen=True)
class _Request:
    pw: Decimal
    top_k: int = 3

    def __post_init__(self):
        object.__setattr__(self, "pw", Decimal(self.pw))


def candidate_search(budget=Decimal("9.5"), top_k=3):
    """A frozen imitation of the planner's inner loop: Decimal budget tests,
    float math, named tuples from a generator and a keyed heap selection."""
    spot = Decimal("0.1941")

    def candidates():
        for v in range(4):
            for n in range(1, 60):
                price = spot * n + v
                if price > budget:
                    break
                z = 2.5 * (3.0 / (1.0 + math.exp(-0.13 * (n - 12.8))))
                yield _Candidate(z, price, 0, v, -1, n, 0, "ref")

    return heapq.nsmallest(top_k, candidates(), key=lambda c: (-c.z, c.price, c.rank, c.v, c.w, c.n, c.m))


def small_request():
    """A frozen imitation of one small plan request: a package data file read
    through importlib.resources, a JSON document parsed to Decimals, a frozen
    dataclass, then the candidate search."""
    resources.files("json").joinpath("__init__.py").read_bytes()
    json.loads(_DOCUMENT, parse_float=Decimal)
    req = _Request("9.5")
    return candidate_search(req.pw, req.top_k)


# Reference work per workload, with the time it takes at nominal machine
# speed.  A sweep is almost all candidate search, with the saturation table
# passed in; a small plan request or a CLI process is dominated by fixed
# per-call work, so each is set against the reference that resembles it.
REFERENCES = {
    "candidate_search": (candidate_search, 0.00025),
    "small_request": (small_request, 0.0003),
}


class Sampler:
    """Times one of REFERENCES every INTERVAL_S while started."""

    def __init__(self, reference: str = "small_request"):
        self._work, self.nominal_ref_s = REFERENCES[reference]
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None

    def _sample(self, *_):
        t0 = time.perf_counter()
        self._work()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())

    def start(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    __enter__ = start

    def __exit__(self, *_):
        self.stop()

    def ref_s(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def factor(self, start: float, end: float) -> float:
        """Nominal over measured reference time, from the samples near [start, end]."""
        lo = bisect_left(self.starts, start - WINDOW_S)
        hi = bisect_right(self.starts, end + WINDOW_S)
        if lo == hi:  # no sample near: take the closest one
            lo = min(max(0, lo - 1), len(self.starts) - 1)
            hi = lo + 1
        # The mean of the speed ratios: the contention comes and goes within
        # milliseconds, so the interval's speed is the average of its samples.
        ratios = [self.nominal_ref_s / (e - s) for s, e in zip(self.starts[lo:hi], self.ends[lo:hi])]
        return sum(ratios) / len(ratios)

    def busy(self, start: float, end: float) -> float:
        """Seconds the handler ran inside [start, end]."""
        lo, hi = bisect_left(self.starts, start), bisect_right(self.starts, end)
        return sum(min(e, end) - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))

    def nominal(self, start: float, end: float) -> float:
        """Seconds [start, end] would have taken at nominal speed, sampling left out."""
        return (end - start - self.busy(start, end)) * self.factor(start, end)
