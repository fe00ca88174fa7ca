"""Shared pieces of the benchmark: paths, statistics, spans, counters, spawns."""
from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from sampled import SPEED_MARKER

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = SRC / "spotplan"
CATALOG_DIR = PACKAGE / "data" / "catalogs"
OUT_DIR = ROOT / ".perfbench_out"
PROBE = BENCH_DIR / "probe.py"
SAMPLED = BENCH_DIR / "sampled.py"

# Spawned interpreters see the source tree, as the package is not installed.
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))

PERCENTILES = (50.0, 90.0, 99.0, 99.9)

# Set-up an in-process user pays before the first plan: import and load data.
READY_CODE = (
    "import spotplan;"
    "spotplan.bundled_simulated_catalog();"
    "spotplan.bundled_aws_catalog();"
    "spotplan.default_saturation_table()"
)
# Set-up every CLI invocation pays.
CLI_IMPORT_CODE = "import spotplan.cli"


def now() -> float:
    return time.perf_counter()


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def tail(samples) -> tuple[float, float]:
    """(p, value) for the highest percentile with at least ten samples beyond it.

    Falls back to the median when there are fewer than 20 samples.
    """
    n = len(samples)
    best = 50.0
    for p in PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            best = p
    return best, percentile(samples, best)


def median(samples) -> float:
    return statistics.median(samples)


def peak_rss_mib(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def spawn(args, check=True, **kwargs) -> tuple[float, subprocess.CompletedProcess]:
    """Run one child interpreter to completion; (wall seconds, result)."""
    t0 = now()
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=CHILD_ENV,
        capture_output=True,
        timeout=120,
        **kwargs,
    )
    wall = now() - t0
    if check and proc.returncode != 0:
        raise RuntimeError(f"{args[:2]} exited {proc.returncode}: {proc.stderr.decode()[-400:]}")
    return wall, proc


def probe(*args) -> dict:
    """Run probe.py in a fresh interpreter and return its JSON report.

    ``spawned`` is the clock reading just before the spawn; the clock is
    the system-wide monotonic one, so the child's readings compare to it.
    """
    spawned = now()
    _, proc = spawn([str(PROBE), *args])
    report = json.loads(proc.stdout.decode().splitlines()[-1])
    report["spawned"] = spawned
    return report


def machine() -> dict:
    """Where and on what the numbers were taken."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def source_digest() -> str:
    """sha256 over the package sources and data, standing in for the commit."""
    import hashlib

    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(PACKAGE)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Tracer:
    """In-memory spans: [name, start, end, parent index, request id].

    Spans are recorded only at the benchmark's own calls into a layer; they
    are written out once, when the run ends.  With a speed.Sampler running,
    a span's duration is its time at nominal machine speed.
    """

    def __init__(self, sampler=None):
        self.sampler = sampler
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [name, now(), None, parent, self.request]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            self._stack.pop()
            record[2] = now()

    def ms(self, span) -> float:
        if self.sampler is None:
            return (span[2] - span[1]) * 1000.0
        return self.sampler.nominal(span[1], span[2]) * 1000.0

    def durations_ms(self, name: str) -> list[float]:
        return [self.ms(s) for s in self.spans if s[0] == name]

    def total_ms(self, name: str) -> float:
        return sum(self.durations_ms(name))

    def records(self) -> list[list]:
        """Spans with their duration in ms appended."""
        return [[*s, self.ms(s)] for s in self.spans]


def write_spans(records, path: Path) -> None:
    """One JSON object per span: name, start, end, parent index, request id, ms."""
    path.parent.mkdir(parents=True, exist_ok=True)
    keys = ("name", "start", "end", "parent", "request", "ms")
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(dict(zip(keys, record))) + "\n")


def counting_scaling():
    """A ScalingSource that counts its factor() calls (scaling.factor_calls)."""
    from spotplan import ScalingSource

    class CountingScaling(ScalingSource):
        def __init__(self):
            super().__init__()
            self.calls = 0

        def factor(self, instance, n):
            self.calls += 1
            return super().factor(instance, n)

    return CountingScaling()


def spawn_sampled(args) -> tuple[float, float, subprocess.CompletedProcess]:
    """Run ``python -m ...`` or ``python -c ...`` under sampled.py.

    Returns (raw seconds, seconds at nominal machine speed, result); the
    child's speed report is removed from its stderr.
    """
    raw, proc = spawn([str(SAMPLED), *args], check=False)
    head, _, report = proc.stderr.decode().rpartition(SPEED_MARKER)
    busy_s, factor = json.loads(report)
    proc.stderr = head.encode()
    return raw, (raw - busy_s) * factor, proc


def reference_quartiles(sampler) -> dict:
    """Report entry: quartiles of the sampled reference-work time."""
    ref_ms = [r * 1000.0 for r in sampler.ref_s()]
    q = statistics.quantiles(ref_ms, n=4) if len(ref_ms) > 1 else ref_ms * 3
    return {"reference_work_ms_p25_p50_p75": [q, "ms", len(ref_ms)]}


def setup_seconds(code: str, reps: int) -> tuple[float, float]:
    """Median spawn-to-exit wall of a fresh interpreter running ``code``: (raw, nominal)."""
    runs = [spawn_sampled(["-c", code]) for _ in range(reps)]
    for _, _, proc in runs:
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.decode()[-400:]}")
    return median([r[0] for r in runs]), median([r[1] for r in runs])
