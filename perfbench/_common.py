"""Statistics, metadata and spec helpers shared by the benchmark files.

Imports the standard library only (numpy is loaded on first use):
``bench.py`` imports this module before it knows whether the program
under test (``src/repro``) is present at all.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import platform
import statistics
import subprocess
import time
from statistics import median
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Version of the report layout ``bench.py`` writes; bump it when a key
#: changes meaning so ``compare`` never pairs incompatible reports.
SCHEMA_VERSION = 1

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = pathlib.Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR / "results"

#: Name and size of the seeded trace-scenario generator the workloads
#: expand; the serve host expands the same one, so labels resolve on
#: both sides of the wire.
GENERATOR_NAME = "perfbench"
GENERATOR_COUNT = 8

#: Percentiles tried, highest first, by :func:`tail_percentile`.
_TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Time of one :func:`reference_kernel` call on a 2-vCPU Intel Xeon VM
#: (Python 3.11, numpy 2.4) with no other tenant slowing it: the
#: fastest readings seen there.  Timings are reported at that host
#: speed; see :class:`HostSpeed`.
REFERENCE_MS = 1.75


#: Built on first use: a 4 MB array, more than a CPU core's private
#: caches hold, and the random positions read from it.
_GATHER: List[Any] = []


def reference_kernel() -> float:
    """Fixed work in the program's own mix whose time tracks how fast
    the host runs: interpreter-bound dict and float work, numpy passes
    over short and long arrays, and random reads from an array larger
    than the private caches.  Under contention from other tenants the
    interpreter-bound part alone slows more than the program's ops and
    the memory-bound part alone slows less; together they slow alike."""
    import numpy

    if not _GATHER:
        _GATHER.append(numpy.linspace(0.0, 1.0, 1 << 19))
        # A multiplicative hash scatters the reads over the whole array.
        _GATHER.append(numpy.arange(20_000, dtype=numpy.int64)
                       * 2654435761 % (1 << 19))
    table: Dict[Tuple[int, int], float] = {}
    total = 0.0
    for i in range(3000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0.0) + i * 1.5
        total += math.sqrt(i + 1.0)
    column = numpy.linspace(1.0, 2.0, 256)
    for _ in range(40):
        column = numpy.maximum(column * 0.999, numpy.sqrt(column))
    long_column = numpy.linspace(0.0, 1.0, 65536)
    for _ in range(6):
        long_column = numpy.sqrt(long_column * 1.0001 + 0.5)
    values, positions = _GATHER
    for _ in range(5):
        total += float(values[positions].sum())
    return total + float(column.sum()) + float(long_column.sum())


def reference_ms(repeats: int = 3) -> float:
    """Median milliseconds of ``repeats`` :func:`reference_kernel` calls
    (after one untimed call that builds its arrays)."""
    if not _GATHER:
        reference_kernel()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference_kernel()
        times.append(1e3 * (time.perf_counter() - start))
    return median(times)


class HostSpeed:
    """Scales timings to the reference host's speed.

    Other tenants of a shared host slow its CPUs by up to half, each
    CPU on its own, in stretches of a fraction of a second to minutes,
    and a program op slows with the CPU it runs on.  Every
    :meth:`factor` call times the reference kernel; it returns
    :data:`REFERENCE_MS` over the mean of this and the previous reading,
    the factor that turns a time measured between the two calls into
    the time the reference host would take.  The kernel is bench code,
    so a change to the program leaves it alone.

    Single-threaded work is read on the calling thread, which runs on
    the same CPU as the op just before.  Work spread over threads and
    processes (``every_cpu``) is read on each allowed CPU in turn and
    the readings averaged.
    """

    def __init__(self, every_cpu: bool = False) -> None:
        self.every_cpu = every_cpu and hasattr(os, "sched_setaffinity")
        self.readings = [self._read()]

    def _read(self) -> float:
        if not self.every_cpu:
            return reference_ms()
        cpus = os.sched_getaffinity(0)
        readings = []
        try:
            for cpu in sorted(cpus):
                os.sched_setaffinity(0, {cpu})
                readings.append(reference_ms())
        finally:
            os.sched_setaffinity(0, cpus)
        return sum(readings) / len(readings)

    def factor(self) -> float:
        self.readings.append(self._read())
        return 2.0 * REFERENCE_MS / (self.readings[-1] + self.readings[-2])


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``.

    A single value is its own three quartiles.
    """
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_iqr(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (no interpolation)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil
    return ordered[int(rank) - 1]


def tail_percentile(values: Sequence[float],
                    min_beyond: int = 10) -> Tuple[float, float]:
    """The highest percentile with at least ``min_beyond`` samples
    beyond it, and its value: ``(pct, value)``.

    Falls back to the median (``pct`` 50) when even that has fewer
    samples beyond it.
    """
    n = len(values)
    for pct in _TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= min_beyond:
            return pct, percentile(values, pct)
    return 50.0, median(values)


def summarize(values: Sequence[float]) -> Dict[str, Any]:
    """Count, median, quartiles and the supported tail of a sample."""
    q1, q2, q3 = quartiles(values)
    pct, tail = tail_percentile(values)
    return {"count": len(values), "median": q2, "q1": q1, "q3": q3,
            "iqr": q3 - q1, "tail_pct": pct, "tail": tail}


def load_spec(root: pathlib.Path = ROOT) -> Dict[str, Any]:
    """The parsed ``BENCHMARK.json`` at the repository root."""
    return json.loads((root / "BENCHMARK.json").read_text())


def metric_units(spec: Dict[str, Any], group: str) -> Dict[str, str]:
    """``{metric name: unit}`` for ``group`` (``end_to_end``/``per_layer``)."""
    return {entry["name"]: entry["unit"] for entry in spec[group]}


def _cpu_model() -> Optional[str]:
    try:
        text = pathlib.Path("/proc/cpuinfo").read_text()
    except OSError:
        return platform.processor() or None
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _git_rev(root: pathlib.Path) -> Optional[str]:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def metadata(root: pathlib.Path = ROOT) -> Dict[str, Any]:
    """Where a report was measured: interpreter, numpy, CPU, git rev."""
    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "schema_version": SCHEMA_VERSION,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "git_rev": _git_rev(root),
    }


def report_runs(paths: Sequence[str]) -> List[Dict[str, Any]]:
    """Every single-workload run held in the given report files or
    directories (a directory contributes each ``*.json`` inside it)."""
    files: List[pathlib.Path] = []
    for name in paths:
        path = pathlib.Path(name)
        files.extend(sorted(path.glob("*.json")) if path.is_dir() else [path])
    runs: List[Dict[str, Any]] = []
    for path in files:
        data = json.loads(path.read_text())
        if data.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(f"{path}: report schema "
                             f"{data.get('schema_version')!r}, expected "
                             f"{SCHEMA_VERSION}")
        runs.extend(data["runs"] if "runs" in data else [data])
    return runs
