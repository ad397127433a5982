"""Process-wide metrics registry: counters, gauges, histograms.

Three instrument kinds cover everything the four execution layers
report (see ``docs/OBSERVABILITY.md`` for the naming conventions):

* :class:`Counter` — monotonically accumulating totals (steps taken,
  cache hits, seconds spent in a phase).  Values may be fractional:
  ``*_seconds`` counters accumulate wall-clock.
* :class:`Gauge` — last-write-wins point-in-time values (cache sizes,
  worker counts).
* :class:`Histogram` — latency/size distributions with **exact**
  ``count`` / ``sum`` / ``min`` / ``max`` under **bounded memory**:
  observations land in power-of-two buckets whose index is clamped to
  ``[MIN_BUCKET, MAX_BUCKET]``, so the bucket map can never exceed
  ``MAX_BUCKET - MIN_BUCKET + 3`` entries no matter how many values are
  observed, yet no observation is ever dropped or approximated away
  from the exact aggregate fields.

Instruments are interned: ``registry.counter("x")`` always returns the
same object, so hot paths can resolve an instrument once and update a
plain attribute afterwards.  :meth:`MetricsRegistry.merge` folds a
snapshot (for example a closing run scope's) into this registry.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional

from repro.errors import ConfigurationError


class Counter:
    """Monotonic accumulator (floats allowed for ``*_seconds`` totals)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """Last-write-wins point-in-time value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Distribution with exact aggregates and bounded bucket memory.

    Bucket ``i`` holds observations in ``[2**i, 2**(i+1))``; indices are
    clamped to ``[MIN_BUCKET, MAX_BUCKET]`` and non-positive values go
    to the dedicated ``ZERO_BUCKET``.  Clamping only coarsens *where*
    an extreme observation is binned — ``count``/``sum``/``min``/``max``
    stay exact, and the per-bucket counts always sum to ``count``.
    """

    __slots__ = ("name", "count", "sum", "min", "max", "buckets")

    #: Clamp range of the power-of-two bucket index.  ``2**-40`` ≈ 1e-12
    #: (sub-ns latencies) to ``2**40`` ≈ 1e12 — 81 buckets at most, plus
    #: the zero bucket.
    MIN_BUCKET = -40
    MAX_BUCKET = 40
    #: Index used for observations ``<= 0`` (no finite log2).
    ZERO_BUCKET = MIN_BUCKET - 1

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value > 0.0:
            index = min(max(int(math.floor(math.log2(value))),
                            self.MIN_BUCKET), self.MAX_BUCKET)
        else:
            index = self.ZERO_BUCKET
        self.buckets[index] = self.buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Estimated ``q``-quantile, interpolated within the buckets.

        The power-of-two buckets bound the relative error at 2x worst
        case; linear interpolation inside the covering bucket and the
        clamp to the *exact* ``min``/``max`` aggregates tighten the
        common cases (``q=0`` and ``q=1`` are exact).  ``None`` on an
        empty histogram.
        """
        return histogram_quantile(
            {"count": self.count, "min": self.min, "max": self.max,
             "buckets": self.buckets}, q)


def histogram_quantile(data: Mapping, q: float) -> Optional[float]:
    """:meth:`Histogram.quantile` over the dict (snapshot) form.

    Accepts both live bucket maps (int keys) and JSON round-tripped
    snapshots (string keys), so exporters can quote percentiles from
    persisted blobs without reconstructing instruments.
    """
    if not 0.0 <= q <= 1.0:
        raise ConfigurationError(f"quantile must be in [0, 1], got {q!r}")
    count = data.get("count", 0)
    if not count:
        return None
    low = data.get("min")
    high = data.get("max")
    target = q * count
    cumulative = 0
    for index, bucket_count in sorted(
            (int(key), value) for key, value in data.get("buckets", {}).items()
    ):
        cumulative += bucket_count
        if cumulative >= target:
            fraction = (target - (cumulative - bucket_count)) / bucket_count
            if index <= Histogram.ZERO_BUCKET:
                # Non-positive observations carry no log2 position;
                # interpolate over their full possible span [min, 0].
                lower_edge = low if low is not None else 0.0
                upper_edge = 0.0
            else:
                lower_edge = 2.0 ** index
                upper_edge = 2.0 ** (index + 1)
            estimate = lower_edge + fraction * (upper_edge - lower_edge)
            if low is not None:
                estimate = max(estimate, low)
            if high is not None:
                estimate = min(estimate, high)
            return estimate
    # Unreachable while per-bucket counts sum to ``count``; fall back to
    # the exact maximum rather than crash on a hand-built snapshot.
    return high


#: The percentiles every exporter quotes (serve SLOs, phase timers).
REPORT_QUANTILES = (("p50", 0.50), ("p90", 0.90), ("p99", 0.99))


def _histogram_dict(histogram: Histogram) -> Dict[str, object]:
    """JSON-ready form of one histogram, for :meth:`MetricsRegistry.as_dict`
    and the evaluation service's ``ServeStats.as_dict``."""
    return {
        "count": histogram.count,
        "sum": histogram.sum,
        "min": None if histogram.count == 0 else histogram.min,
        "max": None if histogram.count == 0 else histogram.max,
        **{label: histogram.quantile(q) for label, q in REPORT_QUANTILES},
        "buckets": {str(index): count
                    for index, count in sorted(histogram.buckets.items())},
    }


class MetricsRegistry:
    """Interned instruments keyed by name, one namespace per kind."""

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument access (get-or-create) -----------------------------------

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    # -- snapshot / merge ----------------------------------------------------

    def as_dict(self) -> Dict[str, dict]:
        """JSON-ready snapshot of every instrument."""
        return {
            "counters": {name: c.value
                         for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value
                       for name, g in sorted(self._gauges.items())},
            "histograms": {name: _histogram_dict(h)
                           for name, h in sorted(self._histograms.items())},
        }

    def merge(self, snapshot: Optional[Dict[str, dict]]) -> None:
        """Fold a :meth:`as_dict` snapshot (e.g. from a worker) in.

        Counters and histogram aggregates add; gauges take the incoming
        value (last write wins, matching their point-in-time semantics).
        """
        if not snapshot:
            return
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).value += value
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).value = value
        for name, data in snapshot.get("histograms", {}).items():
            histogram = self.histogram(name)
            count = data.get("count", 0)
            if not count:
                continue
            histogram.count += count
            histogram.sum += data.get("sum", 0.0)
            if data.get("min") is not None:
                histogram.min = min(histogram.min, data["min"])
            if data.get("max") is not None:
                histogram.max = max(histogram.max, data["max"])
            for index, bucket_count in data.get("buckets", {}).items():
                index = int(index)
                histogram.buckets[index] = (histogram.buckets.get(index, 0)
                                            + bucket_count)

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def __len__(self) -> int:
        return (len(self._counters) + len(self._gauges)
                + len(self._histograms))


def validate_metric_name(name: str) -> str:
    """Naming-convention guard used by tests and the exporters.

    Names are dotted lowercase paths, ``layer.instrument[.detail]``,
    e.g. ``sim.controller_step_seconds`` or ``cost.layer_cost.hit``.
    """
    if not name or not all(
        part and part.replace("_", "a").isalnum() and part == part.lower()
        for part in name.split(".")
    ):
        raise ConfigurationError(
            f"metric name {name!r} is not a dotted lowercase path"
        )
    return name
