"""Piecewise-constant ``k_eh(t)`` traces — time-varying harvest.

The paper evaluates under two *static* lighting presets because sunlight
is stable within one inference (§V), but its own diurnal model
(:meth:`~repro.energy.environment.LightEnvironment.k_eh_at`) points at
the real deployment question: how designs fare when the harvest varies —
across a day, under passing clouds, on an indoor lighting schedule, or
from a non-solar trickle source.  A :class:`TraceEnvironment` is the
common representation: a periodic sequence of constant-``k_eh`` segments
that is

* **duck-compatible** with :class:`~repro.energy.environment.
  LightEnvironment` where it matters (``.name`` and a representative
  scalar ``.k_eh`` — the only attributes the analytical model and the
  MPPT tracker consume), and
* **piecewise-constant by construction**, which is what lets the step
  simulator's cycle-skipping fast path run *within* each segment
  instead of falling back to exact stepping (see
  :meth:`TraceEnvironment.next_change_after` and ``sim/engine.py``).

Traces are content-hashable and JSON-round-trippable, so campaign run
keys can name them durably, and they compare by value, so the
evaluation service never coalesces two traces that share a name but
not their segments.  The generator
helpers at the bottom build the four families the registry
(:mod:`repro.environments`) exposes: diurnal clear-sky (via the
existing Haurwitz model), cloud-stochastic attenuation, indoor on/off
lighting schedules, and a constant non-solar trickle.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.energy.environment import LightEnvironment
from repro.energy.solar_panel import SolarPanel
from repro.errors import ConfigurationError

#: One civil day in seconds — the canonical trace period of the solar
#: and schedule generators.
DAY_S = 24.0 * 3600.0


@dataclass(frozen=True)
class TraceSegment:
    """One constant-harvest stretch of a trace."""

    duration_s: float
    k_eh: float  # W/cm^2 of panel area, same convention as LightEnvironment

    def __post_init__(self) -> None:
        if not 0.0 < self.duration_s < math.inf:
            raise ConfigurationError(
                f"segment duration_s must be positive and finite, "
                f"got {self.duration_s}")
        if not 0.0 <= self.k_eh < math.inf:
            raise ConfigurationError(
                f"segment k_eh must be non-negative and finite, "
                f"got {self.k_eh}")


@dataclass(frozen=True)
class TraceEnvironment:
    """A periodic piecewise-constant ``k_eh(t)`` profile.

    ``k_eh_at_s`` is right-continuous: at a segment boundary the *new*
    segment's coefficient applies, and the trace wraps at
    :attr:`period_s`.  The scalar :attr:`k_eh` property reports the
    time-weighted mean over one period so that every consumer of the
    paper's per-inference-constant coefficient (analytical model, MPPT)
    keeps working unchanged on a trace.  :meth:`next_change_after`
    answers in absolute time, counting whole periods, which is the one
    segment lookup the step simulator's fast path needs.
    """

    name: str
    segments: Tuple[TraceSegment, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("trace environment needs a name")
        if not self.segments:
            raise ConfigurationError(
                f"trace {self.name!r} needs at least one segment")
        object.__setattr__(self, "segments", tuple(self.segments))
        starts: List[float] = [0.0]
        for segment in self.segments[:-1]:
            starts.append(starts[-1] + segment.duration_s)
        period = starts[-1] + self.segments[-1].duration_s
        mean = sum(s.k_eh * s.duration_s for s in self.segments) / period
        # Derived lookup tables; not dataclass fields, so equality and
        # hashing stay defined by (name, segments) alone.
        object.__setattr__(self, "_starts", tuple(starts))
        object.__setattr__(self, "_period", period)
        object.__setattr__(self, "_k_mean", mean)

    # -- LightEnvironment-compatible surface ---------------------------------

    @property
    def k_eh(self) -> float:
        """Representative (time-weighted mean) coefficient, W/cm^2."""
        return self._k_mean

    @property
    def period_s(self) -> float:
        return self._period

    # -- time lookup ---------------------------------------------------------

    def _locate(self, t: float) -> Tuple[int, int]:
        """(whole periods elapsed, local segment index) at time ``t``."""
        t = max(t, 0.0)
        cycles = int(t // self._period)
        local = t - cycles * self._period
        if local >= self._period:  # floating-point guard at the wrap
            cycles += 1
            local -= self._period
        index = bisect.bisect_right(self._starts, max(local, 0.0)) - 1
        return cycles, index

    def k_eh_at_s(self, t: float) -> float:
        """Coefficient at ``t`` seconds (right-continuous, periodic)."""
        _, index = self._locate(t)
        return self.segments[index].k_eh

    def next_change_after(self, t: float) -> float:
        """Absolute time of the next segment boundary strictly after ``t``.

        ``math.inf`` for a single-segment (constant) trace.  The value
        is strictly increasing across boundaries, which is what the
        fast path's segment matching relies on.
        """
        n = len(self.segments)
        if n == 1:
            return math.inf
        t = max(t, 0.0)
        cycles, index = self._locate(t)
        counter = cycles * n + index
        while True:
            counter += 1
            c, i = divmod(counter, n)
            boundary = c * self._period + self._starts[i]
            if boundary > t:
                return boundary

    # -- content identity ----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "segments": [[s.duration_s, s.k_eh] for s in self.segments],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TraceEnvironment":
        try:
            name = data["name"]
            raw = data["segments"]
        except KeyError as missing:
            raise ConfigurationError(
                f"trace record is missing field {missing}") from None
        segments = tuple(TraceSegment(float(d), float(k)) for d, k in raw)
        return cls(name=str(name), segments=segments)

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "TraceEnvironment":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(f"invalid trace JSON: {error}") from None
        return cls.from_dict(data)

    @property
    def content_hash(self) -> str:
        """Deterministic 16-hex-digit hash of the trace content."""
        canonical = json.dumps(self.to_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class TraceHarvester:
    """Solar panel driven by a :class:`TraceEnvironment`.

    The piecewise-constant counterpart of
    :class:`~repro.energy.harvester.SolarHarvester`: output power is
    constant within each trace segment, and :meth:`next_change_after`
    tells the engine and the charge fast-forward exactly how long the
    current constant stretch lasts.
    """

    panel: SolarPanel
    trace: TraceEnvironment
    mppt_efficiency: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.mppt_efficiency <= 1.0:
            raise ConfigurationError(
                f"mppt_efficiency must be in (0, 1], got {self.mppt_efficiency}"
            )

    @property
    def footprint_cm2(self) -> float:
        return self.panel.area_cm2

    @property
    def constant_power(self) -> bool:
        # A one-segment trace degenerates to a constant harvester.
        return len(self.trace.segments) == 1

    def power_at(self, t: float) -> float:
        return self.panel.power(self.trace.k_eh_at_s(t)) * self.mppt_efficiency

    def next_change_after(self, t: float) -> float:
        return self.trace.next_change_after(t)


# ---------------------------------------------------------------------------
# trace generators
# ---------------------------------------------------------------------------


def _merged(segments: List[TraceSegment]) -> Tuple[TraceSegment, ...]:
    """Coalesce equal-coefficient neighbours (e.g. the night hours)."""
    merged: List[TraceSegment] = []
    for segment in segments:
        if merged and merged[-1].k_eh == segment.k_eh:
            merged[-1] = TraceSegment(
                merged[-1].duration_s + segment.duration_s, segment.k_eh)
        else:
            merged.append(segment)
    return tuple(merged)


def _day_steps(step_s: float) -> int:
    if step_s <= 0.0:
        raise ConfigurationError(f"step_s must be positive, got {step_s}")
    if not step_s >= 1.0:  # also rejects NaN
        raise ConfigurationError(
            f"step_s must be at least 1 s, got {step_s}")
    steps = round(DAY_S / step_s)
    if steps < 1 or abs(steps * step_s - DAY_S) > 1e-6:
        raise ConfigurationError(
            f"step_s must divide 24 h evenly, got {step_s}")
    return steps


def diurnal_trace(base: LightEnvironment, step_s: float = 3600.0,
                  name: Optional[str] = None) -> TraceEnvironment:
    """Clear-sky diurnal profile sampled from the Haurwitz model.

    Samples ``base.k_eh_at`` at each step's midpoint over one 24 h day,
    giving a piecewise-constant staircase of the existing diurnal curve
    (night segments merge into one zero-harvest stretch per edge).
    """
    steps = _day_steps(step_s)
    segments = [
        TraceSegment(step_s, base.k_eh_at((i + 0.5) * step_s / 3600.0))
        for i in range(steps)
    ]
    return TraceEnvironment(name=name or f"diurnal-{base.name}",
                            segments=_merged(segments))


def cloud_trace(base: LightEnvironment, sigma: float = 0.4,
                floor: float = 0.05, seed: int = 0, step_s: float = 600.0,
                name: Optional[str] = None) -> TraceEnvironment:
    """Diurnal profile under seeded stochastic cloud attenuation.

    Each segment's clear-sky coefficient is multiplied by a log-normal
    draw with median 1 clipped to ``[floor, 1]`` — the same shading
    model as :class:`~repro.energy.harvester.FluctuatingHarvester`, but
    frozen into the trace so the result is content-hashable and
    bit-reproducible across processes.
    """
    if not sigma >= 0.0:  # also rejects NaN
        raise ConfigurationError(f"sigma must be >= 0, got {sigma}")
    if not 0.0 < floor <= 1.0:
        raise ConfigurationError(f"floor must be in (0, 1], got {floor}")
    steps = _day_steps(step_s)
    rng = random.Random(seed)
    segments = []
    for i in range(steps):
        clear = base.k_eh_at((i + 0.5) * step_s / 3600.0)
        # exp(min(0, z)) clips a log-normal draw at 1 before exp can
        # overflow; the values are those of min(1, lognormvariate).
        attenuation = (1.0 if sigma == 0.0 else max(floor, math.exp(
            min(0.0, rng.normalvariate(0.0, sigma)))))
        segments.append(TraceSegment(step_s, clear * attenuation))
    return TraceEnvironment(name=name or f"cloudy-{base.name}-{seed}",
                            segments=_merged(segments))


def schedule_trace(k_on: float, k_off: float = 0.0, on_hour: float = 8.0,
                   off_hour: float = 18.0,
                   name: str = "indoor-schedule") -> TraceEnvironment:
    """Indoor on/off lighting schedule: lights on between two hours."""
    if not 0.0 <= on_hour < off_hour <= 24.0:
        raise ConfigurationError(
            f"need 0 <= on_hour < off_hour <= 24, "
            f"got on={on_hour}, off={off_hour}")
    segments: List[TraceSegment] = []
    if on_hour > 0.0:
        segments.append(TraceSegment(on_hour * 3600.0, k_off))
    segments.append(TraceSegment((off_hour - on_hour) * 3600.0, k_on))
    if off_hour < 24.0:
        segments.append(TraceSegment((24.0 - off_hour) * 3600.0, k_off))
    return TraceEnvironment(name=name, segments=_merged(segments))


def trickle_trace(k_eh: float, name: str = "trickle") -> TraceEnvironment:
    """Constant non-solar trickle (TEG/RF-style) as a one-segment trace."""
    return TraceEnvironment(name=name,
                            segments=(TraceSegment(DAY_S, k_eh),))
