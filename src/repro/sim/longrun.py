"""Day-scale operation: back-to-back inference over the diurnal cycle.

The paper's premise is that sunlight "does not undergo significant
changes within a short time (<5 minutes) and may change greatly in one
day" — so a deployed AuT's real figure of merit is *inferences per day*
and how they distribute across it.  :func:`simulate_day` runs repeated
inferences against the diurnal harvest profile and reports that
distribution.

To stay fast at day scale, each inference is priced by the analytical
model at the hour's actual ``k_eh`` (re-using the closed forms the
searches trust), and the day is advanced inference by inference —
charging through the night is handled by the capacitor's closed-form
charge time at each hour's harvest.  The design's plan is built once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.design import AuTDesign
from repro.energy.environment import LightEnvironment
from repro.hardware.checkpoint import CheckpointModel
from repro.sim.analytical import CycleBudget, PlanTotals, price_plan
from repro.sim.evaluator import ChrysalisEvaluator
from repro.workloads.network import Network

_SECONDS_PER_DAY = 24 * 3600.0


@dataclass(frozen=True)
class _FixedKEnvironment(LightEnvironment):
    """A :class:`LightEnvironment` pinned to one representative ``k_eh``.

    Hoisted to module level so each hourly evaluation reuses one class
    instead of minting a fresh subclass (and its descriptor machinery)
    per call.
    """

    fixed_k_eh: float = 0.0

    @property
    def k_eh(self) -> float:  # type: ignore[override]
        return self.fixed_k_eh


@dataclass(frozen=True)
class DayResult:
    """One simulated day of operation."""

    inferences: int
    per_hour: Dict[int, int]  # hour-of-day -> completed inferences
    active_hours: int  # hours with at least one completion
    first_completion_hour: Optional[float]
    last_completion_hour: Optional[float]

    def render(self) -> str:
        lines = [f"inferences/day : {self.inferences}",
                 f"active hours   : {self.active_hours}"]
        if self.inferences:
            lines.append(
                f"window         : "
                f"{self.first_completion_hour:.1f}h - "
                f"{self.last_completion_hour:.1f}h")
        peak = max(self.per_hour.values(), default=0)
        for hour in range(24):
            count = self.per_hour.get(hour, 0)
            bar = "#" * (round(40 * count / peak) if peak else 0)
            lines.append(f"  {hour:02d}:00 {count:>7}  {bar}")
        return "\n".join(lines)


def simulate_day(design: AuTDesign, network: Network,
                 environment: LightEnvironment,
                 checkpoint: Optional[CheckpointModel] = None,
                 start_hour: float = 0.0,
                 max_inferences: int = 2_000_000,
                 use_step: bool = False) -> DayResult:
    """Count completed inferences over one day of the diurnal profile.

    The environment's hour-by-hour ``k_eh_at`` drives a sequence of
    sustained-period evaluations; hours with no harvest (night) pass
    without progress unless the current period already spans them.

    ``use_step=True`` prices each hour with the step simulator instead
    of the closed forms — cross-validation of the analytical day at
    step fidelity.  The step engine's cycle-skipping fast path (the
    hourly harvest is constant) keeps this affordable: one bounded
    simulation per distinct daylight hour.
    """
    per_hour: Dict[int, int] = {}
    completions: List[float] = []
    t = start_hour * 3600.0
    count = 0
    plan, run = ChrysalisEvaluator(
        network, (environment,), checkpoint=checkpoint,
    )._planned(design, environment)
    totals = PlanTotals.of(plan)

    # Cache the per-hour evaluation: k_eh is constant within the hour.
    period_by_hour: Dict[int, float] = {}

    def period_at(hour: int) -> float:
        if hour not in period_by_hour:
            k_eh = environment.k_eh_at(float(hour) + 0.5)
            if k_eh <= 0.0:
                period_by_hour[hour] = math.inf
            else:
                frozen = _environment_with_k(environment, k_eh)
                if use_step:
                    metrics = run(frozen).metrics
                else:
                    metrics = price_plan(
                        totals, CycleBudget.of(design.energy, frozen))
                period_by_hour[hour] = (
                    metrics.sustained_period if metrics.feasible
                    else math.inf)
        return period_by_hour[hour]

    while t < _SECONDS_PER_DAY and count < max_inferences:
        hour = int(t // 3600.0) % 24
        period = period_at(hour)
        if math.isinf(period):
            # No progress this hour: skip to the next one.
            t = (math.floor(t / 3600.0) + 1) * 3600.0
            continue
        t += period
        if t >= _SECONDS_PER_DAY:
            break
        count += 1
        finish_hour = int(t // 3600.0) % 24
        per_hour[finish_hour] = per_hour.get(finish_hour, 0) + 1
        completions.append(t / 3600.0)

    return DayResult(
        inferences=count,
        per_hour=per_hour,
        active_hours=len(per_hour),
        first_completion_hour=completions[0] if completions else None,
        last_completion_hour=completions[-1] if completions else None,
    )


def _environment_with_k(environment: LightEnvironment,
                        k_eh: float) -> LightEnvironment:
    """A frozen environment whose representative ``k_eh`` equals the
    diurnal value at the hour under simulation."""
    return _FixedKEnvironment(
        cloudiness=environment.cloudiness,
        panel_efficiency=environment.panel_efficiency,
        peak_elevation_deg=environment.peak_elevation_deg,
        deployment_factor=environment.deployment_factor,
        ambient_temp_c=environment.ambient_temp_c,
        temp_coefficient=environment.temp_coefficient,
        name=f"{environment.name}@fixed",
        fixed_k_eh=k_eh,
    )
