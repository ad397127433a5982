"""The CHRYSALIS Evaluator — the facade the explorer queries.

Given a candidate :class:`~repro.design.AuTDesign` and a workload, the
evaluator returns :class:`~repro.sim.metrics.InferenceMetrics` either
from the closed-form model (fast; the search inner loop) or from the
step-based simulator (faithful; validation and final reporting).

The paper averages every search over two solar environments (brighter
and darker) "to ensure the system is able to run in both environments".
Its analytical form, :func:`_evaluate_every_environment`, prices the
search, :func:`repro.api.evaluate_batch` and analytical
:func:`repro.api.evaluate`; its step form is
:func:`_simulate_every_environment`.  Both build a design's plan once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from repro.dataflow.cost_model import LayerCost
from repro.design import AuTDesign
from repro.energy.controller import EnergyController
from repro.energy.environment import LightEnvironment
from repro.energy.harvester import SolarHarvester
from repro.energy.traces import TraceEnvironment, TraceHarvester
from repro.errors import ConfigurationError
from repro.hardware.checkpoint import CheckpointModel
from repro.obs.state import span
from repro.sim.analytical import (AnalyticalModel, BatchAnalyticalModel,
                                  CycleBudget, PlanTotals)
from repro.sim.engine import SimulationResult, StepSimulator
from repro.sim.intermittent import InferenceController
from repro.sim.metrics import InferenceMetrics
from repro.workloads.network import Network

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.faults.injector import FaultInjector


def build_harvester(design: AuTDesign, environment):
    """The harvester matching ``environment``'s kind.

    A :class:`~repro.energy.traces.TraceEnvironment` drives the panel
    through its piecewise-constant trace; anything else (the static
    lighting presets) uses the paper's constant-power solar harvester.
    """
    panel = design.energy.build_panel()
    if isinstance(environment, TraceEnvironment):
        return TraceHarvester(panel=panel, trace=environment)
    return SolarHarvester(panel=panel, environment=environment)


class ChrysalisEvaluator:
    """Prices AuT design candidates on a workload."""

    def __init__(self, network: Network,
                 environments: Optional[Sequence[LightEnvironment]] = None,
                 checkpoint: Optional[CheckpointModel] = None,
                 steps_per_tile: int = 16,
                 faults: Optional["FaultInjector"] = None,
                 max_steps: Optional[int] = None,
                 time_budget_s: Optional[float] = None,
                 fast_forward: bool = True) -> None:
        self.network = network
        self.environments = tuple(
            environments
            if environments is not None
            else LightEnvironment.paper_environments()
        )
        if not self.environments:
            raise ConfigurationError("at least one environment is required")
        self.checkpoint = checkpoint
        self.steps_per_tile = steps_per_tile
        self.faults = faults
        self.max_steps = max_steps
        self.time_budget_s = time_budget_s
        #: Enable the step simulator's cycle-skipping fast path (it
        #: engages on constant-harvest and piecewise-constant-trace
        #: runs, fault-free; disable it to force exact stepping, e.g.
        #: when the complete per-step event trace matters).
        self.fast_forward = fast_forward

    # -- single environment ------------------------------------------------------

    def evaluate(self, design: AuTDesign,
                 environment: LightEnvironment) -> InferenceMetrics:
        """Analytical metrics of ``design`` in one environment, from a
        fresh :class:`~repro.sim.analytical.AnalyticalModel`."""
        return AnalyticalModel(design, self.network, environment,
                               checkpoint=self.checkpoint).evaluate()

    def simulate(self, design: AuTDesign, environment: LightEnvironment,
                 initial_voltage: Optional[float] = None,
                 faults: Optional["FaultInjector"] = None,
                 fast_forward: Optional[bool] = None) -> SimulationResult:
        """Run the step-based simulator in one environment (a batch of one).

        ``initial_voltage`` defaults to the PMIC's on-threshold — the
        steady-state (amortised) semantics the paper's Eq. 7 uses, where
        each inference starts as soon as one energy cycle is banked.
        Pass 0.0 to include the one-time cold-start charge.

        ``faults`` (defaulting to the evaluator-level injector, if any)
        injects the :mod:`repro.faults` processes; a fresh copy is taken
        per run so repeated simulations see identical fault sequences.

        ``fast_forward`` (defaulting to the evaluator-level setting)
        controls the cycle-skipping fast path; pass ``False`` when the
        complete per-event trace matters more than wall-clock time.
        """
        _, run = self._planned(design, environment)
        return run(environment, initial_voltage, faults, fast_forward)

    # -- the paper's two-environment protocol -------------------------------------

    def evaluate_average(self, design: AuTDesign) -> InferenceMetrics:
        """Average metrics over the configured environments.

        Any infeasible environment makes the whole design infeasible —
        the paper requires the system "to run in both environments".
        """
        return self.evaluate_row(design)[1]

    def evaluate_row(self, design: AuTDesign
                     ) -> Tuple[List[InferenceMetrics], InferenceMetrics]:
        """The metrics of each configured environment, in order, up to
        and including the first infeasible one, and the verdict that
        :meth:`evaluate_average` returns: a batch of one through
        :func:`_evaluate_every_environment`, so the design's accelerator
        and plan are built once for every environment."""
        return _evaluate_every_environment(
            [design], self.network, self.environments, self.checkpoint)[0]

    # -- internals ------------------------------------------------------------------

    def _planned(self, design: AuTDesign, environment: LightEnvironment
                 ) -> Tuple[List[LayerCost], Callable[..., SimulationResult]]:
        """``design``'s plan, built once on a model bound to ``environment``
        (the plan does not depend on the light), and a function that runs
        one :class:`StepSimulator` on it per call, in the environment it
        is given, with :meth:`simulate`'s arguments and defaults."""
        model = AnalyticalModel(design, self.network, environment,
                                checkpoint=self.checkpoint)
        plan = model.plan()

        def run(environment, initial_voltage=None, faults=None,
                fast_forward=None) -> SimulationResult:
            if initial_voltage is None:
                initial_voltage = design.energy.pmic.v_on
            injector = faults if faults is not None else self.faults
            energy = EnergyController(
                harvester=build_harvester(design, environment),
                capacitor=design.energy.build_capacitor(initial_voltage),
                pmic=design.energy.pmic,
                faults=injector.fresh() if injector is not None else None)
            return StepSimulator(
                energy, InferenceController(plan, model.checkpoint),
                steps_per_tile=self.steps_per_tile, max_steps=self.max_steps,
                time_budget_s=self.time_budget_s,
                fast_forward=(self.fast_forward if fast_forward is None
                              else fast_forward)).run()

        return plan, run


def _average_metrics(results: Sequence[InferenceMetrics]) -> InferenceMetrics:
    """Element-wise mean of feasible metric sets."""
    n = len(results)
    breakdown = results[0].energy.scaled(1.0 / n)
    for metrics in results[1:]:
        breakdown.add(metrics.energy.scaled(1.0 / n))
    return InferenceMetrics(
        e2e_latency=sum(m.e2e_latency for m in results) / n,
        busy_time=sum(m.busy_time for m in results) / n,
        charge_time=sum(m.charge_time for m in results) / n,
        energy=breakdown,
        harvested_energy=sum(m.harvested_energy for m in results) / n,
        power_cycles=round(sum(m.power_cycles for m in results) / n),
        exceptions=round(sum(m.exceptions for m in results) / n),
        sustained_period=sum(m.sustained_period or m.e2e_latency
                             for m in results) / n,
    )


def _verdict(row: Sequence[InferenceMetrics]) -> InferenceMetrics:
    """The paper's protocol over one design's per-environment metrics,
    priced up to and including the first infeasible environment: that
    environment's marker metrics, or else the mean of them all."""
    return row[-1] if not row[-1].feasible else _average_metrics(row)


def _evaluate_every_environment(
    designs: Sequence[AuTDesign],
    network: Network,
    environments: Sequence[LightEnvironment],
    checkpoint: Optional[CheckpointModel],
) -> List[Tuple[List[InferenceMetrics], InferenceMetrics]]:
    """The paper's every-environment rule for many designs at analytical
    fidelity.

    Tile costs (Eqs. 4-6) do not depend on the light, so each design's
    plan is built and summed once
    (:class:`~repro.sim.analytical.PlanTotals`), by a
    :class:`~repro.sim.analytical.BatchAnalyticalModel` bound to the
    first environment, for the designs that can charge in it.
    Environment ``k`` then computes only its cycle budgets and prices
    the plans of the designs still feasible in every earlier
    environment.  Returns, per design, its metrics per environment up to
    and including the first infeasible one, and its verdict
    (:func:`_verdict`).
    """
    rows: List[List[InferenceMetrics]] = [[] for _ in designs]
    live = list(range(len(designs)))
    with span("eval.average"):
        model = BatchAnalyticalModel(network, environments[0], checkpoint)
        budgets = [CycleBudget.of(design.energy, environments[0])
                   for design in designs]
        totals = [PlanTotals.of(plan)
                  for plan in model.plans(designs, budgets)]
        for k, environment in enumerate(environments):
            if not live:
                break
            if k:
                budgets = [CycleBudget.of(designs[i].energy, environment)
                           for i in live]
            priced = model.evaluate_plans(budgets, [totals[i] for i in live])
            feasible = []
            for i, metrics in zip(live, priced):
                rows[i].append(metrics)
                if metrics.feasible:
                    feasible.append(i)
            live = feasible
    return [(row, _verdict(row)) for row in rows]


def _simulate_every_environment(
    evaluator: ChrysalisEvaluator, design: AuTDesign,
) -> Tuple[List[SimulationResult], InferenceMetrics]:
    """The every-environment rule for one design at step fidelity: one
    plan (:meth:`ChrysalisEvaluator._planned`), step-simulated in each of
    ``evaluator``'s environments up to and including the first infeasible
    one.  Returns those simulations and their :func:`_verdict`."""
    _, run = evaluator._planned(design, evaluator.environments[0])
    results: List[SimulationResult] = []
    for environment in evaluator.environments:
        results.append(run(environment))
        if not results[-1].metrics.feasible:
            break
    return results, _verdict([result.metrics for result in results])
