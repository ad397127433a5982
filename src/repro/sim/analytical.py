"""Closed-form evaluation — the paper's Eqs. 1-9 as executable code.

The analytical model prices a full design point without stepping time:

* harvested power from Eq. 1;
* capacitor cycle energy and leakage from Eqs. 2-3;
* per-tile / per-layer energy from Eqs. 4-5 (via the dataflow cost
  model);
* end-to-end latency from Eq. 7, generalised to subtract the leakage
  and conversion losses a real harvesting chain pays;
* feasibility from Eq. 8.  Eq. 9's tile count is the SW-level mapper's
  choice (:meth:`repro.explore.mapper_search.MappingOptimizer.scan`).

Each equation has one implementation: :class:`CycleBudget` holds
Eqs. 1-3 and 8 for one energy design in one environment, and Eq. 7 is
split in two: :meth:`PlanTotals.of` sums a priced plan, which the light
does not touch, and :func:`price_plan` adds one environment's budget.
:class:`AnalyticalModel` prices one design with them and
:class:`BatchAnalyticalModel` many, on the one cost model per accelerator
that :func:`_cost_model` keeps.  ``tests/test_pricing_golden.py`` pins
their outputs.

It is the inner-loop scorer of the explorer; the step simulator
(:mod:`repro.sim.engine`) validates its fidelity in integration tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.dataflow import cost_model as layer_costs
from repro.dataflow.cost_model import DataflowCostModel, LayerCost, TileCost
from repro.dataflow.mapping import LayerMapping
from repro.design import AuTDesign, EnergyDesign, InferenceDesign
from repro.energy.environment import LightEnvironment
from repro.hardware.checkpoint import CheckpointModel
from repro.obs.state import OBS, span
from repro.sim.metrics import EnergyBreakdown, InferenceMetrics
from repro.workloads.layers import Layer
from repro.workloads.network import Network


@dataclass(frozen=True)
class CycleBudget:
    """Eqs. 1-3 of one energy design in one environment, plus the Eq. 8
    check they feed."""

    p_eh: float  # harvested power, W (Eq. 1)
    leak: float  # capacitor leakage at the on-threshold, W (Eq. 2 x U)
    net: float  # power actually accumulating in storage, W
    stored: float  # 1/2 C (U_on^2 - U_off^2), J
    buck: float  # buck-converter efficiency
    chain: float  # boost x buck efficiency

    @classmethod
    def of(cls, energy: EnergyDesign,
           environment: LightEnvironment) -> "CycleBudget":
        pmic = energy.pmic
        capacitance = energy.capacitance_f
        p_eh = energy.build_panel().power(environment.k_eh)
        leak = energy.k_cap * capacitance * pmic.v_on**2
        return cls(
            p_eh=p_eh,
            leak=leak,
            net=pmic.charge_power(p_eh) - leak,
            stored=0.5 * capacitance * (pmic.v_on**2 - pmic.v_off**2),
            buck=pmic.buck_efficiency,
            chain=pmic.boost_efficiency * pmic.buck_efficiency,
        )

    def available(self, execution_time: float = 0.0) -> float:
        """Rail-side energy available in one energy cycle, J (Eq. 3).

        ``1/2 C (U_on^2 - U_off^2)`` through the buck, plus whatever is
        harvested (minus leakage) during ``execution_time``.
        """
        return (self.stored + max(self.net * execution_time, 0.0)) * self.buck

    def fits(self, tile: TileCost) -> bool:
        """Eq. 8: one tile must fit one energy cycle (incl. its harvest)."""
        return tile.energy <= self.available(tile.total_time)


@dataclass(frozen=True)
class PlanTotals:
    """The environment-free half of Eq. 7 for one priced plan.

    The rail-side energy sums, busy time and tile count depend on the
    tile costs of Eqs. 4-6 alone, so a design priced in several
    environments sums its plan once and :func:`price_plan` reads the
    totals per environment.
    """

    plan: Sequence[LayerCost]
    #: Rail-side energy; the environment terms (leakage, conversion)
    #: are zero here and filled in by :func:`price_plan`.
    energy: EnergyBreakdown
    busy_time: float
    n_tiles: int

    @classmethod
    def of(cls, plan: Sequence[LayerCost]) -> "PlanTotals":
        energy = EnergyBreakdown()
        busy_time = 0.0
        for cost in plan:
            energy.compute += cost.compute_energy
            energy.vm += cost.n_tiles * cost.tile.vm_energy
            energy.nvm += cost.n_tiles * cost.tile.nvm_energy
            energy.static += cost.static_energy
            energy.checkpoint += cost.checkpoint_energy
            busy_time += cost.busy_time
        return cls(plan=plan, energy=energy, busy_time=busy_time,
                   n_tiles=sum(cost.n_tiles for cost in plan))


def price_plan(totals: PlanTotals, budget: CycleBudget) -> InferenceMetrics:
    """Eq. 7 in one environment: end-to-end metrics of a summed plan;
    marks infeasibility (Eq. 8 per layer, in plan order).

    An energy design whose losses eat its whole harvest is infeasible
    before any layer is read, so callers may skip pricing the plan.
    """
    if budget.net <= 0.0:
        return InferenceMetrics.infeasible(
            "leakage and PMIC losses consume the entire harvest"
        )
    for cost in totals.plan:
        if not budget.fits(cost.tile):
            return InferenceMetrics.infeasible(
                f"layer {cost.layer_name!r}: one tile exceeds the "
                f"energy cycle (Eq. 8) with N_tile={cost.n_tiles}"
            )

    rail = totals.energy
    rail_energy = rail.total
    busy_time = totals.busy_time
    # Warm-start energy balance (matching the step simulator): the
    # inference begins with one energy cycle banked in the capacitor;
    # harvesting continues throughout execution; whatever is still
    # missing must be recharged between tiles.
    effective_power = budget.p_eh * budget.chain - budget.leak * budget.buck
    if effective_power <= 0.0:
        return InferenceMetrics.infeasible(
            "effective charge power is non-positive"
        )
    banked = budget.available(0.0)
    missing = rail_energy - banked - effective_power * busy_time
    charge_time = max(missing, 0.0) / effective_power
    e2e_latency = busy_time + charge_time
    # Steady-state repetition period: between runs the bank must be
    # restored too, so every joule — banked or not — is re-harvested.
    sustained_period = max(rail_energy / effective_power, busy_time)

    # E_eh is accounted over the sustained period (one full charge-
    # and-execute cycle) so that system efficiency E_infer/E_eh is
    # comparable across designs and bounded by the chain efficiency.
    harvested = budget.p_eh * sustained_period
    breakdown = EnergyBreakdown(
        compute=rail.compute,
        vm=rail.vm,
        nvm=rail.nvm,
        static=rail.static,
        checkpoint=rail.checkpoint,
        cap_leakage=budget.leak * sustained_period,
        conversion=harvested * (1.0 - budget.chain),
    )
    return InferenceMetrics(
        e2e_latency=e2e_latency,
        busy_time=busy_time,
        charge_time=charge_time,
        energy=breakdown,
        harvested_energy=harvested,
        power_cycles=max(totals.n_tiles, 1),
        exceptions=0,
        sustained_period=sustained_period,
    )


def _cost_model(inference: InferenceDesign,
                checkpoint: Optional[CheckpointModel]) -> DataflowCostModel:
    """The cost model on ``inference``'s accelerator, priced with
    ``checkpoint`` or else the default for the accelerator's NVM.

    Built on first use and kept in the process's accelerator registry
    (:data:`repro.dataflow.cost_model._COST_MODELS`) while the
    layer-cost cache is on; with the cache off, built per call.
    """
    registry = (layer_costs._COST_MODELS
                if layer_costs._layer_cost_cache_enabled
                else {})  # a throwaway while the cache is off
    key = (inference, checkpoint)
    cost_model = registry.get(key)
    if cost_model is None:
        hardware = inference.build()
        cost_model = DataflowCostModel(hardware, checkpoint or CheckpointModel(
            nvm=hardware.nvm.technology))
        if len(registry) >= layer_costs._COST_MODELS_MAXSIZE:
            registry.clear()
        registry[key] = cost_model
    return cost_model


class AnalyticalModel:
    """Evaluates an :class:`AuTDesign` on a network in one environment."""

    def __init__(self, design: AuTDesign, network: Network,
                 environment: LightEnvironment,
                 checkpoint: Optional[CheckpointModel] = None) -> None:
        design.validate_against(network)
        self.design = design
        self.network = network
        self.environment = environment
        self.cost_model = _cost_model(design.inference, checkpoint)
        self.hardware = self.cost_model.hardware
        self.checkpoint = self.cost_model.checkpoint
        #: Eqs. 1-3, derived once: every Eq. 8 probe of the mapper reads it.
        self.budget = CycleBudget.of(design.energy, environment)

    # -- energy-side closed forms (Eqs. 1-3) ---------------------------------

    @property
    def p_eh(self) -> float:
        """Harvested power, W (Eq. 1)."""
        return self.budget.p_eh

    def available_cycle_energy(self, execution_time: float = 0.0) -> float:
        """Rail-side energy available in one energy cycle, J (Eq. 3)."""
        return self.budget.available(execution_time)

    # -- inference-side closed forms (Eqs. 4-6) -------------------------------------

    def layer_cost(self, layer: Layer, mapping: LayerMapping) -> LayerCost:
        return self.cost_model.layer_cost(layer, mapping)

    def plan(self) -> List[LayerCost]:
        """Per-layer costs for the design's mappings, in network order."""
        with span("cost.plan"):
            return [
                self.layer_cost(layer, mapping)
                for layer, mapping in zip(self.network, self.design.mappings)
            ]

    def tile_feasible(self, cost: LayerCost) -> bool:
        """Eq. 8: one tile must fit one energy cycle (incl. its harvest)."""
        return self.budget.fits(cost.tile)

    def cold_start_charge_time(self) -> float:
        """Seconds to charge the capacitor from empty to ``U_on``.

        The intro's "longer charging latency" of oversized capacitors:
        a deployment's first inference (or any inference after a deep
        blackout) pays this in full.
        """
        pmic = self.design.energy.pmic
        capacitor = self.design.energy.build_capacitor(0.0)
        return capacitor.time_to_reach(pmic.v_on,
                                       pmic.charge_power(self.p_eh))

    def cold_start_latency(self) -> float:
        """End-to-end latency of the first-ever inference, s."""
        metrics = self.evaluate()
        if not metrics.feasible:
            return math.inf
        return self.cold_start_charge_time() + metrics.e2e_latency

    # -- whole-inference evaluation (Eq. 7) -------------------------------------------

    def evaluate(self) -> InferenceMetrics:
        """Price the design end-to-end; marks infeasible designs."""
        if not OBS.enabled:
            return self._evaluate()
        with span("analytical.evaluate"):
            return self._evaluate()

    def _evaluate(self) -> InferenceMetrics:
        # A design that cannot charge is rejected by price_plan before
        # it reads the plan, so price no layer for it.
        plan = self.plan() if self.budget.net > 0.0 else []
        return price_plan(PlanTotals.of(plan), self.budget)


class BatchAnalyticalModel:
    """Prices N ``(design, workload)`` pairs bound to one environment.

    One instance is bound to a ``(network, environment)`` pair and
    evaluates many :class:`AuTDesign` candidates at once: the designs
    are grouped by :class:`InferenceDesign` and priced on its
    :func:`_cost_model`, every layer's tile costs go through one
    :meth:`~repro.dataflow.cost_model.DataflowCostModel.layer_cost_batch`
    call per group, and each design is priced by :func:`price_plan`,
    the same Eq. 7 that :meth:`AnalyticalModel.evaluate` runs.  The
    plans do not depend on the environment, so
    :func:`~repro.sim.evaluator._evaluate_every_environment` builds them
    with the first environment's model and prices their
    :class:`PlanTotals` in every environment through
    :meth:`evaluate_plans`.
    """

    def __init__(self, network: Network, environment: LightEnvironment,
                 checkpoint: Optional[CheckpointModel] = None) -> None:
        self.network = network
        self.environment = environment
        self.checkpoint = checkpoint

    # -- plan construction -----------------------------------------------------

    def plans(self, designs: Sequence[AuTDesign],
              budgets: Sequence[CycleBudget]) -> List[List[LayerCost]]:
        """Per-layer costs for each design, grouped by accelerator.

        Designs sharing an :class:`InferenceDesign` share one hardware
        build and one cost model, so a mapping repeated across the group
        is priced once and then hits the layer-cost cache.  A design
        whose budget (``budgets``, one per design) cannot charge gets an
        empty plan: :func:`price_plan` rejects it before reading a
        layer, so, as in :meth:`AnalyticalModel.evaluate`, no layer is
        priced for it.
        """
        plans: List[List[LayerCost]] = [[] for _ in designs]
        groups: dict = {}
        for index, (design, budget) in enumerate(zip(designs, budgets)):
            design.validate_against(self.network)
            if budget.net > 0.0:
                groups.setdefault(design.inference, []).append(index)
        with span("cost.plan"):
            for inference, indices in groups.items():
                cost_model = _cost_model(inference, self.checkpoint)
                for layer_index, layer in enumerate(self.network):
                    costs = cost_model.layer_cost_batch(
                        layer,
                        [designs[i].mappings[layer_index] for i in indices],
                    )
                    for index, cost in zip(indices, costs):
                        plans[index].append(cost)
        return plans

    # -- whole-inference evaluation (Eq. 7) -----------------------------------

    def evaluate_many(
        self, designs: Sequence[AuTDesign]
    ) -> List[InferenceMetrics]:
        """One :class:`InferenceMetrics` per design, in order."""
        designs = list(designs)
        budgets = [CycleBudget.of(design.energy, self.environment)
                   for design in designs]
        return self.evaluate_plans(
            budgets, [PlanTotals.of(plan)
                      for plan in self.plans(designs, budgets)])

    def evaluate_plans(
        self,
        budgets: Sequence[CycleBudget],
        totals: Sequence[PlanTotals],
    ) -> List[InferenceMetrics]:
        """Eq. 7 over pre-summed plans (one per budget)."""
        return [price_plan(total, budget)
                for budget, total in zip(budgets, totals)]

