"""Closed-form evaluation — the paper's Eqs. 1-9 as executable code.

The analytical model prices a full design point without stepping time:

* harvested power from Eq. 1;
* capacitor cycle energy and leakage from Eqs. 2-3;
* per-tile / per-layer energy from Eqs. 4-5 (via the dataflow cost
  model);
* end-to-end latency from Eq. 7, generalised to subtract the leakage
  and conversion losses a real harvesting chain pays;
* feasibility from Eq. 8, with :meth:`AnalyticalModel.min_feasible_n_tiles`
  realising the Eq. 9 lower bound constructively.

Each equation has one implementation: :class:`CycleBudget` holds
Eqs. 1-3 and 8 for one energy design in one environment, and
:func:`price_plan` is Eq. 7.  :class:`AnalyticalModel` prices one
design with them; :class:`BatchAnalyticalModel` prices many, building
hardware once per accelerator.  ``tests/test_pricing_golden.py`` pins
their outputs.

It is the inner-loop scorer of the explorer; the step simulator
(:mod:`repro.sim.engine`) validates its fidelity in integration tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.dataflow.cost_model import DataflowCostModel, LayerCost, TileCost
from repro.dataflow.mapping import LayerMapping
from repro.design import AuTDesign, EnergyDesign
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


def price_plan(plan: Sequence[LayerCost],
               budget: CycleBudget) -> InferenceMetrics:
    """Eq. 7: end-to-end metrics of a priced plan; marks infeasibility.

    An energy design whose losses eat its whole harvest is infeasible
    before any layer is read, so callers may skip pricing the plan.
    """
    if budget.net <= 0.0:
        return InferenceMetrics.infeasible(
            "leakage and PMIC losses consume the entire harvest"
        )
    breakdown = EnergyBreakdown()
    busy_time = 0.0
    for cost in plan:
        if not budget.fits(cost.tile):
            return InferenceMetrics.infeasible(
                f"layer {cost.layer_name!r}: one tile exceeds the "
                f"energy cycle (Eq. 8) with N_tile={cost.n_tiles}"
            )
        breakdown.compute += cost.compute_energy
        breakdown.vm += cost.n_tiles * cost.tile.vm_energy
        breakdown.nvm += cost.n_tiles * cost.tile.nvm_energy
        breakdown.static += cost.static_energy
        breakdown.checkpoint += cost.checkpoint_energy
        busy_time += cost.busy_time

    rail_energy = breakdown.total
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
    breakdown.cap_leakage = budget.leak * sustained_period
    breakdown.conversion = harvested * (1.0 - budget.chain)

    n_tiles_total = sum(cost.n_tiles for cost in plan)
    return InferenceMetrics(
        e2e_latency=e2e_latency,
        busy_time=busy_time,
        charge_time=charge_time,
        energy=breakdown,
        harvested_energy=harvested,
        power_cycles=max(n_tiles_total, 1),
        exceptions=0,
        sustained_period=sustained_period,
    )


class AnalyticalModel:
    """Evaluates an :class:`AuTDesign` on a network in one environment."""

    def __init__(self, design: AuTDesign, network: Network,
                 environment: LightEnvironment,
                 checkpoint: Optional[CheckpointModel] = None) -> None:
        design.validate_against(network)
        self.design = design
        self.network = network
        self.environment = environment
        self.hardware = design.inference.build()
        self.checkpoint = checkpoint or CheckpointModel(
            nvm=self.hardware.nvm.technology
        )
        self.cost_model = DataflowCostModel(self.hardware, self.checkpoint)
        #: Eqs. 1-3, derived once: every Eq. 8 probe of the mapper reads it.
        self.budget = CycleBudget.of(design.energy, environment)

    # -- energy-side closed forms (Eqs. 1-3) ---------------------------------

    @property
    def p_eh(self) -> float:
        """Harvested power, W (Eq. 1)."""
        return self.budget.p_eh

    @property
    def leak_power(self) -> float:
        """Capacitor leakage power at the on-threshold, W (Eq. 2 x U)."""
        return self.budget.leak

    @property
    def net_charge_power(self) -> float:
        """Power actually accumulating in storage, W."""
        return self.budget.net

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

    def min_feasible_n_tiles(self, layer: Layer,
                             mapping: LayerMapping) -> Optional[int]:
        """Smallest ``N_tile`` satisfying Eq. 8 — Eq. 9 made constructive.

        Scans the divisor-aligned tile counts of the mapping's tile
        dimension; returns ``None`` when even the finest partition does
        not fit an energy cycle (the design is unusable for this layer).

        A multi-dimensional input tile keeps its ``secondary_dim`` /
        ``n_tiles_2`` split (clamped to the dimension size) in every
        scanned candidate: dropping it would answer Eq. 9 for a
        different — coarser — mapping family than the one asked about.
        """
        dims = layer.dims()
        bound = dims[mapping.tile_dim]
        secondary = mapping.secondary_dim
        n_tiles_2 = 1
        if secondary is not None:
            n_tiles_2 = min(mapping.n_tiles_2, dims[secondary])
        n = max(1, mapping.n_tiles)
        while n <= bound:
            candidate = LayerMapping(style=mapping.style, n_tiles=n,
                                     tile_dim=mapping.tile_dim,
                                     spatial_dim=mapping.spatial_dim,
                                     secondary_dim=secondary,
                                     n_tiles_2=n_tiles_2)
            cost = self.layer_cost(layer, candidate)
            if self.tile_feasible(cost):
                return n
            n = _next_tile_count(n, bound)
        return None

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
        return price_plan(plan, self.budget)


class BatchAnalyticalModel:
    """Prices N ``(design, workload)`` pairs bound to one environment.

    One instance is bound to a ``(network, environment)`` pair and
    evaluates many :class:`AuTDesign` candidates at once: hardware is
    built once per distinct :class:`InferenceDesign`, every layer's tile
    costs go through one
    :meth:`~repro.dataflow.cost_model.DataflowCostModel.layer_cost_batch`
    call per group, and each design is priced by :func:`price_plan`,
    the same Eq. 7 that :meth:`AnalyticalModel.evaluate` runs.
    """

    def __init__(self, network: Network, environment: LightEnvironment,
                 checkpoint: Optional[CheckpointModel] = None) -> None:
        self.network = network
        self.environment = environment
        self.checkpoint = checkpoint

    # -- plan construction -----------------------------------------------------

    def plans(self, designs: Sequence[AuTDesign]) -> List[List[LayerCost]]:
        """Per-layer costs for each design, grouped by accelerator.

        Designs sharing an :class:`InferenceDesign` share one hardware
        build and one cost model, so a mapping repeated across the group
        is priced once and then hits the layer-cost cache.
        """
        plans: List[Optional[List[LayerCost]]] = [None] * len(designs)
        groups: dict = {}
        for index, design in enumerate(designs):
            design.validate_against(self.network)
            groups.setdefault(design.inference, []).append(index)
        for inference, indices in groups.items():
            hardware = inference.build()
            checkpoint = self.checkpoint or CheckpointModel(
                nvm=hardware.nvm.technology
            )
            cost_model = DataflowCostModel(hardware, checkpoint)
            rows: List[List[LayerCost]] = [[] for _ in indices]
            for layer_index, layer in enumerate(self.network):
                costs = cost_model.layer_cost_batch(
                    layer,
                    [designs[i].mappings[layer_index] for i in indices],
                )
                for row, cost in zip(rows, costs):
                    row.append(cost)
            for index, row in zip(indices, rows):
                plans[index] = row
        return plans  # type: ignore[return-value]

    # -- whole-inference evaluation (Eq. 7) -----------------------------------

    def evaluate_many(
        self, designs: Sequence[AuTDesign]
    ) -> List[InferenceMetrics]:
        """One :class:`InferenceMetrics` per design, in order."""
        designs = list(designs)
        return self.evaluate_plans(designs, self.plans(designs))

    def evaluate_plans(
        self,
        designs: Sequence[AuTDesign],
        plans: Sequence[Sequence[LayerCost]],
    ) -> List[InferenceMetrics]:
        """Eq. 7 over pre-priced plans (one per design)."""
        return [price_plan(plan, CycleBudget.of(design.energy,
                                                self.environment))
                for design, plan in zip(designs, plans)]


def _next_tile_count(n: int, bound: int) -> int:
    """The next useful tile count after ``n`` for a dimension of ``bound``.

    Tile counts between divisor steps change nothing (ceil-division
    yields the same chunk), so advance to the next count that shrinks
    the chunk.
    """
    chunk = math.ceil(bound / n)
    if chunk <= 1:
        return bound + 1
    return math.ceil(bound / (chunk - 1))
