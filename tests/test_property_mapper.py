"""Property-based tests for the SW-level mapping optimizer."""

import math
import random
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dataflow.cost_model import DataflowCostModel
from repro.design import AuTDesign, EnergyDesign, InferenceDesign
from repro.energy.environment import LightEnvironment
from repro.errors import MappingError
from repro.explore.mapper_search import MappingOptimizer
from repro.explore.space import DesignSpace
from repro.hardware.accelerators import AcceleratorFamily
from repro.sim.analytical import AnalyticalModel, CycleBudget
from repro.units import uF
from repro.workloads import zoo

panels = st.floats(min_value=2.0, max_value=30.0)
caps = st.floats(min_value=5e-5, max_value=5e-3)
networks = st.sampled_from(["har", "kws", "simple_conv"])
hardwares = st.sampled_from([
    InferenceDesign.msp430(),
    InferenceDesign(family=AcceleratorFamily.TPU, n_pes=32,
                    cache_bytes_per_pe=512),
])


@given(panel=panels, cap=caps, name=networks, inference=hardwares)
@settings(max_examples=40, deadline=None)
def test_optimizer_output_is_always_feasible(panel, cap, name, inference):
    """Whatever the mapper returns must evaluate as feasible in every
    environment it optimised for — its core contract."""
    network = zoo.workload_by_name(name)
    energy = EnergyDesign(panel_area_cm2=panel, capacitance_f=cap)
    mappings = MappingOptimizer(network).optimize(energy, inference)
    if mappings is None:
        return  # allowed: the design point is genuinely unusable
    design = AuTDesign(energy=energy, inference=inference,
                       mappings=mappings)
    for environment in LightEnvironment.paper_environments():
        metrics = AnalyticalModel(design, network, environment).evaluate()
        assert metrics.feasible, environment.name


@given(panel=panels, cap=caps, name=networks)
@settings(max_examples=30, deadline=None)
def test_optimizer_deterministic(panel, cap, name):
    network = zoo.workload_by_name(name)
    energy = EnergyDesign(panel_area_cm2=panel, capacitance_f=cap)
    inference = InferenceDesign.msp430()
    first = MappingOptimizer(network).optimize(energy, inference)
    second = MappingOptimizer(network).optimize(energy, inference)
    assert first == second


@given(panel=panels, name=networks)
@settings(max_examples=30, deadline=None)
def test_larger_capacitor_never_needs_more_tiles(panel, name):
    """Eq. 9 direction: growing the energy bank can only coarsen (or
    keep) the intermittent partition."""
    network = zoo.workload_by_name(name)
    inference = InferenceDesign.msp430()
    small = MappingOptimizer(network).optimize(
        EnergyDesign(panel_area_cm2=panel, capacitance_f=2e-4), inference)
    large = MappingOptimizer(network).optimize(
        EnergyDesign(panel_area_cm2=panel, capacitance_f=2e-3), inference)
    if small is None or large is None:
        return
    small_tiles = sum(m.effective_n_tiles(l)
                      for m, l in zip(small, network))
    large_tiles = sum(m.effective_n_tiles(l)
                      for m, l in zip(large, network))
    assert large_tiles <= small_tiles


#: Leakage eats this harvester's whole income (net charge power < 0).
STARVED = EnergyDesign(panel_area_cm2=0.05, capacitance_f=uF(10))
energy_designs = st.one_of(
    st.just(STARVED),
    st.builds(EnergyDesign,
              panel_area_cm2=st.floats(min_value=0.01, max_value=30.0),
              capacitance_f=st.floats(min_value=-7.0, max_value=-2.0).map(
                  lambda exponent: 10.0 ** exponent)),
)
_future = DesignSpace.future_aut()
scan_hardwares = st.sampled_from([
    InferenceDesign.msp430(),
    InferenceDesign(family=AcceleratorFamily.TPU, n_pes=64,
                    cache_bytes_per_pe=512),
    _future.to_design(_future.sample(random.Random(5)), ()).inference,
])
environment_sets = st.sampled_from([
    LightEnvironment.paper_environments(),
    (LightEnvironment.indoor(),),
])


def _brute_force(mapper, energy, inference):
    """Reference SW-level search over the optimizer's own ladders.

    Prices every rung with one :class:`AnalyticalModel` per environment;
    per combo, keeps the first rung that fits one energy cycle in every
    environment (a rung that raises ends its combo); across combos,
    keeps the least mean energy with strict ``<``.
    """
    network = mapper.network
    design = AuTDesign.with_default_mappings(energy, inference, network)
    models = [AnalyticalModel(design, network, environment,
                              checkpoint=mapper.checkpoint)
              for environment in mapper.environments]
    mappings = []
    for layer, ladders in zip(network, mapper._ladders):
        best, best_score = None, math.inf
        for ladder in ladders:
            priced = []
            for mapping in ladder:
                try:
                    priced.append([model.layer_cost(layer, mapping)
                                   for model in models])
                except MappingError:
                    priced.append(None)
            for mapping, costs in zip(ladder, priced):
                if costs is None:
                    break
                if all(model.tile_feasible(cost)
                       for model, cost in zip(models, costs)):
                    score = sum(cost.energy for cost in costs) / len(costs)
                    if score < best_score:
                        best, best_score = mapping, score
                    break
        if best is None:
            return None
        mappings.append(best)
    return tuple(mappings)


@given(energies=st.lists(energy_designs, min_size=1, max_size=5),
       inference=scan_hardwares, name=st.sampled_from(["har", "kws"]),
       environments=environment_sets,
       rejected=st.sampled_from([None, 2, 4]))
@settings(max_examples=40, deadline=None)
# On the MSP430, 5 cm2 and 100 uF fit some kws tiles only with the
# energy harvested while they run (Eq. 3's net * T_tile term).
@example(energies=[EnergyDesign(panel_area_cm2=5.0, capacitance_f=uF(100))],
         inference=InferenceDesign.msp430(), name="kws",
         environments=LightEnvironment.paper_environments(), rejected=None)
def test_shared_scan_matches_brute_force(energies, inference, name,
                                         environments, rejected):
    """Energy designs scanned together on one accelerator each get the
    brute-force reference's mappings — ``None`` (unmappable) included —
    also when pricing rejects every rung with ``rejected`` tiles: that
    rung ends its combo, and the rungs before it still count."""
    price = DataflowCostModel.layer_cost

    def layer_cost(model, layer, mapping):
        if mapping.n_tiles == rejected:
            raise MappingError(f"n_tiles={rejected} rejected")
        return price(model, layer, mapping)

    mapper = MappingOptimizer(zoo.workload_by_name(name), environments)
    with mock.patch.object(DataflowCostModel, "layer_cost", layer_cost):
        scanned = mapper.scan(inference, energies)
        expected = [_brute_force(mapper, energy, inference)
                    for energy in energies]
    assert scanned == expected


def _budget(net, stored, buck):
    return CycleBudget(p_eh=0.0, leak=0.0, net=net, stored=stored,
                       buck=buck, chain=buck)


@given(data=st.data(),
       nets=st.lists(st.one_of(st.just(0.0),
                               st.floats(min_value=-1e-2, max_value=1e-2)),
                     min_size=1, max_size=4),
       stored=st.floats(min_value=0.0, max_value=1e-2),
       buck=st.floats(min_value=0.5, max_value=1.0),
       seconds=st.one_of(st.just(0.0),
                         st.floats(min_value=0.0, max_value=10.0)))
@settings(max_examples=200, deadline=None)
def test_least_net_budget_decides_eq8(data, nets, stored, buck, seconds):
    """Budgets sharing ``stored`` and ``buck`` (as one energy design's
    do across environments): Eq. 8 against the least ``net`` equals
    Eq. 8 against every budget, on and off each budget's boundary."""
    budgets = [_budget(net, stored, buck) for net in nets]
    least = min(budgets, key=lambda budget: budget.net)
    energy = data.draw(st.one_of(
        st.floats(min_value=0.0, max_value=0.2),
        st.sampled_from([budget.available(seconds) for budget in budgets]),
    ))
    assert ((energy <= least.available(seconds))
            == all(energy <= budget.available(seconds)
                   for budget in budgets))
