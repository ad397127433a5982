"""Tests for the SW-level mapping optimizer."""

import pytest

from repro.dataflow.mapping import LayerMapping
from repro.design import EnergyDesign, InferenceDesign
from repro.energy.environment import LightEnvironment
from repro.explore.mapper_search import (MappingOptimizer, clear_mapper_memo,
                                         mapper_memo_stats)
from repro.hardware.accelerators import AcceleratorFamily
from repro.sim.analytical import AnalyticalModel
from repro.design import AuTDesign
from repro.units import uF, mF
from repro.workloads import zoo


@pytest.fixture
def har():
    return zoo.har_cnn()


def optimize(network, panel_cm2=8.0, capacitance=uF(470),
             inference=None, environments=None):
    optimizer = MappingOptimizer(network, environments=environments)
    energy = EnergyDesign(panel_area_cm2=panel_cm2,
                          capacitance_f=capacitance)
    return optimizer.optimize(energy, inference or InferenceDesign.msp430())


class TestBasicOperation:
    def test_one_mapping_per_layer(self, har):
        mappings = optimize(har)
        assert mappings is not None
        assert len(mappings) == len(har)

    def test_mappings_are_feasible(self, har):
        mappings = optimize(har)
        energy = EnergyDesign(panel_area_cm2=8.0, capacitance_f=uF(470))
        design = AuTDesign(energy=energy,
                           inference=InferenceDesign.msp430(),
                           mappings=mappings)
        for env in LightEnvironment.paper_environments():
            metrics = AnalyticalModel(design, har, env).evaluate()
            assert metrics.feasible

    def test_unmappable_returns_none(self):
        """A microscopic capacitor cannot host even single-MAC tiles of a
        big conv layer in the dark."""
        mappings = optimize(zoo.cifar10_cnn(), panel_cm2=1.0,
                            capacitance=uF(1),
                            environments=[LightEnvironment.indoor()])
        assert mappings is None


class TestAdaptivity:
    def test_smaller_cycle_energy_means_more_tiles(self, har):
        """Eq. 9's driving effect: a smaller capacitor forces finer
        intermittent partitioning."""
        big = optimize(zoo.cifar10_cnn(), capacitance=mF(2.2))
        small = optimize(zoo.cifar10_cnn(), capacitance=uF(220))
        assert big is not None and small is not None
        total_big = sum(m.n_tiles for m in big)
        total_small = sum(m.n_tiles for m in small)
        assert total_small > total_big

    def test_darker_environment_means_more_tiles(self):
        """Low k_eh shrinks E_available (Eq. 3), pushing N_tile up —
        the exact observation §III-B-3 makes."""
        bright = optimize(zoo.cifar10_cnn(), capacitance=uF(220),
                          environments=[LightEnvironment.brighter()])
        dark = optimize(zoo.cifar10_cnn(), capacitance=uF(220),
                        environments=[LightEnvironment.darker()])
        assert bright is not None and dark is not None
        assert (sum(m.n_tiles for m in dark)
                >= sum(m.n_tiles for m in bright))

    def test_accelerator_families_pick_their_strengths(self):
        """On the TPU (penalised OS/IS) conv layers should lean WS more
        often than on the flexible Eyeriss."""
        net = zoo.cifar10_cnn()
        tpu = optimize(net, inference=InferenceDesign(
            family=AcceleratorFamily.TPU, n_pes=64, cache_bytes_per_pe=512))
        assert tpu is not None
        ws_count = sum(1 for m in tpu if m.style.value == "ws")
        assert ws_count >= len(tpu) / 2


class TestExactness:
    def test_chosen_mapping_not_worse_than_defaults(self, har):
        """The optimizer's pick must beat (or tie) the naive default
        mapping on mean energy."""
        energy = EnergyDesign(panel_area_cm2=8.0, capacitance_f=uF(470))
        inference = InferenceDesign.msp430()
        chosen = MappingOptimizer(har).optimize(energy, inference)
        design = AuTDesign(energy=energy, inference=inference,
                           mappings=chosen)
        models = [AnalyticalModel(design, har, environment)
                  for environment in LightEnvironment.paper_environments()]

        def mean_energy(layer, mapping):
            return sum(model.layer_cost(layer, mapping).energy
                       for model in models) / len(models)

        for layer, mapping in zip(har, chosen):
            best = mean_energy(layer, mapping)
            for n in (1, 2, 4):
                candidate = LayerMapping.default(layer, n_tiles=n)
                if not all(model.tile_feasible(model.layer_cost(layer,
                                                                candidate))
                           for model in models):
                    continue
                assert best <= mean_energy(layer, candidate) * (1 + 1e-9)


class TestMapperMemo:
    def test_every_clear_reaches_a_long_lived_optimizer(self, har):
        optimizer = MappingOptimizer(har)  # built once, kept across clears
        key = (EnergyDesign(panel_area_cm2=8.0, capacitance_f=uF(470)),
               InferenceDesign.msp430())
        probes = []
        for _ in range(3):
            clear_mapper_memo()
            probes.append(optimizer.memo_probe(key))
            optimizer.memo_fill(key, None)
        # Each probe after a clear misses: no clear leaves behind an
        # entry the optimizer added after an earlier one.
        assert probes == [(False, None)] * 3
        assert mapper_memo_stats() == (0, 1)
        clear_mapper_memo()
