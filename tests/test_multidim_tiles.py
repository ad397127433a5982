"""Tests for multi-dimensional checkpoint tiles (secondary InterTempMap)."""

import pytest

from repro.dataflow.cost_model import DataflowCostModel
from repro.dataflow.directives import DataflowStyle, InterTempMap
from repro.dataflow.mapping import LayerMapping
from repro.design import EnergyDesign, InferenceDesign
from repro.energy.environment import LightEnvironment
from repro.errors import MappingError
from repro.explore.mapper_search import MappingOptimizer
from repro.hardware.accelerators import tpu_like
from repro.hardware.checkpoint import CheckpointModel
from repro.units import uF
from repro.workloads import zoo
from repro.workloads.layers import Conv2D


@pytest.fixture
def conv():
    return Conv2D("c", in_channels=64, out_channels=128, in_height=28,
                  in_width=28, kernel=3, padding=1)


def mapping_2d(n_tiles=28, n_tiles_2=4):
    return LayerMapping(style=DataflowStyle.WEIGHT_STATIONARY,
                        n_tiles=n_tiles, tile_dim="Y", spatial_dim="X",
                        secondary_dim="K", n_tiles_2=n_tiles_2)


class TestGeometry:
    def test_effective_tiles_multiply(self, conv):
        mapping = mapping_2d(n_tiles=7, n_tiles_2=4)
        assert mapping.effective_n_tiles(conv) == 7 * 4

    def test_tile_dims_shrink_both(self, conv):
        mapping = mapping_2d(n_tiles=7, n_tiles_2=4)
        dims = mapping.tile_dims(conv)
        assert dims["Y"] == 4  # ceil(28/7)
        assert dims["K"] == 32  # ceil(128/4)

    def test_clamping_both_dims(self, conv):
        mapping = mapping_2d(n_tiles=1000, n_tiles_2=1000)
        clamped = mapping.clamped(conv)
        assert clamped.n_tiles == 28
        assert clamped.n_tiles_2 == 128

    def test_secondary_must_differ_from_primary(self):
        with pytest.raises(MappingError):
            LayerMapping(style=DataflowStyle.WEIGHT_STATIONARY, n_tiles=2,
                         tile_dim="Y", spatial_dim="K",
                         secondary_dim="Y", n_tiles_2=2)

    def test_secondary_must_differ_from_spatial(self):
        with pytest.raises(MappingError):
            LayerMapping(style=DataflowStyle.WEIGHT_STATIONARY, n_tiles=2,
                         tile_dim="Y", spatial_dim="K",
                         secondary_dim="K", n_tiles_2=2)

    def test_n_tiles_2_requires_secondary(self):
        with pytest.raises(MappingError):
            LayerMapping(style=DataflowStyle.WEIGHT_STATIONARY, n_tiles=2,
                         tile_dim="Y", spatial_dim="K", n_tiles_2=3)


class TestDirectiveExpansion:
    def test_two_leading_intertempmaps(self, conv):
        directives = mapping_2d(n_tiles=7, n_tiles_2=4).to_directives(
            conv, n_pes=8)
        kinds = [type(d) for d in directives]
        assert kinds[0] is InterTempMap
        assert kinds[1] is InterTempMap
        assert {directives.directives[0].dim,
                directives.directives[1].dim} == {"Y", "K"}

    def test_degenerate_secondary_omitted(self, conv):
        directives = mapping_2d(n_tiles=7, n_tiles_2=1).to_directives(
            conv, n_pes=8)
        inter = [d for d in directives if isinstance(d, InterTempMap)]
        assert len(inter) == 1


class TestCostModel:
    def test_tile_energy_shrinks_with_secondary_split(self, conv):
        hw = tpu_like()
        model = DataflowCostModel(hw, CheckpointModel(nvm=hw.nvm.technology))
        single = model.layer_cost(conv, mapping_2d(n_tiles=28, n_tiles_2=1))
        double = model.layer_cost(conv, mapping_2d(n_tiles=28, n_tiles_2=8))
        assert double.tile.energy < single.tile.energy
        assert double.n_tiles == 8 * single.n_tiles

    def test_macs_still_cover_layer(self, conv):
        hw = tpu_like()
        model = DataflowCostModel(hw, CheckpointModel(nvm=hw.nvm.technology))
        cost = model.layer_cost(conv, mapping_2d(n_tiles=5, n_tiles_2=3))
        assert cost.macs >= conv.macs


class TestMapperEscalation:
    def test_escalates_to_secondary_when_primary_exhausted(self):
        """A 100 uF capacitor cannot host CIFAR-10's conv2 tiles with
        only a Y split; the optimizer must return a 2-D cpkt tile."""
        network = zoo.cifar10_cnn()
        optimizer = MappingOptimizer(
            network, environments=[LightEnvironment.darker()])
        mappings = optimizer.optimize(
            EnergyDesign(panel_area_cm2=2.0, capacitance_f=uF(100)),
            InferenceDesign.msp430())
        assert mappings is not None
        assert any(m.secondary_dim is not None for m in mappings)

    def test_no_escalation_when_cycle_is_roomy(self):
        network = zoo.har_cnn()
        optimizer = MappingOptimizer(
            network, environments=[LightEnvironment.brighter()])
        mappings = optimizer.optimize(
            EnergyDesign(panel_area_cm2=20.0, capacitance_f=uF(2200)),
            InferenceDesign.msp430())
        assert mappings is not None
        assert all(m.secondary_dim is None for m in mappings)
