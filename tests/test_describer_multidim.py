"""Describer/loop-nest coverage for multi-dimensional cpkt tiles."""

from dataclasses import replace

from repro.core.describer import describe_design
from repro.dataflow.directives import DataflowStyle
from repro.dataflow.loopnest import LoopNest
from repro.dataflow.mapping import LayerMapping
from repro.design import AuTDesign, EnergyDesign, InferenceDesign
from repro.units import uF
from repro.workloads import zoo


def design_with_2d_tile():
    network = zoo.cifar10_cnn()
    design = AuTDesign.with_default_mappings(
        EnergyDesign(panel_area_cm2=4.0, capacitance_f=uF(100)),
        InferenceDesign.msp430(), network)
    two_dim = LayerMapping(style=DataflowStyle.WEIGHT_STATIONARY,
                           n_tiles=16, tile_dim="Y", spatial_dim="X",
                           secondary_dim="K", n_tiles_2=4)
    mappings = list(design.mappings)
    mappings[1] = two_dim  # conv2
    return network, replace(design, mappings=tuple(mappings))


def test_describe_renders_both_intertempmaps():
    network, design = design_with_2d_tile()
    text = describe_design(design, network)
    conv2_block = text.split("-- conv2")[1].split("--")[0]
    assert conv2_block.count("InterTempMap") == 2
    assert "InterTempMap(2, 2) Y" in conv2_block  # ceil(32/16)
    assert "InterTempMap(4, 4) K" in conv2_block  # ceil(16/4)


def test_loop_nest_covers_2d_tile():
    network, design = design_with_2d_tile()
    layer = network.layers[1]
    mapping = design.mappings[1]
    directives = mapping.to_directives(layer, n_pes=1)
    nest = LoopNest.from_mapping(directives, layer)
    import math
    assert nest.trip_count >= math.prod(layer.dims().values())
    rendered = nest.render()
    assert rendered.splitlines()[0].strip().startswith("for y_ckpt")
    assert "k_ckpt" in rendered
