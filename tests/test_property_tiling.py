"""Property-based tests for tiling and mapping invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.directives import DataflowStyle
from repro.dataflow.mapping import LayerMapping
from repro.dataflow.tiling import chunk_count, halo_extent
from repro.workloads.layers import Conv2D

positive_ints = st.integers(min_value=1, max_value=10_000)


@given(total=positive_ints, chunk=st.integers(min_value=1, max_value=500))
def test_chunk_count_covers_total(total, chunk):
    count = chunk_count(total, chunk)
    assert count * chunk >= total
    assert (count - 1) * chunk < total


@given(out_tile=st.integers(min_value=1, max_value=256),
       kernel=st.integers(min_value=1, max_value=11),
       stride=st.integers(min_value=1, max_value=4))
def test_halo_extent_at_least_output(out_tile, kernel, stride):
    extent = halo_extent(out_tile, kernel, stride)
    assert extent >= out_tile or stride == 1 and kernel == 1
    assert extent >= kernel


conv_layers = st.builds(
    Conv2D,
    st.just("conv"),
    in_channels=st.integers(min_value=1, max_value=64),
    out_channels=st.integers(min_value=1, max_value=64),
    in_height=st.integers(min_value=4, max_value=64),
    in_width=st.integers(min_value=4, max_value=64),
    kernel=st.sampled_from([1, 3]),
    stride=st.sampled_from([1, 2]),
    padding=st.sampled_from([0, 1]),
)


@given(layer=conv_layers, n_tiles=st.integers(min_value=1, max_value=128),
       style=st.sampled_from(list(DataflowStyle)))
@settings(max_examples=150)
def test_mapping_tiles_cover_layer(layer, n_tiles, style):
    """Tile geometry invariant: chunk * effective_tiles covers the
    dimension with no more than one chunk of overshoot."""
    mapping = LayerMapping(style=style, n_tiles=n_tiles, tile_dim="Y",
                           spatial_dim="K").clamped(layer)
    bound = layer.dims()["Y"]
    chunk = mapping.tile_chunk(layer)
    effective = mapping.effective_n_tiles(layer)
    assert chunk * effective >= bound
    assert chunk * (effective - 1) < bound


@given(layer=conv_layers, n_tiles=st.integers(min_value=1, max_value=128))
def test_directive_expansion_always_valid(layer, n_tiles):
    """to_directives must always produce a well-formed directive list."""
    mapping = LayerMapping.default(layer, n_tiles=n_tiles).clamped(layer)
    directives = mapping.to_directives(layer, n_pes=8)
    rendered = directives.render()
    assert "SpatialMap" in rendered
    # The iteration space implied by the loop nest covers the layer.
    from repro.dataflow.loopnest import LoopNest
    nest = LoopNest.from_mapping(directives, layer)
    assert nest.trip_count >= math.prod(layer.dims().values())
