"""Tests for per-layer mapping schemes."""

import pytest

from repro.dataflow.directives import DataflowStyle, InterTempMap, SpatialMap
from repro.dataflow.mapping import LayerMapping
from repro.errors import MappingError
from repro.workloads.layers import Conv2D, Dense


@pytest.fixture
def conv():
    return Conv2D("c", in_channels=16, out_channels=32, in_height=16,
                  in_width=16, kernel=3, padding=1)


class TestConstruction:
    def test_default_picks_sane_dims(self, conv):
        mapping = LayerMapping.default(conv)
        assert mapping.tile_dim == "Y"
        assert mapping.spatial_dim == "K"

    def test_tile_and_spatial_must_differ(self):
        with pytest.raises(MappingError):
            LayerMapping(style=DataflowStyle.WEIGHT_STATIONARY, n_tiles=2,
                         tile_dim="K", spatial_dim="K")

    def test_bad_n_tiles(self):
        with pytest.raises(MappingError):
            LayerMapping(style=DataflowStyle.WEIGHT_STATIONARY, n_tiles=0,
                         tile_dim="Y")

    def test_unknown_dim(self):
        with pytest.raises(MappingError):
            LayerMapping(style=DataflowStyle.WEIGHT_STATIONARY, n_tiles=1,
                         tile_dim="Q")


class TestGeometry:
    def test_tile_chunk_ceil_division(self, conv):
        mapping = LayerMapping(style=DataflowStyle.WEIGHT_STATIONARY,
                               n_tiles=3, tile_dim="Y")
        # Y=16, 3 tiles -> chunks of ceil(16/3)=6.
        assert mapping.tile_chunk(conv) == 6
        assert mapping.effective_n_tiles(conv) == 3

    def test_clamped_caps_at_dim_size(self, conv):
        mapping = LayerMapping(style=DataflowStyle.WEIGHT_STATIONARY,
                               n_tiles=100, tile_dim="Y")
        assert mapping.clamped(conv).n_tiles == 16

    def test_tile_dims_only_changes_tile_dim(self, conv):
        mapping = LayerMapping(style=DataflowStyle.WEIGHT_STATIONARY,
                               n_tiles=4, tile_dim="Y")
        tile = mapping.tile_dims(conv)
        full = conv.dims()
        assert tile["Y"] == 4
        for name in ("K", "C", "R", "S", "X"):
            assert tile[name] == full[name]

    def test_tiles_cover_dimension(self, conv):
        for n in range(1, 17):
            mapping = LayerMapping(style=DataflowStyle.WEIGHT_STATIONARY,
                                   n_tiles=n, tile_dim="Y")
            chunk = mapping.tile_chunk(conv)
            effective = mapping.effective_n_tiles(conv)
            assert chunk * effective >= 16
            assert chunk * (effective - 1) < 16


class TestDirectiveExpansion:
    def test_single_tile_has_no_intertempmap(self, conv):
        mapping = LayerMapping(style=DataflowStyle.WEIGHT_STATIONARY,
                               n_tiles=1, tile_dim="Y")
        directives = mapping.to_directives(conv, n_pes=8)
        assert directives.intermittent is None

    def test_multi_tile_intertempmap_outermost(self, conv):
        mapping = LayerMapping(style=DataflowStyle.WEIGHT_STATIONARY,
                               n_tiles=4, tile_dim="Y")
        directives = mapping.to_directives(conv, n_pes=8)
        assert isinstance(directives.directives[0], InterTempMap)
        assert directives.directives[0].dim == "Y"

    def test_spatial_chunk_divides_across_pes(self, conv):
        mapping = LayerMapping(style=DataflowStyle.WEIGHT_STATIONARY,
                               n_tiles=1, tile_dim="Y", spatial_dim="K")
        directives = mapping.to_directives(conv, n_pes=8)
        spatial = directives.spatial
        assert isinstance(spatial, SpatialMap)
        assert spatial.size == 4  # K=32 over 8 PEs

    def test_dense_layer_expansion(self):
        fc = Dense("fc", in_features=256, out_features=64)
        mapping = LayerMapping(style=DataflowStyle.OUTPUT_STATIONARY,
                               n_tiles=4, tile_dim="K", spatial_dim="C")
        directives = mapping.to_directives(fc, n_pes=4)
        dims_mapped = {d.dim for d in directives}
        assert "K" in dims_mapped and "C" in dims_mapped

    def test_bad_pe_count(self, conv):
        mapping = LayerMapping.default(conv)
        with pytest.raises(MappingError):
            mapping.to_directives(conv, n_pes=0)
