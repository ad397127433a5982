"""Tests for the tile geometry helpers."""


import pytest

from repro.dataflow.tiling import chunk_count, halo_extent, pick_intermittent_dim
from repro.errors import MappingError


class TestChunkCount:
    def test_ceiling_semantics(self):
        assert chunk_count(10, 3) == 4
        assert chunk_count(9, 3) == 3

    def test_bad_chunk(self):
        with pytest.raises(MappingError):
            chunk_count(10, 0)


class TestHalo:
    def test_unit_stride(self):
        # 8 outputs with a 3-wide kernel need 10 inputs.
        assert halo_extent(8, 3, 1) == 10

    def test_stride_two(self):
        assert halo_extent(8, 3, 2) == 17

    def test_pointwise(self):
        assert halo_extent(5, 1, 1) == 5

    def test_full_layer_recovers_input_extent(self):
        # out = (in - k)/s + 1  =>  halo(out) == in
        in_size, k, s = 32, 5, 3
        out = (in_size - k) // s + 1
        assert halo_extent(out, k, s) <= in_size


class TestPickIntermittentDim:
    def test_prefers_y(self):
        assert pick_intermittent_dim({"K": 4, "C": 3, "R": 3, "S": 3,
                                      "Y": 8, "X": 8}) == "Y"

    def test_falls_back_to_k(self):
        assert pick_intermittent_dim({"K": 64, "C": 256, "R": 1, "S": 1,
                                      "Y": 1, "X": 1}) == "K"

    def test_degenerate_all_ones(self):
        dim = pick_intermittent_dim({"K": 1, "C": 1, "R": 1, "S": 1,
                                     "Y": 1, "X": 1})
        assert dim in {"K", "C", "R", "S", "Y", "X"}
