"""Tests for the DNN layer intermediate representation."""

import pytest

from repro.errors import ConfigurationError
from repro.workloads.layers import (
    Conv2D,
    Dense,
    DepthwiseConv2D,
    Embedding,
    LayerKind,
    MatMul,
    Pool2D,
)


class TestConv2D:
    @pytest.fixture
    def conv(self):
        return Conv2D("c", in_channels=3, out_channels=16, in_height=32,
                      in_width=32, kernel=3, stride=1, padding=1)

    def test_output_shape_same_padding(self, conv):
        assert conv.output_shape == (16, 32, 32)

    def test_macs_product_formula(self, conv):
        assert conv.macs == 16 * 3 * 3 * 3 * 32 * 32

    def test_flops_twice_macs(self, conv):
        assert conv.flops == 2 * conv.macs

    def test_params_with_bias(self, conv):
        assert conv.params == 16 * 3 * 9 + 16

    def test_params_without_bias(self):
        conv = Conv2D("c", in_channels=3, out_channels=16, in_height=8,
                      in_width=8, bias=False)
        assert conv.params == 16 * 3 * 9

    def test_strided_output(self):
        conv = Conv2D("c", in_channels=3, out_channels=4, in_height=32,
                      in_width=32, kernel=3, stride=4, padding=1)
        assert conv.output_shape == (4, 8, 8)

    def test_rectangular_kernel(self):
        conv = Conv2D("c", in_channels=9, out_channels=8, in_height=128,
                      in_width=1, kernel=3, padding=1, kernel_w=1,
                      padding_w=0)
        assert conv.output_shape == (8, 128, 1)
        assert conv.dims()["R"] == 3
        assert conv.dims()["S"] == 1
        assert conv.params == 8 * 9 * 3 * 1 + 8

    def test_dims_cover_macs(self, conv):
        d = conv.dims()
        assert d["K"] * d["C"] * d["R"] * d["S"] * d["Y"] * d["X"] == conv.macs

    def test_dims_are_built_once_and_read_only(self, conv, monkeypatch):
        """Every ``dims()`` call reads one set of bounds, built on the
        first call, that no caller can change; a copy can be changed."""
        builds = []
        bounds = Conv2D._loop_bounds
        monkeypatch.setattr(Conv2D, "_loop_bounds",
                            lambda self: builds.append(self) or bounds(self))
        dims = conv.dims()
        assert conv.macs == 16 * 3 * 3 * 3 * 32 * 32
        assert conv.dims() == dims == {"K": 16, "C": 3, "R": 3, "S": 3,
                                       "Y": 32, "X": 32}
        assert builds == [conv]
        with pytest.raises(TypeError):
            dims["K"] = 1
        copy = dict(dims)
        copy["K"] = 1
        assert conv.dims()["K"] == 16

    def test_data_bytes_scale_with_precision(self):
        int8 = Conv2D("c", in_channels=3, out_channels=4, in_height=8,
                      in_width=8)
        fp16 = Conv2D("c", in_channels=3, out_channels=4, in_height=8,
                      in_width=8, bytes_per_element=2)
        assert fp16.input_bytes == 2 * int8.input_bytes
        assert fp16.weight_bytes == 2 * int8.weight_bytes

    def test_empty_output_rejected(self):
        with pytest.raises(ConfigurationError):
            _ = Conv2D("c", in_channels=1, out_channels=1, in_height=2,
                       in_width=2, kernel=5).out_height


class TestDepthwiseConv2D:
    def test_no_channel_contraction(self):
        dw = DepthwiseConv2D("dw", channels=32, in_height=16, in_width=16,
                             kernel=3, padding=1)
        assert dw.macs == 32 * 9 * 16 * 16
        assert dw.kind is LayerKind.DEPTHWISE_CONV

    def test_params(self):
        dw = DepthwiseConv2D("dw", channels=32, in_height=16, in_width=16)
        assert dw.params == 32 * 9 + 32


class TestDense:
    def test_macs_and_params(self):
        fc = Dense("fc", in_features=256, out_features=64)
        assert fc.macs == 256 * 64
        assert fc.params == 256 * 64 + 64

    def test_batch_lands_in_y(self):
        fc = Dense("fc", in_features=768, out_features=768, batch=16)
        assert fc.dims()["Y"] == 16
        assert fc.macs == 16 * 768 * 768

    def test_shapes(self):
        fc = Dense("fc", in_features=10, out_features=4, batch=2)
        assert fc.input_shape == (2, 10)
        assert fc.output_shape == (2, 4)


class TestPool2D:
    def test_no_params_no_mac_pairs(self):
        pool = Pool2D("p", channels=16, in_height=32, in_width=32)
        assert pool.params == 0
        assert pool.flops == pool.macs  # comparisons, not MAC pairs

    def test_halving(self):
        pool = Pool2D("p", channels=16, in_height=32, in_width=32)
        assert pool.output_shape == (16, 16, 16)


class TestMatMul:
    def test_no_params_but_macs(self):
        mm = MatMul("qk", contract=768, out_features=16, batch=16)
        assert mm.params == 0
        assert mm.macs == 768 * 16 * 16

    def test_input_bytes_count_both_operands(self):
        mm = MatMul("qk", contract=8, out_features=4, batch=2)
        assert mm.input_bytes == (2 * 8 + 8 * 4) * 1


class TestEmbedding:
    def test_params_full_table_macs_zero(self):
        emb = Embedding("e", vocab_size=1000, hidden=64, tokens=8)
        assert emb.params == 1000 * 64
        assert emb.macs == 0

    def test_weight_bytes_only_fetched_rows(self):
        emb = Embedding("e", vocab_size=1000, hidden=64, tokens=8)
        assert emb.weight_bytes == 8 * 64


class TestValidation:
    def test_bad_bytes_per_element(self):
        with pytest.raises(ConfigurationError):
            Dense("fc", in_features=2, out_features=2, bytes_per_element=0)

    @pytest.mark.parametrize("cls,kwargs", [
        (Conv2D, {"in_channels": 0}),
        (Conv2D, {"padding": -1}),
        (Dense, {"in_features": 0}),
        (Pool2D, {"channels": 0}),
        (MatMul, {"contract": 0}),
        (Embedding, {"vocab_size": 0}),
    ])
    def test_non_positive_dims_rejected(self, cls, kwargs):
        with pytest.raises(ConfigurationError):
            cls("bad", **kwargs)
