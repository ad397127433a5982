"""Tests for the paper's workload zoo (Tables IV and V)."""

import pytest

from repro.errors import ConfigurationError
from repro.workloads import zoo


class TestTableIV:
    """Existing-AuT applications."""

    def test_simple_conv_matches_paper_flops(self):
        net = zoo.simple_conv()
        # Table IV: 13.8 kFLOPs on a (3,32,32) input.
        assert net.flops == pytest.approx(13.8e3, rel=0.01)
        assert net.input_shape == (3, 32, 32)
        assert net.num_weight_layers == 1

    def test_cifar10_shape(self):
        net = zoo.cifar10_cnn()
        assert net.input_shape == (3, 32, 32)
        assert net.num_weight_layers == 7  # Table IV: 7 layers
        # Table IV: 77.5 k parameters.
        assert net.params == pytest.approx(77.5e3, rel=0.05)

    def test_har_shape(self):
        net = zoo.har_cnn()
        assert net.num_weight_layers == 5
        assert net.params == pytest.approx(9.4e3, rel=0.1)

    def test_kws_shape(self):
        net = zoo.kws_mlp()
        assert net.num_weight_layers == 5
        # Table IV: 49.5 k parameters and (numerically equal) kFLOPs.
        assert net.params == pytest.approx(49.5e3, rel=0.05)
        assert net.macs == pytest.approx(net.params, rel=0.05)

    def test_mnist_for_fig2a(self):
        net = zoo.mnist_cnn()
        assert net.input_shape == (1, 28, 28)
        # Fig. 2(a): ~1.6 MOPs.
        assert 0.5e6 < net.flops < 2.5e6


class TestTableV:
    """Future-AuT applications."""

    def test_alexnet(self):
        net = zoo.alexnet()
        assert net.num_weight_layers == 7  # Table V counts 7 layers
        assert net.params == pytest.approx(58.7e6, rel=0.05)

    def test_vgg16(self):
        net = zoo.vgg16()
        assert net.num_weight_layers == 16
        assert net.params == pytest.approx(138.3e6, rel=0.01)
        # Table V: 15.47 "GFLOPs" == GMACs by our counting.
        assert net.macs == pytest.approx(15.47e9, rel=0.01)

    def test_resnet18(self):
        net = zoo.resnet18()
        assert net.num_weight_layers == 18
        assert net.params == pytest.approx(11.7e6, rel=0.05)
        assert net.macs == pytest.approx(1.81e9, rel=0.05)

    def test_bert(self):
        net = zoo.bert_tiny()
        # Table V: 56.6 M params (we include the embedding table).
        assert net.params == pytest.approx(56.6e6, rel=0.06)
        assert 0.8e9 < net.flops < 1.6e9  # Table V: 1.28 GFLOPs

    def test_bert_custom_sequence_length(self):
        short = zoo.bert_tiny(seq_len=8)
        long = zoo.bert_tiny(seq_len=32)
        assert long.macs > short.macs
        # Embedding table params do not depend on sequence length.
        assert long.params == short.params


class TestRegistry:
    def test_all_registered_workloads_build(self):
        for name in list(zoo.EXISTING_AUT_WORKLOADS) + list(
                zoo.FUTURE_AUT_WORKLOADS):
            net = zoo.workload_by_name(name)
            assert net.macs >= 0
            assert len(net) > 0

    def test_registries_match_paper_tables(self):
        assert set(zoo.EXISTING_AUT_WORKLOADS) == {
            "simple_conv", "cifar10", "har", "kws"}
        assert set(zoo.FUTURE_AUT_WORKLOADS) == {
            "bert", "alexnet", "vgg16", "resnet18"}

    def test_unknown_name_raises_with_choices(self):
        with pytest.raises(ConfigurationError, match="available"):
            zoo.workload_by_name("lenet-9000")

    def test_networks_are_fresh_instances(self):
        assert zoo.har_cnn() is not zoo.har_cnn()

    def test_workload_by_name_builds_each_name_once(self):
        assert zoo.workload_by_name("har") is zoo.workload_by_name("har")
        assert zoo.workload_by_name("har") == zoo.har_cnn()
