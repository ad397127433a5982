"""Tests for the Network container."""

import pytest

from repro.errors import ConfigurationError
from repro.workloads.layers import Conv2D, Dense, Pool2D
from repro.workloads.network import Network


@pytest.fixture
def tiny_net():
    return Network.chain("tiny", (3, 8, 8), [
        Conv2D("conv", in_channels=3, out_channels=4, in_height=8,
               in_width=8, kernel=3, padding=1),
        Pool2D("pool", channels=4, in_height=8, in_width=8),
        Dense("fc", in_features=64, out_features=10),
    ])


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            Network.chain("empty", (1,), [])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            Network.chain("bad", (3, 8, 8), [
                Conv2D("conv", in_channels=3, out_channels=4, in_height=8,
                       in_width=8, kernel=3, padding=1),
                Dense("fc", in_features=999, out_features=10),
            ])

    def test_implicit_flatten_allowed(self, tiny_net):
        # conv (4,4,4) -> fc 64 chains by element count.
        assert len(tiny_net) == 3


class TestAggregates:
    def test_totals_are_sums(self, tiny_net):
        assert tiny_net.macs == sum(l.macs for l in tiny_net)
        assert tiny_net.params == sum(l.params for l in tiny_net)
        assert tiny_net.flops == sum(l.flops for l in tiny_net)

    def test_weight_layers_excludes_pools(self, tiny_net):
        assert tiny_net.num_weight_layers == 2

    def test_total_data_bytes_positive(self, tiny_net):
        assert tiny_net.total_data_bytes > 0

    def test_iteration_order(self, tiny_net):
        assert [l.name for l in tiny_net] == ["conv", "pool", "fc"]


class TestSummary:
    def test_summary_mentions_every_layer(self, tiny_net):
        text = tiny_net.summary()
        for layer in tiny_net:
            assert layer.name in text
        assert "total" in text
