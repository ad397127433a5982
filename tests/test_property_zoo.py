"""Property-based tests over the entire workload zoo.

Invariants every network in every registry must satisfy — these guard
against subtle shape bugs when new workloads are added.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.directives import DataflowStyle
from repro.dataflow.mapping import LayerMapping
from repro.workloads import zoo
from repro.workloads.layers import LayerKind

ALL_NAMES = sorted(set(zoo.EXISTING_AUT_WORKLOADS)
                   | set(zoo.FUTURE_AUT_WORKLOADS)
                   | set(zoo.EXTENSION_WORKLOADS))

NETWORKS = {name: zoo.workload_by_name(name) for name in ALL_NAMES}


@pytest.mark.parametrize("name", ALL_NAMES)
class TestZooInvariants:
    def test_dims_product_equals_macs(self, name):
        for layer in NETWORKS[name]:
            if layer.kind is LayerKind.EMBEDDING:
                assert layer.macs == 0
                continue
            assert math.prod(layer.dims().values()) == layer.macs

    def test_every_layer_has_positive_data(self, name):
        for layer in NETWORKS[name]:
            assert layer.input_bytes > 0
            assert layer.output_bytes > 0
            assert layer.total_data_bytes > 0

    def test_params_nonnegative_and_consistent(self, name):
        network = NETWORKS[name]
        assert network.params == sum(l.params for l in network)
        assert all(l.params >= 0 for l in network)

    def test_weight_layer_count_positive(self, name):
        assert NETWORKS[name].num_weight_layers >= 1

    def test_default_mapping_valid_for_every_layer(self, name):
        for layer in NETWORKS[name]:
            mapping = LayerMapping.default(layer)
            assert mapping.clamped(layer) == mapping
            directives = mapping.to_directives(layer, n_pes=8)
            assert directives.spatial is not None


@given(name=st.sampled_from(ALL_NAMES),
       n_tiles=st.integers(min_value=1, max_value=64),
       style=st.sampled_from(list(DataflowStyle)),
       n_pes=st.sampled_from([1, 8, 64, 168]))
@settings(max_examples=120, deadline=None)
def test_any_clamped_mapping_expands_to_valid_directives(name, n_tiles,
                                                         style, n_pes):
    network = NETWORKS[name]
    for layer in network.layers[:3]:  # bound runtime on the deep nets
        mapping = LayerMapping.default(layer, style=style,
                                       n_tiles=n_tiles).clamped(layer)
        directives = mapping.to_directives(layer, n_pes=n_pes)
        rendered = directives.render()
        assert "SpatialMap" in rendered
