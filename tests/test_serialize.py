"""Tests for design/solution JSON serialization."""

import json
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import Chrysalis, Objective, zoo
from repro.design import AuTDesign, EnergyDesign, InferenceDesign
from repro.dataflow.directives import DataflowStyle
from repro.dataflow.mapping import LayerMapping
from repro.energy.environment import LightEnvironment
from repro.errors import ConfigurationError
from repro.explore.ga import GAConfig
from repro.hardware.accelerators import AcceleratorFamily
from repro.serialize import (
    breakdown_from_dict,
    breakdown_to_dict,
    design_from_dict,
    design_from_json,
    design_to_dict,
    design_to_json,
    mapping_from_dict,
    mapping_to_dict,
    metrics_from_dict,
    metrics_to_dict,
    solution_from_dict,
    solution_from_json,
    solution_to_dict,
    solution_to_json,
)
from repro.sim.evaluator import ChrysalisEvaluator
from repro.sim.metrics import EnergyBreakdown, InferenceMetrics
from repro.units import uF
from repro.workloads.layers import DIM_NAMES


@pytest.fixture
def design():
    network = zoo.har_cnn()
    base = AuTDesign.with_default_mappings(
        EnergyDesign(panel_area_cm2=7.5, capacitance_f=uF(330)),
        InferenceDesign(family=AcceleratorFamily.TPU, n_pes=48,
                        cache_bytes_per_pe=768),
        network, n_tiles=3)
    # Exercise a multi-dimensional mapping in the round trip.
    fancy = LayerMapping(style=DataflowStyle.OUTPUT_STATIONARY, n_tiles=4,
                         tile_dim="Y", spatial_dim="K",
                         secondary_dim="C", n_tiles_2=2)
    return replace(base, mappings=(fancy,) + base.mappings[1:])


class TestRoundTrip:
    def test_design_round_trips(self, design):
        clone = design_from_dict(design_to_dict(design))
        assert clone == design

    def test_json_round_trips(self, design):
        clone = design_from_json(design_to_json(design))
        assert clone == design

    def test_json_is_valid_and_versioned(self, design):
        data = json.loads(design_to_json(design))
        assert data["schema_version"] == 1
        assert data["inference"]["family"] == "tpu"

    def test_mapping_round_trip_preserves_secondary(self, design):
        mapping = design.mappings[0]
        clone = mapping_from_dict(mapping_to_dict(mapping))
        assert clone == mapping
        assert clone.secondary_dim == "C"

    def test_reloaded_design_evaluates_identically(self, design):
        network = zoo.har_cnn()
        clone = design_from_json(design_to_json(design))
        evaluator = ChrysalisEvaluator(network)
        env = LightEnvironment.brighter()
        original = evaluator.evaluate(design, env)
        reloaded = evaluator.evaluate(clone, env)
        assert reloaded.e2e_latency == original.e2e_latency
        assert reloaded.total_energy == original.total_energy


class TestValidationOnLoad:
    def test_wrong_schema_version(self, design):
        data = design_to_dict(design)
        data["schema_version"] = 99
        with pytest.raises(ConfigurationError, match="schema"):
            design_from_dict(data)

    def test_missing_section(self, design):
        data = design_to_dict(design)
        del data["energy"]
        with pytest.raises(ConfigurationError):
            design_from_dict(data)

    def test_tampered_values_fail_validation(self, design):
        data = design_to_dict(design)
        data["energy"]["panel_area_cm2"] = -4.0
        with pytest.raises(ConfigurationError):
            design_from_dict(data)

    def test_bad_mapping_dims_fail(self, design):
        data = design_to_dict(design)
        data["mappings"][0]["tile_dim"] = "Z"
        with pytest.raises(Exception):
            design_from_dict(data)
        assert "Z" not in DIM_NAMES

    def test_invalid_json_text(self):
        with pytest.raises(ConfigurationError, match="JSON"):
            design_from_json("{not json")

    def test_non_object_json(self):
        with pytest.raises(ConfigurationError):
            design_from_json("[1, 2, 3]")


@pytest.fixture(scope="module")
def solution():
    tool = Chrysalis(zoo.har_cnn(), setup="existing",
                     objective=Objective.lat_sp(),
                     ga_config=GAConfig(population_size=6,
                                        generations=3, seed=0))
    return tool.generate()


class TestSolutionExport:
    def test_solution_to_dict(self, solution):
        data = solution_to_dict(solution)
        assert json.dumps(data)  # JSON-compatible throughout
        assert data["score"] == solution.score
        assert len(data["layer_plan"]) == len(solution.layer_plan)
        # The embedded design reloads into the same architecture.
        clone = design_from_dict(data["design"])
        assert clone == solution.design


class TestSolutionRoundTrip:
    def test_dict_round_trip_is_exact(self, solution):
        assert solution_from_dict(solution_to_dict(solution)) == solution

    def test_json_round_trip_is_exact(self, solution):
        assert solution_from_json(solution_to_json(solution)) == solution

    def test_wrong_schema_version(self, solution):
        data = solution_to_dict(solution)
        data["schema_version"] = 99
        with pytest.raises(ConfigurationError, match="schema"):
            solution_from_dict(data)

    def test_pre_campaign_record_rejected_helpfully(self, solution):
        data = solution_to_dict(solution)
        del data["average_metrics"]
        with pytest.raises(ConfigurationError, match="pre-campaign"):
            solution_from_dict(data)

    def test_missing_field_rejected(self, solution):
        data = solution_to_dict(solution)
        del data["average_metrics"]["power_cycles"]
        with pytest.raises(ConfigurationError, match="missing"):
            solution_from_dict(data)

    def test_invalid_json_text(self):
        with pytest.raises(ConfigurationError, match="JSON"):
            solution_from_json("{not json")


#: Wrong-typed values in an otherwise valid solution record, each at a
#: path of keys and list indexes, with what the error must say.  Every
#: one escaped the read-back as a bare ``ValueError``, ``TypeError`` or
#: ``AttributeError`` before it went through ``_config_field``.
WRONG_TYPED = [
    (("score",), "x", "'score'"),
    (("evaluations",), "1.5", "'evaluations'"),
    (("absorbed_failures",), [1], "'absorbed_failures'"),
    (("layer_plan",), 5, "'layer_plan'"),
    (("layer_plan", 0), 1, "layer-plan row must be an object"),
    (("layer_plan", 0, "n_tiles"), "two", "'n_tiles'"),
    (("metrics_by_env",), [1], "'metrics_by_env'"),
    (("average_metrics",), None, "metrics record must be an object"),
    (("average_metrics", "e2e_latency"), "x", "'e2e_latency'"),
    (("average_metrics", "power_cycles"), [1], "'power_cycles'"),
    (("average_metrics", "energy", "compute"), {}, "'compute'"),
]


class TestWrongTypedReadBack:
    @pytest.mark.parametrize("path, value, message", WRONG_TYPED)
    def test_raises_configuration_error(self, solution, path, value,
                                        message):
        data = solution_to_dict(solution)
        parent = data
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = value
        with pytest.raises(ConfigurationError, match=message):
            solution_from_dict(data)
        with pytest.raises(ConfigurationError, match=message):
            solution_from_json(json.dumps(data))

    def test_stored_run_with_a_wrong_typed_score(self, solution):
        from repro.campaign.spec import ObjectiveSpec, RunKey
        from repro.campaign.store import StoredRun

        key = RunKey(workload="har", setup="existing", environment="paper",
                     objective=ObjectiveSpec(kind="lat*sp"), seed=0,
                     population=4, generations=2)
        data = dict(solution_to_dict(solution), score="x")
        run = StoredRun(run_hash=key.run_hash, campaign="c", key=key,
                        status="done", solution=data)
        with pytest.raises(ConfigurationError, match="'score'"):
            run.load_solution()

    def test_metrics_read_back_of_a_non_object(self):
        with pytest.raises(ConfigurationError, match="must be an object"):
            metrics_from_dict([1])
        with pytest.raises(ConfigurationError, match="must be an object"):
            breakdown_from_dict(None)


# Hypothesis strategies for the metrics round-trip property tests.
finite = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                   allow_infinity=False)

breakdowns = st.builds(
    EnergyBreakdown, compute=finite, vm=finite, nvm=finite, static=finite,
    checkpoint=finite, cap_leakage=finite, conversion=finite)

metrics_objects = st.builds(
    InferenceMetrics,
    e2e_latency=finite, busy_time=finite, charge_time=finite,
    energy=breakdowns, harvested_energy=finite,
    power_cycles=st.integers(min_value=0, max_value=10**6),
    exceptions=st.integers(min_value=0, max_value=10**6),
    feasible=st.booleans(),
    infeasible_reason=st.text(max_size=40),
    sustained_period=finite)


class TestMetricsRoundTripProperties:
    @given(breakdowns)
    def test_breakdown_round_trips_through_json(self, breakdown):
        data = json.loads(json.dumps(breakdown_to_dict(breakdown)))
        assert breakdown_from_dict(data) == breakdown

    @given(metrics_objects)
    def test_metrics_round_trip_through_json(self, metrics):
        data = json.loads(json.dumps(metrics_to_dict(metrics)))
        clone = metrics_from_dict(data)
        assert clone == metrics
        # Derived quantities survive unchanged too.
        assert clone.total_energy == metrics.total_energy
