"""Tests for the unified environment registry and scenario generator."""

import subprocess
import sys
import textwrap

import pytest

from repro.campaign.spec import CampaignSpec, ObjectiveSpec
from repro.core.scenarios import SCENARIOS
from repro.energy.environment import LightEnvironment
from repro.energy.traces import TraceEnvironment
from repro.environments import (
    GENERATED_KINDS,
    EnvironmentSpec,
    ScenarioGenerator,
    environment_by_name,
    environment_spec,
    register_environment,
    registered_environments,
)
from repro.errors import ConfigurationError


class TestRegistryResolution:
    def test_presets_match_the_legacy_sets(self):
        assert [e.name for e in environment_by_name("paper")] == \
            [e.name for e in LightEnvironment.paper_environments()]
        assert environment_by_name("brighter") == \
            (LightEnvironment.brighter(),)
        assert environment_by_name("darker") == (LightEnvironment.darker(),)
        assert environment_by_name("indoor") == (LightEnvironment.indoor(),)

    def test_scenario_prefix_and_bare_name(self):
        assert environment_by_name("scenario:uav") == \
            tuple(SCENARIOS["uav"].environments)
        assert environment_by_name("uav") == \
            tuple(SCENARIOS["uav"].environments)

    def test_unknown_label_lists_whats_available(self):
        with pytest.raises(ConfigurationError, match="unknown environment"):
            environment_by_name("nope")
        with pytest.raises(ConfigurationError, match="scenario"):
            environment_by_name("scenario:nope")

    def test_campaign_resolve_delegates_to_the_registry(self):
        spec = CampaignSpec(name="c", workloads=("har",),
                            objectives=(ObjectiveSpec(kind="lat*sp"),),
                            environments=("paper",))
        (key,) = spec.expand()
        assert environment_by_name(key.environment) == \
            environment_by_name("paper")
        with pytest.raises(ConfigurationError, match="environment"):
            CampaignSpec(name="c", workloads=("har",),
                         objectives=(ObjectiveSpec(kind="lat*sp"),),
                         environments=("bogus",))

    def test_builtin_presets_are_registered(self):
        labels = registered_environments()
        assert {"paper", "brighter", "darker", "indoor"} <= set(labels)
        assert environment_spec("paper").kind == "preset"


class TestRegistration:
    def test_register_resolve_round_trip(self):
        spec = EnvironmentSpec.create(
            "test:office", "schedule", k_on=4e-5, on_hour=9.0, off_hour=17.0)
        register_environment(spec)
        (env,) = environment_by_name("test:office")
        assert isinstance(env, TraceEnvironment)
        assert env.k_eh_at_s(10.0 * 3600.0) == 4e-5

    def test_identical_reregistration_is_idempotent(self):
        spec = EnvironmentSpec.create("test:idem", "trickle", k_eh=1e-5)
        register_environment(spec)
        register_environment(EnvironmentSpec.create(
            "test:idem", "trickle", k_eh=1e-5))

    def test_conflicting_reregistration_is_refused(self):
        register_environment(EnvironmentSpec.create(
            "test:conflict", "trickle", k_eh=1e-5))
        with pytest.raises(ConfigurationError, match="different content"):
            register_environment(EnvironmentSpec.create(
                "test:conflict", "trickle", k_eh=2e-5))

    def test_invalid_specs_fail_at_registration(self):
        with pytest.raises(ConfigurationError, match="kind"):
            EnvironmentSpec.create("x", "wat")
        with pytest.raises(ConfigurationError, match="k_on"):
            register_environment(
                EnvironmentSpec.create("test:bad", "schedule"))

    def test_spec_json_round_trip_preserves_hash(self):
        spec = EnvironmentSpec.create(
            "test:rt", "cloudy", cloudiness=0.3, sigma=0.4, seed=11)
        back = EnvironmentSpec.from_json(spec.to_json())
        assert back == spec
        assert back.content_hash == spec.content_hash


class TestBuiltOnce:
    """A label's environments are built once, when it is registered, as
    the zoo builds each network once."""

    def test_a_label_resolves_to_the_same_tuple(self):
        (label,) = ScenarioGenerator(name="same-tuple", seed=4,
                                     count=1).expand()
        for name in ("paper", label):
            assert environment_by_name(name) is environment_by_name(name)

    def test_identical_reregistration_builds_nothing(self, spec_builds):
        register_environment(EnvironmentSpec.create(
            "test:built-once", "cloudy", sigma=0.3, seed=3))
        spec_builds.clear()
        register_environment(EnvironmentSpec.create(
            "test:built-once", "cloudy", sigma=0.3, seed=3))
        assert spec_builds == []

    def test_second_campaign_expand_builds_nothing(self, spec_builds):
        spec = CampaignSpec(
            name="built-once", workloads=("har",),
            objectives=(ObjectiveSpec(kind="lat*sp"),), environments=(),
            generator=ScenarioGenerator(name="built-once", seed=9, count=4))
        keys = spec.expand()
        spec_builds.clear()
        assert spec.expand() == keys
        assert spec_builds == []


class TestScenarioGenerator:
    def test_expands_to_at_least_100_resolvable_scenarios(self):
        gen = ScenarioGenerator(name="big", seed=5, count=120)
        labels = gen.expand()
        assert len(labels) == 120
        assert len(set(labels)) == 120
        for family in GENERATED_KINDS:
            assert any(f"trace:{family}-" in label for label in labels)
        for label in labels[:8]:
            envs = environment_by_name(label)
            assert len(envs) == 1

    def test_same_seed_same_labels(self):
        a = ScenarioGenerator(name="a", seed=9, count=12).expand()
        b = ScenarioGenerator(name="b", seed=9, count=12).expand()
        c = ScenarioGenerator(name="c", seed=10, count=12).specs()
        assert a == b  # name is not part of the draw
        assert tuple(s.name for s in c) != a

    def test_round_trip(self):
        gen = ScenarioGenerator(name="rt", seed=3, count=7,
                                families=("schedule", "trickle"))
        back = ScenarioGenerator.from_dict(gen.to_dict())
        assert back == gen
        assert back.expand() == gen.expand()

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="count"):
            ScenarioGenerator(name="x", count=0)
        with pytest.raises(ConfigurationError, match="family"):
            ScenarioGenerator(name="x", families=("wat",))

    def test_cross_process_determinism(self):
        # PR 9 style: the same generator spec must register byte-identical
        # scenarios and campaign run hashes in any process.
        script = textwrap.dedent("""
            from repro.campaign.spec import CampaignSpec

            spec = CampaignSpec.from_json('''{
                "name": "gen", "workloads": ["har"],
                "environments": [],
                "objectives": [{"kind": "lat*sp"}],
                "seeds": [0], "ga": {"population": 4, "generations": 2},
                "generator": {"name": "g", "seed": 13, "count": 10}
            }''')
            for key in spec.expand():
                print(key.environment, key.run_hash)
        """)
        outputs = [
            subprocess.run([sys.executable, "-c", script],
                           capture_output=True, text=True, check=True,
                           env={"PYTHONPATH": "src"}, cwd=".").stdout
            for _ in range(2)
        ]
        assert outputs[0] == outputs[1]
        assert len(outputs[0].strip().splitlines()) == 10


class TestCampaignIntegration:
    def test_generator_labels_join_the_grid(self):
        spec = CampaignSpec(
            name="gen", workloads=("har",),
            objectives=(ObjectiveSpec(kind="lat*sp"),),
            environments=(),
            generator=ScenarioGenerator(name="g", seed=2, count=6),
        )
        keys = spec.expand()
        assert len(keys) == 6
        for key in keys:
            assert key.environment.startswith("trace:")
            (env,) = environment_by_name(key.environment)
            assert isinstance(env, TraceEnvironment)

    def test_spec_round_trip_with_generator(self):
        spec = CampaignSpec.from_json("""{
            "name": "gen", "workloads": ["har"],
            "environments": ["paper"],
            "objectives": [{"kind": "lat*sp"}],
            "generator": {"name": "g", "seed": 1, "count": 4,
                          "families": ["schedule"]}
        }""")
        back = CampaignSpec.from_json(spec.to_json())
        assert back == spec
        assert [k.run_hash for k in back.expand()] == \
            [k.run_hash for k in spec.expand()]

    def test_old_specs_load_and_serialize_unchanged(self):
        spec = CampaignSpec.from_path("examples/campaign_spec.json")
        assert spec.generator is None
        assert "generator" not in spec.to_dict()
        keys = spec.expand()
        assert len(keys) == 4  # 2 workloads x 2 scenarios
        for key in keys:
            environment_by_name(key.environment)
