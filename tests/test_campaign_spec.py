"""Tests for campaign specs, grid expansion, and RunKey hashing."""

import json
import math
import pathlib

import pytest

from repro.campaign.spec import (
    PARETO_KIND,
    CampaignSpec,
    ObjectiveSpec,
    RunKey,
    expand_grid,
)
from repro.environments import environment_by_name
from repro.errors import ConfigurationError

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


class TestExpandGrid:
    def test_row_major_order_last_axis_fastest(self):
        cells = expand_grid({"a": [1, 2], "b": ["x", "y"]})
        assert cells == [{"a": 1, "b": "x"}, {"a": 1, "b": "y"},
                         {"a": 2, "b": "x"}, {"a": 2, "b": "y"}]

    def test_single_axis(self):
        assert expand_grid({"k": [3.0]}) == [{"k": 3.0}]

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="no values"):
            expand_grid({"a": [1], "b": []})

    def test_no_axes_gives_one_empty_cell(self):
        assert expand_grid({}) == [{}]


class TestObjectiveSpec:
    def test_lat_requires_cap(self):
        with pytest.raises(ConfigurationError, match="sp_cap_cm2"):
            ObjectiveSpec(kind="lat")

    def test_sp_requires_cap(self):
        with pytest.raises(ConfigurationError, match="lat_cap_s"):
            ObjectiveSpec(kind="sp")

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="kind"):
            ObjectiveSpec(kind="throughput")

    def test_round_trip_and_objective(self):
        spec = ObjectiveSpec(kind="lat", sp_cap_cm2=6.0)
        clone = ObjectiveSpec.from_dict(spec.to_dict())
        assert clone == spec
        objective = clone.to_objective()
        assert objective.sp_constraint_cm2 == 6.0
        assert spec.label() == "lat(sp<=6)"


class TestRunKey:
    def _key(self, **overrides):
        base = dict(workload="har", setup="existing", environment="paper",
                    objective=ObjectiveSpec(kind="lat*sp"), seed=0,
                    population=8, generations=4)
        base.update(overrides)
        return RunKey(**base)

    def test_hash_is_deterministic_across_instances(self):
        assert self._key().run_hash == self._key().run_hash

    def test_hash_pinned(self):
        # Guards cross-release stability: stores written by one version
        # must resume under the next.  Changing RunKey.as_dict() breaks
        # every existing store and must bump the store schema version.
        assert self._key().run_hash == self._key().run_hash
        assert len(self._key().run_hash) == 16
        assert int(self._key().run_hash, 16) is not None

    def test_result_relevant_fields_change_the_hash(self):
        base = self._key()
        assert self._key(seed=1).run_hash != base.run_hash
        assert self._key(workload="kws").run_hash != base.run_hash
        assert self._key(generations=5).run_hash != base.run_hash
        assert self._key(candidate_time_budget_s=1.0).run_hash != base.run_hash

    def test_dict_round_trip(self):
        key = self._key(environment="scenario:wearable",
                        objective=ObjectiveSpec(kind="sp", lat_cap_s=30.0))
        assert RunKey.from_dict(json.loads(
            json.dumps(key.as_dict()))) == key

    @pytest.mark.parametrize("budget", [None, 5, 2.5])
    def test_read_back_key_keeps_its_run_hash(self, budget):
        # A worker records a claimed run under the hash of the key it
        # read back, so an integer budget must not come back as a float.
        key = self._key(candidate_time_budget_s=budget)
        back = RunKey.from_dict(json.loads(json.dumps(key.as_dict())))
        assert back.run_hash == key.run_hash

    def test_resolve_environments(self):
        # A key's label resolves through the registry, as the runner
        # and the fleet resolve it.
        assert len(environment_by_name(self._key().environment)) == 2
        envs = environment_by_name(
            self._key(environment="scenario:uav").environment)
        assert [e.name for e in envs] == ["brighter"]

    def test_unknown_environment_rejected(self):
        with pytest.raises(ConfigurationError, match="environment"):
            environment_by_name("twilight")

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError, match="scenario"):
            environment_by_name("scenario:moonbase")


class TestCampaignSpec:
    def _spec(self, **overrides):
        base = dict(name="grid", workloads=("har", "kws"),
                    objectives=(ObjectiveSpec(kind="lat*sp"),
                                ObjectiveSpec(kind="lat", sp_cap_cm2=8.0)),
                    environments=("paper", "indoor"),
                    seeds=(0, 1), population=4, generations=2)
        base.update(overrides)
        return CampaignSpec(**base)

    def test_expansion_is_full_grid(self):
        # 2 workloads x 1 setup x (2 envs x 2 objectives) x 2 seeds
        assert len(self._spec().expand()) == 16

    def test_scenarios_add_conditions(self):
        spec = self._spec(scenarios=("wearable",))
        # + 2 workloads x 1 setup x 1 scenario x 2 seeds
        assert len(spec.expand()) == 20
        scenario_keys = [k for k in spec.expand()
                         if k.environment == "scenario:wearable"]
        assert len(scenario_keys) == 4
        # The scenario's SWaP constraints became the objective.
        assert scenario_keys[0].objective == ObjectiveSpec(
            kind="lat", sp_cap_cm2=4.0)

    def test_expansion_is_deterministic_and_unique(self):
        first = [k.run_hash for k in self._spec().expand()]
        second = [k.run_hash for k in self._spec().expand()]
        assert first == second
        assert len(set(first)) == len(first)

    def test_json_round_trip(self):
        spec = self._spec(scenarios=("uav",),
                          candidate_time_budget_s=2.5)
        clone = CampaignSpec.from_json(spec.to_json())
        assert clone == spec
        assert [k.run_hash for k in clone.expand()] == \
            [k.run_hash for k in spec.expand()]

    def test_from_path(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(self._spec().to_json())
        assert CampaignSpec.from_path(path) == self._spec()

    def test_missing_spec_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            CampaignSpec.from_path(tmp_path / "absent.json")

    def test_invalid_json(self):
        with pytest.raises(ConfigurationError, match="JSON"):
            CampaignSpec.from_json("{nope")

    def test_unknown_workload_rejected_at_load(self):
        with pytest.raises(ConfigurationError, match="workload"):
            self._spec(workloads=("lenet-9000",))

    def test_unknown_setup_rejected(self):
        with pytest.raises(ConfigurationError, match="setup"):
            self._spec(setups=("quantum",))

    @pytest.mark.parametrize("budget", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_a_candidate_budget_that_is_not_positive_and_finite(
            self, budget):
        # A zero budget timed out every candidate, so the run failed as
        # "no feasible design".
        with pytest.raises(ConfigurationError,
                           match="candidate_time_budget_s"):
            self._spec(candidate_time_budget_s=budget)

    def test_needs_objective_or_scenario(self):
        with pytest.raises(ConfigurationError, match="objective or scenario"):
            self._spec(objectives=(), scenarios=())


class TestSpecKeys:
    """``from_dict`` rejects keys it does not read instead of dropping them."""

    BASE = {"name": "keys", "workloads": ["har"],
            "objectives": [{"kind": "lat*sp"}], "environments": ["indoor"],
            "seeds": [0, 1]}

    def test_unknown_top_level_key_rejected(self):
        # GA sizes at the top level used to be dropped silently, so the
        # run quietly used the default 12 x 8 budget.
        data = dict(self.BASE, population=4, generations=2)
        with pytest.raises(ConfigurationError,
                           match="'generations', 'population'.*under 'ga'"):
            CampaignSpec.from_dict(data)

    def test_unknown_ga_key_rejected(self):
        data = dict(self.BASE, ga={"populaton": 4})
        with pytest.raises(ConfigurationError, match="'ga.populaton'"):
            CampaignSpec.from_dict(data)

    def test_ga_workers_rejected(self):
        data = dict(self.BASE, ga={"population": 4, "workers": 1})
        with pytest.raises(ConfigurationError, match="'ga.workers'"):
            CampaignSpec.from_dict(data)

    def test_ga_must_be_an_object(self):
        with pytest.raises(ConfigurationError, match="'ga' must be"):
            CampaignSpec.from_dict(dict(self.BASE, ga=[4, 2]))

    @pytest.mark.parametrize("name", ["campaign_spec.json",
                                      "trace_campaign.json"])
    def test_example_specs_load(self, name):
        spec = CampaignSpec.from_path(EXAMPLES / name)
        assert CampaignSpec.from_json(spec.to_json()) == spec


class TestParetoObjective:
    def test_pareto_kind_accepted_without_caps(self):
        spec = ObjectiveSpec(kind="pareto")
        assert spec.kind == PARETO_KIND

    def test_round_trip(self):
        spec = ObjectiveSpec(kind="pareto")
        assert ObjectiveSpec.from_dict(spec.to_dict()) == spec

    def test_label(self):
        assert ObjectiveSpec(kind="pareto").label() == "pareto"

    def test_to_objective_falls_back_to_scalar(self):
        # The scalar objective prices individual candidates inside the
        # multi-objective search (and labels store rows); the front
        # itself is the real output.
        objective = ObjectiveSpec(kind="pareto").to_objective()
        assert objective.kind.value == "lat*sp"

    def test_expands_in_a_campaign_grid(self):
        spec = CampaignSpec(
            name="mixed", workloads=("har",),
            objectives=(ObjectiveSpec(kind="lat*sp"),
                        ObjectiveSpec(kind="pareto")),
            environments=("indoor",), seeds=(0,))
        kinds = sorted(key.objective.kind for key in spec.expand())
        assert kinds == ["lat*sp", "pareto"]
