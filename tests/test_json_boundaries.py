"""Design, campaign-spec and environment-spec JSON raise typed errors.

Every field of those records is converted through one helper
(``repro.errors._config_field``), so a value of the wrong type is a
:class:`ConfigurationError` naming the record and the field, never a
bare ``ValueError`` or ``TypeError``; the CLI then prints ``error:``
and exits 2 instead of a traceback.
"""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.spec import CampaignSpec
from repro.cli import main
from repro.design import AuTDesign, EnergyDesign, InferenceDesign
from repro.environments import EnvironmentSpec, register_environment
from repro.errors import ChrysalisError, ConfigurationError
from repro.serialize import design_from_dict, design_to_dict
from repro.units import uF
from repro.workloads import zoo

#: Any value ``json.loads`` can return, non-finite floats included.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children,
                                        max_size=4)),
    max_leaves=8)


def _design_dict():
    network = zoo.har_cnn()
    return design_to_dict(AuTDesign.with_default_mappings(
        EnergyDesign(panel_area_cm2=8.0, capacitance_f=uF(470)),
        InferenceDesign.msp430(), network, n_tiles=2))


def _spec_dict():
    return {"name": "typed", "workloads": ["har"],
            "objectives": [{"kind": "lat*sp"}],
            "environments": ["brighter"], "seeds": [0],
            "ga": {"population": 4, "generations": 2},
            "generator": {"name": "typed-gen", "seed": 1, "count": 2}}


#: Every field the design parser reads, as a path into its record.
DESIGN_PATHS = (
    ("schema_version",), ("energy",), ("energy", "panel_area_cm2"),
    ("energy", "capacitance_f"), ("energy", "k_cap"), ("energy", "pmic"),
    ("energy", "pmic", "v_on"), ("inference",), ("inference", "family"),
    ("inference", "n_pes"), ("inference", "cache_bytes_per_pe"),
    ("inference", "clock_scale"), ("mappings",), ("mappings", 0),
    ("mappings", 0, "style"), ("mappings", 0, "n_tiles"),
    ("mappings", 0, "tile_dim"), ("mappings", 0, "n_tiles_2"),
)

#: Every field the campaign-spec parser reads.
SPEC_PATHS = (
    ("name",), ("workloads",), ("objectives",), ("objectives", 0),
    ("objectives", 0, "kind"), ("objectives", 0, "sp_cap_cm2"),
    ("scenarios",), ("setups",), ("environments",), ("seeds",),
    ("seeds", 0), ("ga",), ("ga", "population"), ("ga", "generations"),
    ("candidate_time_budget_s",), ("max_attempts",), ("generator",),
    ("generator", "name"), ("generator", "seed"), ("generator", "count"),
    ("generator", "families"),
)

#: ``(kind, params)`` of one valid environment spec per builder.
ENV_KINDS = {
    "preset": {"preset": "brighter"},
    "diurnal": {"cloudiness": 0.2, "step_s": 3600.0},
    "cloudy": {"sigma": 0.3, "floor": 0.1, "seed": 2, "step_s": 600.0},
    "schedule": {"k_on": 6e-5, "k_off": 0.0, "on_hour": 8.0,
                 "off_hour": 18.0},
    "trickle": {"k_eh": 2e-5},
}


def _replace(record, path, value):
    out = copy.deepcopy(record)
    target = out
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return out


class TestDesignJson:
    @pytest.mark.parametrize("path, value, field", [
        (("inference", "family"), "gpu", "family"),
        (("energy", "panel_area_cm2"), "big", "panel_area_cm2"),
        (("mappings",), "nope", "mapping record"),
        (("energy",), None, "design energy"),
        (("mappings",), 5, "mappings"),
        (("mappings", 0, "style"), 3, "style"),
    ])
    def test_wrong_type_is_a_configuration_error(self, path, value, field):
        with pytest.raises(ConfigurationError, match=field):
            design_from_dict(_replace(_design_dict(), path, value))

    def test_missing_section_keeps_its_message(self):
        data = _design_dict()
        del data["energy"]["pmic"]
        with pytest.raises(ConfigurationError,
                           match="design record is missing section 'pmic'"):
            design_from_dict(data)

    @pytest.mark.parametrize("command", ["simulate", "describe"])
    @pytest.mark.parametrize("path, value", [
        (("inference", "family"), "gpu"),
        (("energy", "panel_area_cm2"), "big"),
        (("mappings",), "nope"),
        (("energy",), None),
    ])
    def test_cli_prints_error_and_exits_2(self, tmp_path, capsys, command,
                                         path, value):
        design = tmp_path / "design.json"
        design.write_text(json.dumps(_replace(_design_dict(), path, value)))
        assert main([command, "har", "--design", str(design)]) == 2
        assert "error:" in capsys.readouterr().err

    @settings(max_examples=150, deadline=None)
    @given(path=st.sampled_from(DESIGN_PATHS), value=JSON_VALUES)
    def test_fuzz_only_typed_errors_escape(self, path, value):
        try:
            design_from_dict(_replace(_design_dict(), path, value))
        except ChrysalisError:
            pass


class TestCampaignSpecJson:
    @pytest.mark.parametrize("path, value, field", [
        (("seeds",), ["a"], "seeds"),
        (("ga",), {"population": "many"}, "population"),
        (("generator",), {"name": "g", "count": "ten"}, "count"),
        (("objectives",), [5], "objective entry"),
        (("workloads",), 5, "workloads"),
    ])
    def test_wrong_type_is_a_configuration_error(self, path, value, field):
        with pytest.raises(ConfigurationError, match=field):
            CampaignSpec.from_dict(_replace(_spec_dict(), path, value))

    @pytest.mark.parametrize("path, value", [
        (("seeds",), ["a"]),
        (("ga",), {"population": "many"}),
        (("generator",), {"name": "g", "count": "ten"}),
        (("objectives",), [5]),
        (("workloads",), 5),
    ])
    def test_cli_prints_error_and_exits_2(self, tmp_path, capsys, path,
                                         value):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(_replace(_spec_dict(), path, value)))
        code = main(["campaign", "run", str(spec),
                     "--store", str(tmp_path / "camp.sqlite")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @settings(max_examples=150, deadline=None)
    @given(path=st.sampled_from(SPEC_PATHS), value=JSON_VALUES)
    def test_fuzz_only_typed_errors_escape(self, path, value):
        try:
            CampaignSpec.from_dict(_replace(_spec_dict(), path, value))
        except ChrysalisError:
            pass


class TestEnvironmentSpecJson:
    @pytest.mark.parametrize("record, field", [
        ({"name": "typed-on", "kind": "schedule",
          "params": {"k_on": "bright"}}, "k_on"),
        ({"name": "typed-seed", "kind": "cloudy",
          "params": {"seed": "x"}}, "seed"),
        ({"name": "typed-keh", "kind": "trickle",
          "params": {"k_eh": None}}, "k_eh"),
        ([1], "environment spec"),
    ])
    def test_wrong_type_is_a_configuration_error(self, record, field):
        with pytest.raises(ConfigurationError, match=field):
            register_environment(EnvironmentSpec.from_json(
                json.dumps(record)))

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(sorted(ENV_KINDS)), data=st.data())
    def test_fuzz_only_typed_errors_escape(self, kind, data):
        params = dict(ENV_KINDS[kind])
        name = data.draw(st.sampled_from(sorted(params)))
        params[name] = data.draw(JSON_VALUES)
        record = {"name": f"fuzz-{kind}", "kind": kind, "params": params}
        try:
            EnvironmentSpec.from_json(json.dumps(record)).build()
        except ChrysalisError:
            pass

    @settings(max_examples=60, deadline=None)
    @given(record=JSON_VALUES)
    def test_fuzz_any_json_value(self, record):
        try:
            EnvironmentSpec.from_json(json.dumps(record)).build()
        except ChrysalisError:
            pass
