"""Design, campaign-spec and environment-spec JSON raise typed errors.

Every field of those records is converted through one helper
(``repro.errors._config_field``), so a value of the wrong type is a
:class:`ConfigurationError` naming the record and the field, never a
bare ``ValueError`` or ``TypeError``; the CLI then prints ``error:``
and exits 2 instead of a traceback.  ``json.loads`` reads ``NaN`` and
``Infinity``, so the records' own validation rejects non-finite
numbers, and whatever parses holds finite values only.
"""

from __future__ import annotations

import copy
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.campaign.spec import CampaignSpec
from repro.cli import main
from repro.design import AuTDesign, EnergyDesign, InferenceDesign
from repro.environments import (EnvironmentSpec, environment_spec,
                                register_environment)
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


def _numbers(value):
    """Every number in a JSON-shaped value."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [number for item in value for number in _numbers(item)]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [value]
    return []


def _assert_finite_light(environments):
    for environment in environments:
        segments = getattr(environment, "segments", None)
        if segments is None:
            assert math.isfinite(environment.k_eh), environment
        else:
            for segment in segments:
                assert math.isfinite(segment.duration_s), segment
                assert math.isfinite(segment.k_eh), segment


NAN, INF = float("nan"), float("inf")


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

    @pytest.mark.parametrize("path, value, field", [
        (("energy", "panel_area_cm2"), NAN, "panel_area_cm2"),
        (("energy", "panel_area_cm2"), INF, "panel_area_cm2"),
        (("energy", "capacitance_f"), NAN, "capacitance_f"),
        (("energy", "capacitance_f"), INF, "capacitance_f"),
        (("energy", "k_cap"), NAN, "k_cap"),
        (("energy", "k_cap"), INF, "k_cap"),
        (("energy", "k_cap"), -1.0, "k_cap"),
        (("energy", "pmic", "v_on"), INF, "v_on"),
        (("energy", "pmic", "quiescent_power"), NAN, "quiescent_power"),
        (("energy", "pmic", "quiescent_power"), INF, "quiescent_power"),
        (("energy", "pmic", "v_cold_start"), NAN, "v_cold_start"),
        (("energy", "pmic", "v_cold_start"), -INF, "v_cold_start"),
        (("inference", "clock_scale"), NAN, "clock_scale"),
        (("inference", "clock_scale"), INF, "clock_scale"),
    ])
    def test_non_finite_value_is_a_configuration_error(self, path, value,
                                                       field):
        # Through JSON text: json.loads reads NaN and Infinity.
        text = json.dumps(_replace(_design_dict(), path, value))
        with pytest.raises(ConfigurationError, match=field):
            design_from_dict(json.loads(text))

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
        (("energy", "panel_area_cm2"), NAN),
    ])
    def test_cli_prints_error_and_exits_2(self, tmp_path, capsys, command,
                                         path, value):
        design = tmp_path / "design.json"
        design.write_text(json.dumps(_replace(_design_dict(), path, value)))
        assert main([command, "har", "--design", str(design)]) == 2
        assert "error:" in capsys.readouterr().err

    @settings(max_examples=150, deadline=None)
    @given(path=st.sampled_from(DESIGN_PATHS), value=JSON_VALUES)
    @example(path=("energy", "panel_area_cm2"), value=NAN)
    @example(path=("energy", "k_cap"), value=INF)
    @example(path=("inference", "clock_scale"), value=NAN)
    def test_fuzz_only_typed_errors_escape(self, path, value):
        try:
            design = design_from_dict(_replace(_design_dict(), path, value))
        except ChrysalisError:
            return
        numbers = _numbers(design_to_dict(design))
        assert all(math.isfinite(number) for number in numbers), numbers


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

    @pytest.mark.parametrize("kind, name, value", [
        ("trickle", "k_eh", NAN),
        ("trickle", "k_eh", INF),
        ("schedule", "k_on", NAN),
        ("schedule", "k_on", INF),
        ("schedule", "k_off", NAN),
    ])
    def test_non_finite_light_is_a_configuration_error(self, kind, name,
                                                       value):
        record = {"name": f"non-finite-{kind}-{name}", "kind": kind,
                  "params": dict(ENV_KINDS[kind], **{name: value})}
        spec = EnvironmentSpec.from_json(json.dumps(record))
        with pytest.raises(ConfigurationError, match="k_eh"):
            spec.build()
        with pytest.raises(ConfigurationError, match="k_eh"):
            register_environment(spec)
        assert environment_spec(record["name"]) is None

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(sorted(ENV_KINDS)), data=st.data())
    def test_fuzz_only_typed_errors_escape(self, kind, data):
        params = dict(ENV_KINDS[kind])
        name = data.draw(st.sampled_from(sorted(params)))
        params[name] = data.draw(JSON_VALUES)
        record = {"name": f"fuzz-{kind}", "kind": kind, "params": params}
        try:
            built = EnvironmentSpec.from_json(json.dumps(record)).build()
        except ChrysalisError:
            return
        _assert_finite_light(built)

    @settings(max_examples=60, deadline=None)
    @given(record=JSON_VALUES)
    @example(record={"name": "fuzz-nan", "kind": "trickle",
                     "params": {"k_eh": NAN}})
    def test_fuzz_any_json_value(self, record):
        try:
            built = EnvironmentSpec.from_json(json.dumps(record)).build()
        except ChrysalisError:
            return
        _assert_finite_light(built)
