"""Tests for the sunlight environment model."""

import dataclasses
import math

import pytest

from repro.energy.environment import (
    LightEnvironment,
    haurwitz_ghi,
    solar_zenith_deg,
)
from repro.errors import ConfigurationError


class TestHaurwitz:
    def test_zero_below_horizon(self):
        assert haurwitz_ghi(90.0) == 0.0
        assert haurwitz_ghi(120.0) == 0.0

    def test_peak_at_zenith_zero(self):
        overhead = haurwitz_ghi(0.0)
        assert overhead == pytest.approx(1098.0 * math.exp(-0.057), rel=1e-9)
        assert haurwitz_ghi(30.0) < overhead

    def test_monotone_in_zenith(self):
        values = [haurwitz_ghi(z) for z in range(0, 90, 10)]
        assert values == sorted(values, reverse=True)

    def test_realistic_noon_magnitude(self):
        # Clear-sky noon GHI should be several hundred W/m^2.
        assert 700.0 < haurwitz_ghi(20.0) < 1100.0


class TestZenith:
    def test_night_hours(self):
        assert solar_zenith_deg(3.0) == 90.0
        assert solar_zenith_deg(22.0) == 90.0

    def test_noon_is_lowest_zenith(self):
        noon = solar_zenith_deg(12.0, peak_elevation_deg=70.0)
        assert noon == pytest.approx(20.0)
        assert solar_zenith_deg(9.0) > noon
        assert solar_zenith_deg(15.0) > noon

    def test_symmetry_around_noon(self):
        assert solar_zenith_deg(10.0) == pytest.approx(solar_zenith_deg(14.0))


class TestLightEnvironment:
    def test_brighter_darker_ordering(self):
        brighter = LightEnvironment.brighter()
        darker = LightEnvironment.darker()
        assert brighter.k_eh > darker.k_eh > 0.0

    def test_paper_regime_magnitudes(self):
        # The paper's Fig. 7 anchor: a ~4 cm^2 panel in the brighter
        # environment harvests ~6 mW, i.e. k_eh ~ 1.5 mW/cm^2.
        brighter = LightEnvironment.brighter()
        assert 1.0e-3 < brighter.k_eh < 2.5e-3
        darker = LightEnvironment.darker()
        assert 0.1e-3 < darker.k_eh < 1.0e-3

    def test_indoor_is_darkest(self):
        assert LightEnvironment.indoor().k_eh < LightEnvironment.darker().k_eh

    def test_k_eh_zero_at_night(self):
        env = LightEnvironment.brighter()
        assert env.k_eh_at(2.0) == 0.0

    def test_diurnal_peak_at_noon(self):
        env = LightEnvironment.brighter()
        values = {h: env.k_eh_at(h) for h in (8.0, 10.0, 12.0, 14.0, 16.0)}
        assert max(values, key=values.get) == 12.0

    def test_cloudiness_attenuates(self):
        clear = LightEnvironment(cloudiness=0.0)
        cloudy = LightEnvironment(cloudiness=1.0)
        assert cloudy.k_eh == pytest.approx(0.25 * clear.k_eh)

    def test_paper_environments_pair(self):
        brighter, darker = LightEnvironment.paper_environments()
        assert brighter.name == "brighter"
        assert darker.name == "darker"

    @pytest.mark.parametrize("kwargs", [
        {"cloudiness": -0.1},
        {"cloudiness": 1.5},
        {"panel_efficiency": 0.0},
        {"panel_efficiency": 1.2},
        {"deployment_factor": 0.0},
        {"deployment_factor": 1.0001},
        {"temp_coefficient": -0.01},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            LightEnvironment(**kwargs)

    @pytest.mark.parametrize("make", [
        LightEnvironment.brighter,
        LightEnvironment.darker,
        LightEnvironment.indoor,
        LightEnvironment,
        lambda: dataclasses.replace(LightEnvironment.brighter(),
                                    cloudiness=0.6, ambient_temp_c=40.0),
    ])
    def test_k_eh_is_the_mid_morning_value(self, make):
        environment = make()
        assert environment.k_eh == environment.k_eh_at(10.0)

    def test_k_eh_is_derived_not_a_field(self):
        brighter = LightEnvironment.brighter()
        darker = dataclasses.replace(brighter, cloudiness=0.92)
        assert darker.k_eh < brighter.k_eh
        assert "_k_eh" not in {f.name for f in dataclasses.fields(brighter)}
        assert brighter == LightEnvironment.brighter()
        assert hash(brighter) == hash(LightEnvironment.brighter())


class TestTemperature:
    def test_standard_conditions_no_derating(self):
        assert LightEnvironment(ambient_temp_c=25.0).temperature_derating \
            == pytest.approx(1.0)

    def test_hot_deployment_loses_power(self):
        cool = LightEnvironment(ambient_temp_c=25.0)
        hot = LightEnvironment(ambient_temp_c=60.0)
        assert hot.k_eh < cool.k_eh
        assert hot.temperature_derating == pytest.approx(
            1.0 - 0.004 * 35.0)

    def test_cold_deployment_gains_slightly(self):
        cold = LightEnvironment(ambient_temp_c=-10.0)
        assert 1.0 < cold.temperature_derating <= 1.1

    def test_extreme_heat_clamped(self):
        furnace = LightEnvironment(ambient_temp_c=300.0)
        assert furnace.temperature_derating == pytest.approx(0.4)
        assert furnace.k_eh > 0.0
