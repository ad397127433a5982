"""Tests for the design-point dataclasses."""

import pytest

from repro.design import AuTDesign, EnergyDesign, InferenceDesign
from repro.errors import ConfigurationError
from repro.hardware.accelerators import AcceleratorFamily
from repro.units import uF
from repro.workloads import zoo


class TestEnergyDesign:
    def test_builders(self):
        energy = EnergyDesign(panel_area_cm2=8.0, capacitance_f=uF(100))
        panel = energy.build_panel()
        cap = energy.build_capacitor()
        assert panel.area_cm2 == 8.0
        assert cap.capacitance == pytest.approx(uF(100))
        assert cap.voltage == 0.0

    def test_capacitor_rating_covers_pmic(self):
        energy = EnergyDesign(panel_area_cm2=8.0, capacitance_f=uF(100))
        assert energy.build_capacitor().rated_voltage >= energy.pmic.v_on

    @pytest.mark.parametrize("kwargs", [
        {"panel_area_cm2": 0.0, "capacitance_f": uF(1)},
        {"panel_area_cm2": 1.0, "capacitance_f": 0.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            EnergyDesign(**kwargs)


class TestInferenceDesign:
    def test_msp430_preset(self):
        design = InferenceDesign.msp430()
        hw = design.build()
        assert hw.family is AcceleratorFamily.MSP430
        assert hw.pes.n_pes == 1

    def test_future_builds_requested_family(self):
        design = InferenceDesign(family=AcceleratorFamily.EYERISS,
                                 n_pes=42, cache_bytes_per_pe=256)
        hw = design.build()
        assert hw.pes.n_pes == 42
        assert hw.pes.cache_bytes_per_pe == 256

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            InferenceDesign(family=AcceleratorFamily.TPU, n_pes=0)


class TestAuTDesign:
    def test_default_mappings_cover_network(self):
        net = zoo.har_cnn()
        design = AuTDesign.with_default_mappings(
            EnergyDesign(panel_area_cm2=5.0, capacitance_f=uF(100)),
            InferenceDesign.msp430(), net)
        design.validate_against(net)
        assert len(design.mappings) == len(net)

    def test_validate_against_mismatch(self):
        net = zoo.har_cnn()
        design = AuTDesign.with_default_mappings(
            EnergyDesign(panel_area_cm2=5.0, capacitance_f=uF(100)),
            InferenceDesign.msp430(), net)
        with pytest.raises(ConfigurationError):
            design.validate_against(zoo.cifar10_cnn())

    def test_footprint_is_panel_area(self):
        design = AuTDesign.with_default_mappings(
            EnergyDesign(panel_area_cm2=12.5, capacitance_f=uF(100)),
            InferenceDesign.msp430(), zoo.har_cnn())
        assert design.footprint_cm2 == 12.5

    def test_describe_one_liner(self):
        design = AuTDesign.with_default_mappings(
            EnergyDesign(panel_area_cm2=12.5, capacitance_f=uF(100)),
            InferenceDesign.msp430(), zoo.har_cnn())
        text = design.describe()
        assert "SP=12.5cm2" in text
        assert "100uF" in text
