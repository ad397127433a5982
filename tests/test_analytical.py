"""Tests for the closed-form analytical model (Eqs. 1-9)."""

import pytest

from repro.design import AuTDesign, EnergyDesign, InferenceDesign
from repro.energy.environment import LightEnvironment
from repro.sim.analytical import AnalyticalModel
from repro.units import uF, mF
from repro.workloads import zoo


def make_model(panel_cm2=8.0, capacitance=uF(470), network=None,
               environment=None, n_tiles=2):
    net = network or zoo.har_cnn()
    design = AuTDesign.with_default_mappings(
        EnergyDesign(panel_area_cm2=panel_cm2, capacitance_f=capacitance),
        InferenceDesign.msp430(), net, n_tiles=n_tiles)
    env = environment or LightEnvironment.brighter()
    return AnalyticalModel(design, net, env)


class TestEnergyClosedForms:
    def test_p_eh_is_eq1(self):
        model = make_model(panel_cm2=8.0)
        expected = 8.0 * LightEnvironment.brighter().k_eh
        assert model.p_eh == pytest.approx(expected)

    def test_leak_power_is_eq2_times_u(self):
        model = make_model(capacitance=mF(10))
        design = model.design.energy
        expected = design.k_cap * mF(10) * design.pmic.v_on**2
        assert model.budget.leak == pytest.approx(expected)

    def test_cycle_energy_eq3_storage_term(self):
        model = make_model(capacitance=uF(470))
        pmic = model.design.energy.pmic
        raw = 0.5 * uF(470) * (pmic.v_on**2 - pmic.v_off**2)
        assert model.available_cycle_energy() == pytest.approx(
            raw * pmic.buck_efficiency)

    def test_cycle_energy_eq3_harvest_term_grows_with_time(self):
        model = make_model()
        assert (model.available_cycle_energy(1.0)
                > model.available_cycle_energy(0.0))


class TestFeasibility:
    def test_whole_layer_tile_too_large_is_caught(self):
        model = make_model(network=zoo.cifar10_cnn(), capacitance=uF(47),
                           environment=LightEnvironment.darker(), n_tiles=1)
        metrics = model.evaluate()
        assert not metrics.feasible
        assert "Eq. 8" in metrics.infeasible_reason

    def test_leakage_dominated_design_infeasible(self):
        model = make_model(panel_cm2=1.0, capacitance=mF(10))
        model_dark = AnalyticalModel(
            model.design, model.network, LightEnvironment.indoor())
        metrics = model_dark.evaluate()
        assert not metrics.feasible


class TestEvaluate:
    def test_latency_decomposes(self):
        metrics = make_model().evaluate()
        assert metrics.feasible
        assert metrics.e2e_latency == pytest.approx(
            metrics.busy_time + metrics.charge_time)

    def test_eq7_latency_inverse_in_panel_power(self):
        """E2ELat ~ E_all / P_eh: doubling the panel roughly halves a
        charge-dominated latency."""
        dark = LightEnvironment.darker()
        small = make_model(panel_cm2=2.0, environment=dark,
                           network=zoo.cifar10_cnn(), n_tiles=16,
                           capacitance=mF(1)).evaluate()
        large = make_model(panel_cm2=4.0, environment=dark,
                           network=zoo.cifar10_cnn(), n_tiles=16,
                           capacitance=mF(1)).evaluate()
        assert small.feasible and large.feasible
        ratio = small.e2e_latency / large.e2e_latency
        assert 1.5 < ratio < 2.5

    def test_harvested_energy_consistent_with_sustained_period(self):
        metrics = make_model().evaluate()
        model = make_model()
        assert metrics.harvested_energy == pytest.approx(
            model.p_eh * metrics.sustained_period)

    def test_system_efficiency_bounded_by_chain(self):
        metrics = make_model().evaluate()
        pmic = make_model().design.energy.pmic
        chain = pmic.boost_efficiency * pmic.buck_efficiency
        assert 0.0 < metrics.system_efficiency <= chain

    def test_more_tiles_more_checkpoint_energy(self):
        few = make_model(n_tiles=2).evaluate()
        many = make_model(n_tiles=8).evaluate()
        assert many.energy.checkpoint > few.energy.checkpoint

