"""Edge-case tests for the step simulator and evaluator."""

import pytest

from repro.design import AuTDesign, EnergyDesign, InferenceDesign
from repro.energy.capacitor import Capacitor
from repro.energy.controller import EnergyController
from repro.energy.environment import LightEnvironment
from repro.energy.harvester import SolarHarvester
from repro.energy.pmic import PowerManagementIC
from repro.energy.solar_panel import SolarPanel
from repro.errors import SimulationError
from repro.hardware.accelerators import AcceleratorFamily
from repro.sim.engine import StepSimulator
from repro.sim.evaluator import ChrysalisEvaluator, _verdict
from repro.sim.intermittent import InferenceController
from repro.sim.analytical import AnalyticalModel
from repro.units import uF
from repro.workloads import zoo


def har_plan(n_tiles=2):
    network = zoo.har_cnn()
    design = AuTDesign.with_default_mappings(
        EnergyDesign(panel_area_cm2=8.0, capacitance_f=uF(470)),
        InferenceDesign.msp430(), network, n_tiles=n_tiles)
    model = AnalyticalModel(design, network, LightEnvironment.brighter())
    return model.plan()


class TestEngineGuards:
    def test_bad_steps_per_tile(self):
        controller = EnergyController(
            harvester=SolarHarvester(SolarPanel(area_cm2=8.0),
                                     LightEnvironment.brighter()),
            capacitor=Capacitor(capacitance=uF(470), rated_voltage=5.0),
            pmic=PowerManagementIC(),
        )
        inference = InferenceController(plan=har_plan())
        with pytest.raises(SimulationError):
            StepSimulator(controller, inference, steps_per_tile=0)

    def test_max_charge_wait_reports_infeasible(self):
        """A harvester that can never reach U_on within the wait budget
        must yield an infeasible result, not an infinite loop."""
        controller = EnergyController(
            harvester=SolarHarvester(SolarPanel(area_cm2=1.0),
                                     LightEnvironment.indoor()),
            capacitor=Capacitor(capacitance=10e-3, rated_voltage=5.0,
                                k_cap=0.05),
            pmic=PowerManagementIC(),
        )
        inference = InferenceController(plan=har_plan())
        result = StepSimulator(controller, inference).run()
        assert not result.metrics.feasible
        assert "charge" in result.metrics.infeasible_reason

    def test_coarse_stepping_still_completes(self):
        """steps_per_tile=1 is crude but must remain correct."""
        controller = EnergyController(
            harvester=SolarHarvester(SolarPanel(area_cm2=8.0),
                                     LightEnvironment.brighter()),
            capacitor=Capacitor(capacitance=uF(470), rated_voltage=5.0,
                                voltage=3.0),
            pmic=PowerManagementIC(),
        )
        inference = InferenceController(plan=har_plan())
        result = StepSimulator(controller, inference,
                               steps_per_tile=1).run()
        assert result.metrics.feasible
        assert inference.finished


class TestEvaluatorModes:
    def test_step_mode_average(self):
        network = zoo.har_cnn()
        design = AuTDesign.with_default_mappings(
            EnergyDesign(panel_area_cm2=8.0, capacitance_f=uF(470)),
            InferenceDesign.msp430(), network, n_tiles=2)
        evaluator = ChrysalisEvaluator(network)
        metrics = _verdict([evaluator.simulate(design, env).metrics
                            for env in evaluator.environments])
        assert metrics.feasible
        assert metrics.power_cycles >= 1

    def test_bert_step_simulation_smoke(self):
        """31 layers with an embedding (zero-MAC) layer: the engine must
        handle zero-compute tiles without stalling."""
        network = zoo.bert_tiny(seq_len=4)
        design = AuTDesign.with_default_mappings(
            EnergyDesign(panel_area_cm2=25.0, capacitance_f=uF(2200)),
            InferenceDesign(family=AcceleratorFamily.TPU, n_pes=128,
                            cache_bytes_per_pe=2048),
            network, n_tiles=1)
        evaluator = ChrysalisEvaluator(network)
        result = evaluator.simulate(design, LightEnvironment.brighter())
        assert result.inference.finished
