"""Tests for the step-based simulator."""

import pytest

from repro.design import AuTDesign, EnergyDesign, InferenceDesign
from repro.energy.environment import LightEnvironment
from repro.sim.evaluator import ChrysalisEvaluator
from repro.sim.trace import EventKind
from repro.units import uF
from repro.workloads import zoo


def simulate(panel_cm2=8.0, capacitance=uF(470), n_tiles=2,
             network=None, environment=None, initial_voltage=None):
    net = network or zoo.har_cnn()
    design = AuTDesign.with_default_mappings(
        EnergyDesign(panel_area_cm2=panel_cm2, capacitance_f=capacitance),
        InferenceDesign.msp430(), net, n_tiles=n_tiles)
    evaluator = ChrysalisEvaluator(net)
    env = environment or LightEnvironment.brighter()
    return evaluator.simulate(design, env, initial_voltage=initial_voltage)


class TestCompletion:
    def test_inference_completes(self):
        result = simulate()
        assert result.metrics.feasible
        assert result.inference.finished
        assert result.trace.count(EventKind.INFERENCE_COMPLETED) == 1

    def test_all_tiles_traced(self):
        result = simulate()
        completed = result.trace.count(EventKind.TILE_COMPLETED)
        expected = sum(cost.n_tiles for cost in result.inference.plan)
        assert completed == expected

    def test_tiles_complete_in_order(self):
        result = simulate()
        times = [e.time for e in result.trace
                 if e.kind is EventKind.TILE_COMPLETED]
        assert times == sorted(times)

    def test_cold_start_charging_precedes_first_tile(self):
        result = simulate(initial_voltage=0.0)
        power_on = next(e for e in result.trace
                        if e.kind is EventKind.POWER_ON)
        first_tile = next(e for e in result.trace
                          if e.kind is EventKind.TILE_COMPLETED)
        assert 0.0 < power_on.time <= first_tile.time

    def test_cold_start_slower_than_warm_start(self):
        cold = simulate(initial_voltage=0.0).metrics
        warm = simulate().metrics
        assert cold.e2e_latency > warm.e2e_latency


class TestIntermittency:
    def test_dark_environment_power_cycles(self):
        """In the dark, the load outruns the harvest: the system must
        power-cycle (charge, burst, die, recharge)."""
        result = simulate(panel_cm2=2.0, capacitance=uF(1000), n_tiles=8,
                          environment=LightEnvironment.darker(),
                          network=zoo.cifar10_cnn())
        assert result.metrics.feasible
        assert result.metrics.power_cycles > 1
        assert result.metrics.charge_time > 0.0

    def test_bright_large_panel_runs_through(self):
        result = simulate(panel_cm2=20.0)
        assert result.metrics.power_cycles <= 2

    def test_infeasible_when_tile_too_large(self):
        """One giant tile on a tiny capacitor violates Eq. 8."""
        result = simulate(panel_cm2=1.0, capacitance=uF(2), n_tiles=1,
                          network=zoo.cifar10_cnn())
        assert not result.metrics.feasible
        assert "Eq. 8" in result.metrics.infeasible_reason or \
            "charge" in result.metrics.infeasible_reason

    def test_latency_decomposition(self):
        metrics = simulate().metrics
        assert metrics.e2e_latency == pytest.approx(
            metrics.busy_time + metrics.charge_time, rel=0.02)


class TestEnergyAccounting:
    def test_harvested_positive(self):
        metrics = simulate().metrics
        assert metrics.harvested_energy > 0.0

    def test_breakdown_totals_positive(self):
        metrics = simulate().metrics
        assert metrics.energy.compute > 0.0
        assert metrics.energy.nvm > 0.0
        assert metrics.energy.total > 0.0

    def test_system_efficiency_in_unit_interval(self):
        metrics = simulate().metrics
        assert 0.0 < metrics.system_efficiency <= 1.0
