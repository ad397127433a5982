"""Tests for the fault-injection subsystem.

Two properties anchor everything else:

* **determinism** — a fixed seed reproduces the exact same fault
  sequence, trace, and metrics (fault processes are pure functions of
  the config, never of global RNG state);
* **nominal identity** — an all-zero-rate config is byte-identical to
  running with no injector at all, so the fault hook costs nothing on
  the nominal path.
"""

import math

import pytest

from repro.design import AuTDesign, EnergyDesign, InferenceDesign
from repro.energy.environment import LightEnvironment
from repro.errors import (ConfigurationError, EvaluationTimeout,
                          FaultInjectionError)
from repro.faults import (
    FaultConfig,
    FaultInjector,
    ResilienceReport,
    run_faults_sweep,
)
from repro.sim.evaluator import ChrysalisEvaluator
from repro.sim.report import render_faults_sweep, render_resilience
from repro.sim.trace import EventKind
from repro.units import uF
from repro.workloads import zoo


def simulate(faults=None, panel_cm2=8.0, capacitance=uF(100), n_tiles=2,
             environment=None, max_steps=None):
    net = zoo.har_cnn()
    design = AuTDesign.with_default_mappings(
        EnergyDesign(panel_area_cm2=panel_cm2, capacitance_f=capacitance),
        InferenceDesign.msp430(), net, n_tiles=n_tiles)
    evaluator = ChrysalisEvaluator(net, max_steps=max_steps)
    env = environment or LightEnvironment.indoor()
    return evaluator.simulate(design, env, faults=faults)


class TestFaultConfig:
    def test_default_config_is_inert(self):
        injector = FaultInjector(FaultConfig())
        assert not injector.enabled
        assert not injector.perturbs_charging

    def test_scaled_saturates_probabilities(self):
        config = FaultConfig.stress().scaled(100.0)
        assert config.harvest_dropout_rate == 1.0
        assert config.ckpt_write_failure_rate == 1.0
        assert config.commit_vulnerability == 1.0

    def test_scaled_zero_disables_everything(self):
        assert not FaultInjector(FaultConfig.stress().scaled(0.0)).enabled

    def test_scaled_drifts_linearly(self):
        base = FaultConfig(cap_leakage_drift_rate=1e-5,
                           esr_degradation_rate=1e-4)
        doubled = base.scaled(2.0)
        assert doubled.cap_leakage_drift_rate == pytest.approx(2e-5)
        assert doubled.esr_degradation_rate == pytest.approx(2e-4)

    @pytest.mark.parametrize("kwargs", [
        {"harvest_dropout_rate": -0.1},
        {"harvest_dropout_depth": 1.5},
        {"ckpt_write_failure_rate": 2.0},
        {"commit_vulnerability": -1.0},
        {"harvest_window_s": 0.0},
        {"cap_leakage_drift_rate": -1e-6},
        {"esr_degradation_rate": float("inf")},
    ])
    def test_bad_config_raises(self, kwargs):
        with pytest.raises(FaultInjectionError):
            FaultConfig(**kwargs)

    def test_negative_intensity_raises(self):
        with pytest.raises(FaultInjectionError):
            FaultConfig.stress().scaled(-1.0)


class TestDeterminism:
    def test_same_seed_reproduces_fault_draws(self):
        config = FaultConfig(seed=42, harvest_dropout_rate=0.5,
                             ckpt_write_failure_rate=0.5,
                             commit_vulnerability=0.5)
        a, b = FaultInjector(config), FaultInjector(config)
        assert ([a.harvest_factor(t * 5.0) for t in range(50)]
                == [b.harvest_factor(t * 5.0) for t in range(50)])
        assert ([a.checkpoint_write_fails() for _ in range(50)]
                == [b.checkpoint_write_fails() for _ in range(50)])
        assert ([a.commit_corrupts() for _ in range(50)]
                == [b.commit_corrupts() for _ in range(50)])

    def test_different_seeds_decorrelate(self):
        draws = [
            [FaultInjector(FaultConfig(seed=s, harvest_dropout_rate=0.5))
             .harvest_factor(t * 5.0) for t in range(64)]
            for s in (0, 1)
        ]
        assert draws[0] != draws[1]

    def test_fresh_resets_attempt_counters(self):
        injector = FaultInjector(FaultConfig(seed=7,
                                             ckpt_write_failure_rate=0.5))
        first = [injector.checkpoint_write_fails() for _ in range(20)]
        reset = injector.fresh()
        again = [reset.checkpoint_write_fails() for _ in range(20)]
        assert first == again

    def test_same_seed_identical_simulation(self):
        config = FaultConfig.stress(seed=11)
        a = simulate(faults=FaultInjector(config))
        b = simulate(faults=FaultInjector(config))
        assert a.trace.events == b.trace.events
        assert a.metrics.e2e_latency == b.metrics.e2e_latency
        assert a.metrics.energy.total == b.metrics.energy.total


class TestNominalIdentity:
    def test_zero_rates_byte_identical_to_no_injector(self):
        nominal = simulate(faults=None)
        inert = simulate(faults=FaultInjector(FaultConfig()))
        assert inert.trace.events == nominal.trace.events
        m0, m1 = nominal.metrics, inert.metrics
        assert m1.e2e_latency == m0.e2e_latency
        assert m1.busy_time == m0.busy_time
        assert m1.charge_time == m0.charge_time
        assert m1.energy.total == m0.energy.total
        assert m1.harvested_energy == m0.harvested_energy
        assert m1.power_cycles == m0.power_cycles

    def test_evaluator_reuses_injector_freshly(self):
        """One injector config must serve repeated simulations without
        its attempt counters leaking between runs."""
        injector = FaultInjector(FaultConfig.stress(seed=3))
        net = zoo.har_cnn()
        design = AuTDesign.with_default_mappings(
            EnergyDesign(panel_area_cm2=8.0, capacitance_f=uF(100)),
            InferenceDesign.msp430(), net, n_tiles=2)
        evaluator = ChrysalisEvaluator(net, faults=injector)
        env = LightEnvironment.indoor()
        a = evaluator.simulate(design, env)
        b = evaluator.simulate(design, env)
        assert a.trace.events == b.trace.events


class TestFaultEffects:
    def test_harvest_dropout_slows_inference(self):
        nominal = simulate()
        shaded = simulate(faults=FaultInjector(FaultConfig(
            seed=0, harvest_dropout_rate=1.0, harvest_dropout_depth=0.8,
            harvest_window_s=0.5)))
        assert (not shaded.metrics.feasible
                or shaded.metrics.e2e_latency > nominal.metrics.e2e_latency)

    def test_checkpoint_write_failures_are_retried(self):
        result = simulate(faults=FaultInjector(FaultConfig(
            seed=1, ckpt_write_failure_rate=0.8)), max_steps=500_000)
        assert result.trace.count(EventKind.CHECKPOINT_FAILED) > 0
        assert result.inference.checkpoint_retries \
            == result.trace.count(EventKind.CHECKPOINT_FAILED)
        nominal = simulate()
        assert (result.metrics.energy.checkpoint
                > nominal.metrics.energy.checkpoint)

    def test_always_failing_commit_hits_step_budget(self):
        """A commit that never verifies rolls back forever; the step
        budget must turn that grind into EvaluationTimeout."""
        with pytest.raises(EvaluationTimeout):
            simulate(faults=FaultInjector(FaultConfig(
                seed=0, ckpt_write_failure_rate=1.0)), max_steps=5_000)

    def test_rollback_replays_tile(self):
        result = simulate(faults=FaultInjector(FaultConfig(
            seed=2, ckpt_write_failure_rate=0.8)), max_steps=500_000)
        rollbacks = result.trace.count(EventKind.ROLLBACK)
        if rollbacks:  # seed-dependent, deterministic given the seed
            completed = result.trace.count(EventKind.TILE_COMPLETED)
            planned = sum(c.n_tiles for c in result.inference.plan)
            assert completed == planned + rollbacks
            assert result.inference.wasted_energy > 0.0


class TestResilienceReport:
    def test_nominal_run_reports_clean(self):
        report = ResilienceReport.from_simulation(simulate())
        assert report.completed
        assert 0.0 < report.forward_progress_ratio <= 1.0
        assert report.checkpoint_loss_rate == 0.0
        assert report.rollbacks == 0
        assert report.survival_curve[-1][1] == pytest.approx(1.0)

    def test_faulted_run_accounts_losses(self):
        result = simulate(faults=FaultInjector(FaultConfig(
            seed=1, ckpt_write_failure_rate=0.8)), max_steps=500_000)
        report = ResilienceReport.from_simulation(result)
        assert report.checkpoint_retries > 0
        assert 0.0 < report.checkpoint_loss_rate < 1.0
        assert report.delivered_energy_j > 0.0

    def test_render_resilience(self):
        text = render_resilience(ResilienceReport.from_simulation(simulate()))
        assert "forward progress" in text
        assert "ckpt loss" in text


class TestFaultsSweep:
    @pytest.fixture(scope="class")
    def cells(self):
        net = zoo.har_cnn()
        design = AuTDesign.with_default_mappings(
            EnergyDesign(panel_area_cm2=8.0, capacitance_f=uF(100)),
            InferenceDesign.msp430(), net, n_tiles=2)
        return run_faults_sweep(
            design, net, LightEnvironment.indoor(),
            intensities=(0.0, 1.0), seeds_per_cell=2, max_steps=500_000)

    def test_cell_per_intensity(self, cells):
        assert [c.intensity for c in cells] == [0.0, 1.0]
        assert all(c.runs == 2 for c in cells)

    def test_zero_intensity_always_survives(self, cells):
        assert cells[0].survival == 1.0
        assert math.isfinite(cells[0].mean_latency_s)

    def test_survival_and_progress_bounded(self, cells):
        for cell in cells:
            assert 0.0 <= cell.survival <= 1.0
            assert 0.0 <= cell.mean_forward_progress <= 1.0

    def test_render_faults_sweep(self, cells):
        text = render_faults_sweep(cells)
        assert "intensity" in text and "survival" in text
        assert len(text.splitlines()) == 2 + len(cells)

    def test_design_that_does_not_fit_the_network_raises(self):
        # A har design (5 mappings) on cifar10 (10 layers) is a
        # configuration error, as evaluate() and simulate_day() say: not
        # a run that failed under faults, so no 0%-survival cells.
        har, cifar = zoo.har_cnn(), zoo.cifar10_cnn()
        design = AuTDesign.with_default_mappings(
            EnergyDesign(panel_area_cm2=8.0, capacitance_f=uF(470)),
            InferenceDesign.msp430(), har, n_tiles=1)
        with pytest.raises(ConfigurationError, match="5 mappings"):
            run_faults_sweep(design, cifar, LightEnvironment.brighter(),
                             intensities=(0.0, 1.0), seeds_per_cell=1)
