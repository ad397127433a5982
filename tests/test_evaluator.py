"""Tests for the CHRYSALIS Evaluator facade."""

import itertools

import pytest

from repro.api import evaluate, evaluate_batch
from repro.dataflow import cost_model
from repro.dataflow.cost_model import (clear_layer_cost_cache,
                                       configure_layer_cost_cache)
from repro.design import AuTDesign, EnergyDesign, InferenceDesign
from repro.energy.environment import LightEnvironment
from repro.errors import ConfigurationError
from repro.faults import run_faults_sweep
from repro.sim.evaluator import ChrysalisEvaluator, _verdict
from repro.sim.longrun import simulate_day
from repro.units import uF
from repro.workloads import zoo


@pytest.fixture
def network():
    return zoo.har_cnn()


@pytest.fixture
def design(network):
    return AuTDesign.with_default_mappings(
        EnergyDesign(panel_area_cm2=8.0, capacitance_f=uF(470)),
        InferenceDesign.msp430(), network, n_tiles=2)


@pytest.fixture
def builds(monkeypatch):
    """The accelerators built during a test, from an empty registry."""
    builds = []
    build = InferenceDesign.build
    monkeypatch.setattr(InferenceDesign, "build",
                        lambda self: builds.append(self) or build(self))
    configure_layer_cost_cache(enabled=True)
    clear_layer_cost_cache()
    yield builds
    configure_layer_cost_cache(enabled=True)
    clear_layer_cost_cache()


class TestModes:
    def test_analytical_mode_default(self, network, design):
        evaluator = ChrysalisEvaluator(network)
        metrics = evaluator.evaluate(design, LightEnvironment.brighter())
        assert metrics.feasible

    def test_step_mode(self, network, design):
        evaluator = ChrysalisEvaluator(network)
        metrics = evaluator.simulate(design, LightEnvironment.brighter()
                                     ).metrics
        assert metrics.feasible
        assert metrics.power_cycles >= 1

    def test_simulate_always_steps(self, network, design):
        evaluator = ChrysalisEvaluator(network)  # analytical default
        result = evaluator.simulate(design, LightEnvironment.brighter())
        assert result.trace is not None
        assert result.inference.finished


class TestTwoEnvironmentProtocol:
    def test_average_between_extremes(self, network, design):
        evaluator = ChrysalisEvaluator(network)
        bright = evaluator.evaluate(design, LightEnvironment.brighter())
        dark = evaluator.evaluate(design, LightEnvironment.darker())
        average = evaluator.evaluate_average(design)
        assert (min(bright.e2e_latency, dark.e2e_latency)
                <= average.e2e_latency
                <= max(bright.e2e_latency, dark.e2e_latency))

    def test_average_is_mean(self, network, design):
        evaluator = ChrysalisEvaluator(network)
        bright = evaluator.evaluate(design, LightEnvironment.brighter())
        dark = evaluator.evaluate(design, LightEnvironment.darker())
        average = evaluator.evaluate_average(design)
        assert average.e2e_latency == pytest.approx(
            (bright.e2e_latency + dark.e2e_latency) / 2)

    def test_one_bad_environment_fails_the_design(self, network):
        """The paper requires designs to run in *both* environments."""
        fragile = AuTDesign.with_default_mappings(
            EnergyDesign(panel_area_cm2=1.5, capacitance_f=uF(47)),
            InferenceDesign.msp430(), zoo.cifar10_cnn(), n_tiles=1)
        evaluator = ChrysalisEvaluator(zoo.cifar10_cnn())
        metrics = evaluator.evaluate_average(fragile)
        assert not metrics.feasible

    def test_custom_environments(self, network, design):
        evaluator = ChrysalisEvaluator(
            network, environments=[LightEnvironment.brighter()])
        single = evaluator.evaluate_average(design)
        direct = evaluator.evaluate(design, LightEnvironment.brighter())
        assert single.e2e_latency == pytest.approx(direct.e2e_latency)

    def test_row_matches_per_environment_evaluate(self, network):
        """``evaluate_row`` (a batch of one through the every-environment
        rule) equals one :class:`AnalyticalModel` per environment, up to
        and including the first infeasible one, on feasible designs and
        on designs that fail Eq. 8 or cannot charge, first or later."""
        environments = (LightEnvironment.brighter(),
                        LightEnvironment.darker(),
                        LightEnvironment.indoor())
        evaluator = ChrysalisEvaluator(network, environments)
        lengths = set()
        for panel, capacitance, n_tiles, leaky in itertools.product(
                (0.5, 8.0), (uF(10), uF(100), uF(470)), (1, 4),
                ({}, {"k_cap": 2.0})):
            design = AuTDesign.with_default_mappings(
                EnergyDesign(panel_area_cm2=panel, capacitance_f=capacitance,
                             **leaky),
                InferenceDesign.msp430(), network, n_tiles=n_tiles)
            expected = []
            for environment in environments:
                expected.append(evaluator.evaluate(design, environment))
                if not expected[-1].feasible:
                    break
            row, verdict = evaluator.evaluate_row(design)
            assert row == expected
            assert verdict == _verdict(expected)
            assert evaluator.evaluate_average(design) == verdict
            lengths.add((len(row), row[-1].feasible))
        # Feasible everywhere, and infeasible in the first, second and
        # third environment.
        assert lengths == {(3, True), (1, False), (2, False), (3, False)}

    def test_empty_environments_rejected(self, network):
        with pytest.raises(ConfigurationError):
            ChrysalisEvaluator(network, environments=[])


class TestOnePlanPerDesign:
    """Every step caller builds a design's accelerator and plan once,
    however many environments, fault seeds or hours it runs: the plan
    does not depend on the light."""

    def test_step_evaluate_of_the_paper_pair(self, network, design, builds):
        report = evaluate(design, network, fidelity="step")
        assert report.feasible and len(report.simulations) == 2
        assert builds == [design.inference]

    def test_default_faults_sweep(self, network, design, builds):
        cells = run_faults_sweep(design, network,
                                 LightEnvironment.brighter())
        assert [cell.runs for cell in cells] == [3] * 4
        assert builds == [design.inference]

    @pytest.mark.parametrize("use_step", [False, True])
    def test_day(self, network, design, builds, use_step):
        day = simulate_day(design, network, LightEnvironment.brighter(),
                           use_step=use_step)
        assert day.active_hours > 1
        assert builds == [design.inference]


class TestOneBuildPerProcess:
    """Every pricing call reads the process's accelerator registry, which
    lives and dies with the layer-cost cache."""

    def price(self, network, design):
        for _ in range(2):
            evaluate(design, network, fidelity="analytical")
        evaluate_batch([design], network)

    def test_evaluates_and_a_batch_build_once(self, network, design,
                                              builds):
        self.price(network, design)
        evaluate(design, network, fidelity="step")
        assert builds == [design.inference]

    def test_a_clear_builds_again(self, network, design, builds):
        self.price(network, design)
        clear_layer_cost_cache()
        self.price(network, design)
        assert builds == [design.inference] * 2

    def test_cache_off_builds_every_call(self, network, design, builds):
        """bench_serve's premise: its cache-off baseline builds an
        accelerator per request."""
        configure_layer_cost_cache(enabled=False)
        self.price(network, design)
        evaluate(design, network, fidelity="step")
        assert builds == [design.inference] * 4
        assert not cost_model._COST_MODELS


class TestAnalyticalVsStep:
    """The two evaluation paths must agree on ordering and magnitude."""

    def test_busy_time_agreement(self, network, design):
        evaluator = ChrysalisEvaluator(network)
        env = LightEnvironment.brighter()
        analytical = evaluator.evaluate(design, env)
        stepped = evaluator.simulate(design, env).metrics
        assert stepped.busy_time == pytest.approx(
            analytical.busy_time, rel=0.15)

    def test_latency_agreement(self, network, design):
        evaluator = ChrysalisEvaluator(network)
        env = LightEnvironment.darker()
        analytical = evaluator.evaluate(design, env)
        stepped = evaluator.simulate(design, env).metrics
        assert stepped.e2e_latency == pytest.approx(
            analytical.e2e_latency, rel=0.35)

    def test_ordering_preserved_across_panel_sizes(self, network):
        """If the analytical model says A is faster than B, the step
        simulator must agree — ordering fidelity is what the search
        relies on."""
        env = LightEnvironment.darker()
        evaluator = ChrysalisEvaluator(network)
        designs = [
            AuTDesign.with_default_mappings(
                EnergyDesign(panel_area_cm2=a, capacitance_f=uF(470)),
                InferenceDesign.msp430(), network, n_tiles=4)
            for a in (2.0, 6.0, 18.0)
        ]
        analytical = [evaluator.evaluate(d, env).e2e_latency for d in designs]
        stepped = [evaluator.simulate(d, env).metrics.e2e_latency
                   for d in designs]
        assert sorted(range(3), key=analytical.__getitem__) == \
            sorted(range(3), key=stepped.__getitem__)
