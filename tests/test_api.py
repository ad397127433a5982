"""Tests for the unified evaluation facade (repro.api.evaluate).

The redesign's contract: one front door, zero behaviour drift — the
facade must return bit-identical numbers to driving the underlying
engines directly, at both fidelities, while adding workload/scenario
resolution and opt-in observability capture.
"""

import asyncio
import dataclasses

import pytest

from repro.api import (FIDELITIES, EvalRequest, EvaluationReport, evaluate,
                       evaluate_batch, evaluate_many, serve)
from repro.core.chrysalis import Chrysalis
from repro.core.scenarios import scenario_by_name
from repro.design import AuTDesign, EnergyDesign, InferenceDesign
from repro.energy.environment import LightEnvironment
from repro.errors import ConfigurationError
from repro.obs import state as obs_state
from repro.sim.engine import StepSimulator
from repro.sim.evaluator import ChrysalisEvaluator, _verdict
from repro.units import uF
from repro.workloads import zoo


@pytest.fixture(autouse=True)
def obs_off():
    obs_state.disable()
    obs_state.reset()
    yield
    obs_state.disable()
    obs_state.reset()


class TestBitIdentity:
    def test_step_matches_direct_evaluator(
            self, har_network, msp_design, brighter, darker):
        envs = (brighter, darker)
        report = evaluate(msp_design, har_network, environments=envs,
                          fidelity="step")
        direct = ChrysalisEvaluator(har_network, envs)
        row = [direct.simulate(msp_design, env).metrics for env in envs]
        for env, expected in zip(envs, row):
            assert report.by_environment[env.name] == expected
        assert report.metrics == _verdict(row)

    def test_analytical_matches_direct_evaluator(
            self, har_network, msp_design, brighter, darker):
        envs = (brighter, darker)
        report = evaluate(msp_design, har_network, environments=envs,
                          fidelity="analytical")
        direct = ChrysalisEvaluator(har_network, envs)
        for env in envs:
            assert report.by_environment[env.name] == \
                direct.evaluate(msp_design, env)
        assert report.simulations is None

    def test_exact_mode_matches_fast_forward_off(
            self, har_network, msp_design, brighter):
        report = evaluate(msp_design, har_network,
                          environments=(brighter,), fast_forward=False)
        direct = ChrysalisEvaluator(har_network).simulate(
            msp_design, brighter, fast_forward=False)
        assert report.by_environment[brighter.name] == direct.metrics
        assert report.simulations[brighter.name].fast_cycles_skipped == 0


class TestResolution:
    def test_workload_by_name(self, msp_design):
        report = evaluate(msp_design, "har",
                          environments=(LightEnvironment.brighter(),))
        assert report.workload == zoo.har_cnn().name

    def test_default_environments_are_the_paper_pair(
            self, har_network, msp_design):
        report = evaluate(msp_design, har_network, fidelity="analytical")
        expected = [e.name for e in LightEnvironment.paper_environments()]
        assert list(report.by_environment) == expected

    def test_scenario_by_name_supplies_environments(
            self, har_network, msp_design):
        name = scenario_by_name("wearable").name
        report = evaluate(msp_design, har_network, "wearable",
                          fidelity="analytical")
        expected = [e.name
                    for e in scenario_by_name(name).environments]
        assert list(report.by_environment) == expected

    def test_scenario_and_environments_conflict(
            self, har_network, msp_design, brighter):
        with pytest.raises(ConfigurationError, match="not both"):
            evaluate(msp_design, har_network, "wearable",
                     environments=(brighter,))

    def test_unknown_fidelity(self, har_network, msp_design):
        assert FIDELITIES == ("step", "analytical")
        with pytest.raises(ConfigurationError, match="fidelity"):
            evaluate(msp_design, har_network, fidelity="spice")

    @pytest.mark.parametrize("fidelity", FIDELITIES)
    def test_infeasible_environment_short_circuits(
            self, har_network, fidelity, monkeypatch):
        # 1 cm² and 10 µF cannot bank one whole-layer tile in indoor
        # light (Eq. 8), so the brighter environment is never priced.
        design = AuTDesign.with_default_mappings(
            EnergyDesign(panel_area_cm2=1.0, capacitance_f=uF(10)),
            InferenceDesign.msp430(), har_network, n_tiles=1)
        indoor = LightEnvironment.indoor()
        runs = []
        run = StepSimulator.run
        monkeypatch.setattr(StepSimulator, "run",
                            lambda self: runs.append(self) or run(self))
        report = evaluate(design, har_network, fidelity=fidelity,
                          environments=(indoor, LightEnvironment.brighter()))
        assert not report.feasible
        assert list(report.by_environment) == [indoor.name]
        assert report.metrics is report.by_environment[indoor.name]
        if fidelity == "step":
            assert list(report.simulations) == [indoor.name]
            assert len(runs) == 1
            assert report.metrics is report.simulations[indoor.name].metrics
        else:
            assert report.simulations is None and not runs


class TestEnvironmentSets:
    def test_empty_environment_set_is_rejected(self, har_network,
                                               msp_design):
        message = "at least one environment is required"
        with pytest.raises(ConfigurationError, match=message):
            evaluate(msp_design, har_network, environments=(),
                     fidelity="analytical")
        with pytest.raises(ConfigurationError, match=message):
            evaluate_batch([msp_design], "har", environments=[])
        with pytest.raises(ConfigurationError, match=message):
            evaluate_many([EvalRequest(msp_design, "har", environments=())])

        async def submit():
            async with serve() as service:
                await service.submit(msp_design, "har", environments=())

        with pytest.raises(ConfigurationError, match=message):
            asyncio.run(submit())

    @pytest.fixture
    def same_name(self, brighter, darker):
        """The paper pair, with the darker one also named "brighter"."""
        return (brighter, dataclasses.replace(darker, name=brighter.name))

    def test_analytical_averages_environments_sharing_a_name(
            self, har_network, msp_design, same_name, darker):
        report = evaluate(msp_design, har_network, environments=same_name,
                          fidelity="analytical")
        assert report.feasible
        assert report == evaluate_batch([msp_design], har_network,
                                        environments=same_name)[0]
        # The name-keyed breakdown keeps the later entry; the verdict
        # still averages both environments.
        dark = evaluate(msp_design, har_network, environments=(darker,),
                        fidelity="analytical").metrics
        assert list(report.by_environment) == ["brighter"]
        assert report.by_environment["brighter"] == dark
        assert report.metrics != dark

    def test_step_averages_environments_sharing_a_name(
            self, har_network, msp_design, same_name):
        report = evaluate(msp_design, har_network, environments=same_name,
                          fidelity="step")
        direct = ChrysalisEvaluator(har_network, same_name)
        row = [direct.simulate(msp_design, env).metrics for env in same_name]
        assert report.feasible
        assert report.metrics == _verdict(row)


class TestObsCapture:
    def test_obs_true_attaches_snapshot_and_restores_state(
            self, har_network, msp_design, brighter):
        report = evaluate(msp_design, har_network,
                          environments=(brighter,), obs=True)
        assert isinstance(report, EvaluationReport)
        assert report.obs is not None
        roots = report.obs["spans"]["roots"]
        assert [r["name"] for r in roots] == ["api.evaluate"]
        assert roots[0]["tags"]["fidelity"] == "step"
        names = {node["name"] for node in roots[0].get("children", ())}
        assert "sim.run" in names
        assert report.obs["metrics"]["counters"]["sim.runs"] == 1
        # The temporary enable never leaks out of the call.
        assert not obs_state.is_enabled()
        assert len(obs_state.OBS.registry) == 0

    def test_obs_false_records_nothing(
            self, har_network, msp_design, brighter):
        report = evaluate(msp_design, har_network,
                          environments=(brighter,))
        assert report.obs is None
        assert len(obs_state.OBS.registry) == 0

    def test_enclosing_scope_still_captures(
            self, har_network, msp_design, brighter):
        obs_state.enable()
        report = evaluate(msp_design, har_network,
                          environments=(brighter,))
        assert report.obs is not None
        # ... and stays enabled: the facade only disables what it enabled.
        assert obs_state.is_enabled()

    def test_obs_does_not_change_metrics(
            self, har_network, msp_design, brighter, darker):
        envs = (brighter, darker)
        plain = evaluate(msp_design, har_network, environments=envs)
        observed = evaluate(msp_design, har_network, environments=envs,
                            obs=True)
        assert plain.metrics == observed.metrics
        assert plain.by_environment == observed.by_environment


class TestChrysalisFacade:
    def test_tool_evaluate_routes_through_api(
            self, har_network, msp_design, brighter):
        tool = Chrysalis(har_network, environments=(brighter,))
        report = tool.evaluate(msp_design, fidelity="analytical")
        assert isinstance(report, EvaluationReport)
        direct = evaluate(msp_design, har_network,
                          environments=(brighter,), fidelity="analytical")
        assert report.metrics == direct.metrics
