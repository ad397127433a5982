"""Tests for the hardened search pipeline.

A broken candidate — an unmappable tiling, an impossible simulation, a
runaway evaluation — must cost the search one infinite-fitness penalty
and one structured :class:`FailureRecord`, never the whole run.
"""

import dataclasses
import math

import pytest

from repro.errors import (
    EvaluationTimeout,
    MappingError,
    SearchError,
    SimulationError,
)
from repro.explore.bilevel import BilevelExplorer
from repro.explore.failures import FailureLog, describe_genome
from repro.explore.ga import GAConfig, GeneticAlgorithm
from repro.explore.mapper_search import clear_mapper_memo
from repro.explore.objectives import Objective
from repro.explore.space import DesignSpace, ParameterSpec
from repro.sim.engine import StepSimulator
from repro.workloads import zoo

FAST_GA = GAConfig(population_size=8, generations=4, seed=0)


@pytest.fixture
def toy_space():
    return DesignSpace(parameters=(
        ParameterSpec("x", "float", -5.0, 5.0),
        ParameterSpec("y", "float", -5.0, 5.0),
    ))


class TestGAAbsorption:
    def test_raising_fitness_does_not_abort_search(self, toy_space):
        def brittle(genome):
            if genome["x"] < 0:
                raise MappingError(f"synthetic failure at x={genome['x']}")
            return genome["x"] ** 2 + genome["y"] ** 2

        ga = GeneticAlgorithm(toy_space, brittle, GAConfig(
            population_size=12, generations=8, seed=3))
        genome, fitness = ga.run()
        assert math.isfinite(fitness)
        assert genome["x"] >= 0
        assert len(ga.failures) > 0

    def test_failure_records_are_structured(self, toy_space):
        def always_broken(genome):
            raise SimulationError("synthetic")

        ga = GeneticAlgorithm(toy_space, always_broken, GAConfig(
            population_size=4, generations=2, seed=0))
        with pytest.raises(SearchError):
            ga.run()
        record = next(iter(ga.failures))
        assert record.family == "SimulationError"
        assert "x=" in record.candidate and "y=" in record.candidate
        assert math.isinf(record.penalty)
        assert record.stage == "hw-fitness"
        assert ga.failures.by_family() == {
            "SimulationError": len(ga.failures)}

    def test_non_library_bugs_still_propagate(self, toy_space):
        def buggy(genome):
            raise TypeError("a genuine programming error")

        ga = GeneticAlgorithm(toy_space, buggy, GAConfig(
            population_size=4, generations=2, seed=0))
        with pytest.raises(TypeError):
            ga.run()


def sabotage_scan(explorer, broken):
    """Make the mapper scan, which both search modes reach, raise
    :class:`MappingError` for any energy design ``broken`` accepts."""
    original = explorer.mapper.scan

    def sabotaged(inference, energies):
        for energy in energies:
            if broken(energy):
                raise MappingError(
                    f"synthetic: no tiling for {energy.panel_area_cm2:.2f}"
                    " cm2")
        return original(inference, energies)

    explorer.mapper.scan = sabotaged


def records(result):
    return [(r.candidate, r.family, r.stage) for r in result.failures.records]


class TestBilevelHardening:
    @staticmethod
    def broken_run(batched):
        """FAST_GA on har, every panel under 10 cm2 unmappable."""
        clear_mapper_memo()
        explorer = BilevelExplorer(
            network=zoo.har_cnn(),
            space=DesignSpace.existing_aut(),
            objective=Objective.lat_sp(),
            ga_config=dataclasses.replace(FAST_GA, batched=batched),
        )
        sabotage_scan(explorer, lambda energy: energy.panel_area_cm2 < 10.0)
        return explorer.run()

    @pytest.mark.parametrize("batched", [False, True], ids=["serial", "batched"])
    def test_broken_candidates_absorbed_and_logged(self, batched):
        """A space containing deliberately broken candidates must still
        yield a feasible best design, with every absorbed failure
        enumerated in the result's failure log."""
        result = self.broken_run(batched)
        assert result.average.feasible
        assert result.design.energy.panel_area_cm2 >= 10.0
        assert len(result.failures) > 0
        for record in result.failures:
            assert record.family == "MappingError"
            assert "panel_area_cm2=" in record.candidate
            assert math.isinf(record.penalty)
        if batched:
            # A raising group scan re-runs its genomes one at a time,
            # which records the same failures and memo probes as serial.
            serial = self.broken_run(False)
            assert result.stats.scalar_fallbacks > 0
            assert records(result) == records(serial)
            assert result.stats.mapper_hits == serial.stats.mapper_hits
            assert result.stats.mapper_misses == serial.stats.mapper_misses

    @pytest.mark.parametrize("batched", [False, True], ids=["serial", "batched"])
    def test_all_broken_still_raises_search_error(self, batched):
        explorer = BilevelExplorer(
            network=zoo.har_cnn(),
            space=DesignSpace.existing_aut(),
            objective=Objective.lat_sp(),
            ga_config=GAConfig(population_size=4, generations=2, seed=0,
                               batched=batched),
        )
        sabotage_scan(explorer, lambda energy: True)
        with pytest.raises(SearchError) as excinfo:
            explorer.run()
        # The error message carries the absorbed-failure histogram.
        assert "MappingError" in str(excinfo.value)

    def test_candidate_time_budget_penalizes_slow_candidates(self):
        explorer = BilevelExplorer(
            network=zoo.har_cnn(),
            space=DesignSpace.existing_aut(),
            objective=Objective.lat_sp(),
            ga_config=GAConfig(population_size=4, generations=2, seed=0),
            candidate_time_budget_s=1e-12,
        )
        with pytest.raises(SearchError):
            explorer.run()
        assert len(explorer.failures) > 0
        assert "EvaluationTimeout" in explorer.failures.by_family()


class TestEvaluationBudgets:
    def test_step_budget_raises_evaluation_timeout(self):
        from repro.design import AuTDesign, EnergyDesign, InferenceDesign
        from repro.energy.environment import LightEnvironment
        from repro.sim.evaluator import ChrysalisEvaluator
        from repro.units import uF

        net = zoo.har_cnn()
        design = AuTDesign.with_default_mappings(
            EnergyDesign(panel_area_cm2=8.0, capacitance_f=uF(100)),
            InferenceDesign.msp430(), net, n_tiles=2)
        evaluator = ChrysalisEvaluator(net, max_steps=1)
        with pytest.raises(EvaluationTimeout):
            evaluator.simulate(design, LightEnvironment.brighter())

    @pytest.mark.parametrize("kwargs", [
        {"max_charge_wait": 0.0},
        {"max_charge_wait": -1.0},
        {"max_steps": 0},
        {"time_budget_s": 0.0},
        {"steps_per_tile": 0},
    ])
    def test_bad_simulator_budgets_rejected(self, kwargs):
        # Validation fires before the controllers are ever touched.
        with pytest.raises(SimulationError):
            StepSimulator(energy=None, inference=None, **kwargs)


class TestFailureLog:
    def test_render_lists_families_and_records(self):
        log = FailureLog()
        for i in range(3):
            log.record(candidate=f"x={i}", error=MappingError("boom"),
                       penalty=math.inf, stage="sw-lowering")
        text = log.render()
        assert "MappingError" in text
        assert "x=0" in text

    def test_describe_genome_is_stable(self):
        a = describe_genome({"b": 2, "a": 1.0})
        b = describe_genome({"a": 1.0, "b": 2})
        assert a == b
        assert a.index("a=") < a.index("b=")
