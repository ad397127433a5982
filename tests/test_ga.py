"""Tests for the genetic-algorithm engine."""

import math

import pytest

from repro.errors import ConfigurationError, SearchError
from repro.explore.ga import GAConfig, GeneticAlgorithm
from repro.explore.random_search import RandomSearch
from repro.explore.grid import GridSearch
from repro.explore.space import DesignSpace, ParameterSpec


@pytest.fixture
def space():
    return DesignSpace(parameters=(
        ParameterSpec("x", "float", -5.0, 5.0),
        ParameterSpec("y", "float", -5.0, 5.0),
    ))


def sphere(genome):
    return genome["x"] ** 2 + genome["y"] ** 2


class TestGeneticAlgorithm:
    def test_optimises_sphere(self, space):
        ga = GeneticAlgorithm(space, sphere, GAConfig(
            population_size=20, generations=25, seed=3))
        genome, fitness = ga.run()
        assert fitness < 0.5
        assert abs(genome["x"]) < 1.0

    def test_deterministic_for_seed(self, space):
        run1 = GeneticAlgorithm(space, sphere, GAConfig(seed=7)).run()
        run2 = GeneticAlgorithm(space, sphere, GAConfig(seed=7)).run()
        assert run1 == run2

    def test_history_monotone_best(self, space):
        ga = GeneticAlgorithm(space, sphere, GAConfig(
            population_size=10, generations=10, seed=1))
        ga.run()
        best = ga.history.best
        assert len(best) == 10
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(best, best[1:]))

    def test_elites_survive(self, space):
        """Best fitness never regresses generation to generation."""
        ga = GeneticAlgorithm(space, sphere, GAConfig(
            population_size=8, generations=15, elite_count=2, seed=5))
        _, fitness = ga.run()
        assert fitness == min(ga.history.best)

    def test_all_infeasible_raises(self, space):
        ga = GeneticAlgorithm(space, lambda g: math.inf,
                              GAConfig(population_size=4, generations=2))
        with pytest.raises(SearchError):
            ga.run()

    def test_cache_avoids_reevaluation(self, space):
        calls = []

        def counting(genome):
            calls.append(1)
            return sphere(genome)

        ga = GeneticAlgorithm(space, counting, GAConfig(
            population_size=10, generations=10, elite_count=3, seed=2))
        ga.run()
        # Elites are re-inserted every generation; the cache must prevent
        # their re-evaluation, so calls < population x generations.
        assert len(calls) < 100
        assert len(calls) == ga.history.evaluations

    @pytest.mark.parametrize("kwargs", [
        {"population_size": 1},
        {"generations": 0},
        {"tournament_size": 0},
        {"elite_count": 16},
    ])
    def test_bad_config(self, kwargs):
        # Malformed hyper-parameters are a configuration mistake, not a
        # failed search (reclassified from SearchError in v1.0).
        with pytest.raises(ConfigurationError):
            GAConfig(**kwargs)

    def test_batch_evaluator_matches_serial(self, space):
        """A batch evaluator must not perturb the search at all: the
        RNG stream is consumed entirely during breeding, so handing each
        generation to ``evaluate_many`` yields the identical run."""

        class Recording:
            def __init__(self):
                self.batches = []

            def evaluate_many(self, genomes):
                self.batches.append(len(genomes))
                return [sphere(g) for g in genomes]

        config = GAConfig(population_size=10, generations=8, seed=4)
        serial = GeneticAlgorithm(space, sphere, config)
        serial_result = serial.run()
        batch = Recording()
        batched = GeneticAlgorithm(space, sphere, config,
                                   batch_evaluator=batch)
        batched_result = batched.run()
        assert serial_result == batched_result
        assert serial.history.best == batched.history.best
        assert serial.history.evaluations == batched.history.evaluations
        # The whole initial population arrives as one batch.
        assert batch.batches[0] == 10
        assert sum(batch.batches) == batched.history.evaluations

    def test_batch_evaluator_sees_only_uncached_genomes(self, space):
        """Cached/duplicate genomes must be filtered before the batch
        evaluator runs, exactly like the serial cache path."""
        seen = []

        class Recording:
            def evaluate_many(self, genomes):
                seen.extend(genomes)
                return [sphere(g) for g in genomes]

        seed_genome = {"x": 1.0, "y": 1.0}
        ga = GeneticAlgorithm(space, sphere,
                              GAConfig(population_size=4, generations=2,
                                       seed=0),
                              seeds=[seed_genome, dict(seed_genome)],
                              batch_evaluator=Recording())
        ga.run()
        keys = [tuple(sorted(g.items())) for g in seen]
        assert len(keys) == len(set(keys))
        assert len(keys) == ga.history.evaluations


class TestRandomSearch:
    def test_finds_decent_point(self, space):
        search = RandomSearch(space, sphere, budget=300, seed=11)
        _, fitness = search.run()
        assert fitness < 2.0

    def test_budget_respected(self, space):
        search = RandomSearch(space, sphere, budget=37, seed=1)
        search.run()
        assert search.history.evaluations == 37

    def test_all_infeasible_raises(self, space):
        search = RandomSearch(space, lambda g: math.inf, budget=5)
        with pytest.raises(SearchError):
            search.run()


class TestGridSearch:
    def test_covers_cartesian_product(self, space):
        grid = GridSearch(space, sphere, points_per_axis=5)
        grid.run()
        assert grid.history.evaluations == 25

    def test_finds_centre_of_sphere(self, space):
        grid = GridSearch(space, sphere, points_per_axis=11)
        genome, fitness = grid.run()
        assert fitness == pytest.approx(0.0, abs=1e-9)

    def test_log_axes_deduplicate_ints(self):
        space = DesignSpace(parameters=(
            ParameterSpec("n", "int_log", 1, 4),
        ))
        grid = GridSearch(space, lambda g: g["n"], points_per_axis=10)
        axes = grid.axes()
        assert axes["n"] == sorted(set(axes["n"]))

    def test_ga_improves_over_initial_population(self, space):
        """The GA must make real progress from its random seeding."""
        for seed in range(3):
            ga = GeneticAlgorithm(space, sphere, GAConfig(
                population_size=10, generations=12, seed=seed))
            _, fitness = ga.run()
            assert fitness < 0.2 * ga.history.mean[0]
