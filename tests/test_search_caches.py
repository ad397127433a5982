"""Tests for the search-side caches.

The tentpole invariant: with every cache enabled, a fixed-seed search
returns *identical* results to a cold run — same best design, same
score, same history, same Pareto points, same failure records.
"""

import pytest

from repro.dataflow.cost_model import (clear_layer_cost_cache,
                                       configure_layer_cost_cache,
                                       layer_cost_cache_stats)
from repro.explore.bilevel import BilevelExplorer
from repro.explore.ga import GAConfig
from repro.explore.mapper_search import clear_mapper_memo
from repro.explore.nsga2 import ParetoExplorer
from repro.explore.objectives import Objective
from repro.explore.space import DesignSpace
from repro.workloads import zoo

SMALL_GA = dict(population_size=6, generations=3, seed=11)


@pytest.fixture(autouse=True)
def fresh_cache():
    """Each test starts cold and leaves the process cache enabled."""
    configure_layer_cost_cache(enabled=True)
    clear_layer_cost_cache()
    yield
    configure_layer_cost_cache(enabled=True)
    clear_layer_cost_cache()


def make_explorer(**overrides):
    params = dict(SMALL_GA, **overrides)
    return BilevelExplorer(
        network=zoo.har_cnn(),
        space=DesignSpace.existing_aut(),
        objective=Objective.lat_sp(),
        ga_config=GAConfig(**params),
    )


def assert_results_equal(a, b):
    assert a.score == b.score
    assert a.design == b.design
    assert a.history.best == b.history.best
    assert a.history.mean == b.history.mean
    assert a.history.evaluations == b.history.evaluations
    assert [p.values for p in a.evaluated] == [p.values for p in b.evaluated]
    assert [p.payload for p in a.evaluated] == [p.payload for p in b.evaluated]
    assert len(a.failures) == len(b.failures)
    assert ([(r.candidate, r.family, r.stage) for r in a.failures.records]
            == [(r.candidate, r.family, r.stage) for r in b.failures.records])


class TestMemoization:
    def test_memoized_run_identical_to_cold(self):
        configure_layer_cost_cache(enabled=False)
        cold = make_explorer().run()
        configure_layer_cost_cache(enabled=True)
        clear_layer_cost_cache()
        warm = make_explorer().run()
        assert_results_equal(cold, warm)
        hits, misses = layer_cost_cache_stats()
        assert hits > 0 and misses > 0

    def test_layer_cache_counters_in_stats(self):
        result = make_explorer().run()
        assert result.stats.layer_cost_hits > 0
        assert result.stats.layer_cost_misses > 0
        assert 0.0 < result.stats.layer_cost_hit_rate < 1.0
        assert result.stats.hw_evaluations == result.history.evaluations
        assert result.stats.evals_per_second > 0.0

    def test_stats_dict_has_bench_fields(self):
        stats = make_explorer().run().stats
        d = stats.as_dict()
        for key in ("evals_per_second", "layer_cost_hit_rate",
                    "mapper_hit_rate", "search_seconds"):
            assert key in d

    def test_disabled_cache_records_nothing(self):
        configure_layer_cost_cache(enabled=False)
        result = make_explorer().run()
        assert result.stats.layer_cost_hits == 0
        assert result.stats.layer_cost_misses == 0


class TestDesignCache:
    def test_winner_not_relowered(self):
        """``run()`` lowers the winner from the mapper memo.

        Regression: the pre-v1.1 design cache was keyed by
        ``id(design.mappings)`` and never read, so the winning genome
        paid a second full SW-level search at the end of every run.
        """
        explorer = make_explorer()
        calls = []
        inner = explorer.mapper.optimize
        explorer.mapper.optimize = lambda *a, **kw: (
            calls.append(1) or inner(*a, **kw))
        result = explorer.run()
        # Every optimize call was a distinct projection seen during the
        # search itself — none were spent re-lowering the winner.
        assert len(calls) == result.stats.mapper_misses

    def test_mapper_cache_shares_projections(self):
        """Two genomes lowering to the same (energy, inference) reuse
        the whole SW-level search result."""
        explorer = make_explorer()
        genome = explorer.space.seed_genomes()[0]
        explorer.evaluate_genome(genome)
        misses_before = explorer.stats.mapper_misses
        explorer.evaluate_genome(dict(genome))
        assert explorer.stats.mapper_misses == misses_before
        assert explorer.stats.mapper_hits >= 1


class TestFinalPricing:
    """The winner is priced once per environment, for both its average
    and its per-environment metrics, from one accelerator and one plan."""

    GA = GAConfig(population_size=6, generations=2, seed=0)

    def test_bilevel_prices_each_environment_once(self):
        clear_mapper_memo()
        explorer = BilevelExplorer(zoo.har_cnn(), DesignSpace.existing_aut(),
                                   Objective.lat_sp(), ga_config=self.GA)
        result = explorer.run()
        # The search's own hits plus one per layer, not one per layer
        # per environment.
        hits, _ = layer_cost_cache_stats()
        assert result.stats.layer_cost_hits == 40
        assert hits == 40 + len(explorer.network)
        assert result.metrics_by_env == {
            env.name: explorer.evaluator.evaluate(result.design, env)
            for env in explorer.environments}
        assert result.average == explorer.evaluator.evaluate_average(
            result.design)

    def test_pareto_prices_each_environment_once(self):
        explorer = ParetoExplorer(zoo.har_cnn(), DesignSpace.existing_aut(),
                                  ga_config=self.GA)
        evaluator = explorer._bilevel.evaluator
        result = explorer.search()
        assert result.metrics_by_env == {
            env.name: evaluator.evaluate(result.design, env)
            for env in evaluator.environments}
        assert result.average == evaluator.evaluate_average(result.design)


class TestRunStateReset:
    def test_second_run_does_not_accumulate(self):
        """Regression: ``evaluated``/``failures`` leaked across runs."""
        explorer = make_explorer()
        first = explorer.run()
        n_points = len(first.evaluated)
        n_failures = len(first.failures)
        second = explorer.run()
        assert len(second.evaluated) == n_points
        assert len(second.failures) == n_failures
        assert second.stats.hw_evaluations == first.stats.hw_evaluations
        assert second.score == first.score
        assert second.design == first.design
