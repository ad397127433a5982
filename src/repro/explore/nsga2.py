"""NSGA-II multi-objective search over AuT design spaces.

The scalar objectives (lat / sp / lat*sp) answer one question each; the
Fig. 6 scatter answers the broader one — *what does the whole
latency-vs-panel tradeoff look like?*  This module implements the
standard NSGA-II machinery (fast non-dominated sorting + crowding
distance) so the tradeoff curve is produced directly rather than
harvested from a scalarised search's evaluation log.

Usage mirrors :class:`~repro.explore.ga.GeneticAlgorithm`, but fitness
returns a *tuple* of minimised values and :meth:`NSGA2.run` returns the
final non-dominated front.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import SearchError
from repro.explore.ga import GAConfig
from repro.explore.pareto import ParetoPoint, pareto_front
from repro.explore.space import DesignSpace, Genome

MultiFitness = Callable[[Genome], Tuple[float, ...]]


@dataclass
class _Individual:
    genome: Genome
    values: Tuple[float, ...]
    rank: int = 0
    crowding: float = 0.0


def fast_non_dominated_sort(
    population: Sequence[_Individual],
) -> List[List[_Individual]]:
    """Deb's fast non-dominated sort; returns fronts, best first."""
    dominates = _dominates
    s: List[List[int]] = [[] for _ in population]
    n = [0] * len(population)
    fronts: List[List[int]] = [[]]
    for i, p in enumerate(population):
        for j, q in enumerate(population):
            if i == j:
                continue
            if dominates(p.values, q.values):
                s[i].append(j)
            elif dominates(q.values, p.values):
                n[i] += 1
        if n[i] == 0:
            p.rank = 0
            fronts[0].append(i)
    k = 0
    while fronts[k]:
        next_front: List[int] = []
        for i in fronts[k]:
            for j in s[i]:
                n[j] -= 1
                if n[j] == 0:
                    population[j].rank = k + 1
                    next_front.append(j)
        fronts.append(next_front)
        k += 1
    return [[population[i] for i in front] for front in fronts if front]


def _dominates(a: Tuple[float, ...], b: Tuple[float, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b)) and any(
        x < y for x, y in zip(a, b))


def crowding_distance(front: Sequence[_Individual]) -> None:
    """Assign Deb's crowding distance in place."""
    if not front:
        return
    dims = len(front[0].values)
    for individual in front:
        individual.crowding = 0.0
    for d in range(dims):
        ordered = sorted(front, key=lambda ind: ind.values[d])
        ordered[0].crowding = math.inf
        ordered[-1].crowding = math.inf
        span = ordered[-1].values[d] - ordered[0].values[d]
        if span <= 0:
            continue
        for prev_ind, ind, next_ind in zip(ordered, ordered[1:], ordered[2:]):
            ind.crowding += (next_ind.values[d] - prev_ind.values[d]) / span


class NSGA2:
    """Multi-objective genetic search returning a Pareto front."""

    def __init__(self, space: DesignSpace, fitness: MultiFitness,
                 config: Optional[GAConfig] = None,
                 seeds: Optional[List[Genome]] = None) -> None:
        self.space = space
        self.fitness = fitness
        self.config = config or GAConfig()
        self.seeds = list(seeds) if seeds else []
        self.rng = random.Random(self.config.seed)
        self.evaluations = 0

    # -- public API -----------------------------------------------------------

    def run(self) -> List[ParetoPoint]:
        """Returns the final population's non-dominated front, sorted by
        the first objective.  Raises :class:`SearchError` if every
        candidate was infeasible (all-inf objective vectors)."""
        cfg = self.config
        population = self._initial_population()
        for _ in range(cfg.generations - 1):
            offspring = self._make_offspring(population)
            merged = population + offspring
            population = self._select_survivors(merged)
        finite = [ind for ind in population
                  if all(math.isfinite(v) for v in ind.values)]
        if not finite:
            raise SearchError("NSGA-II found no feasible design")
        points = [ParetoPoint(values=ind.values, payload=ind.genome)
                  for ind in finite]
        return pareto_front(points)

    # -- internals ----------------------------------------------------------------

    def _evaluate(self, genome: Genome) -> _Individual:
        self.evaluations += 1
        return _Individual(genome=genome, values=tuple(self.fitness(genome)))

    def _initial_population(self) -> List[_Individual]:
        cfg = self.config
        genomes = [dict(seed) for seed in self.seeds[:cfg.population_size]]
        while len(genomes) < cfg.population_size:
            genomes.append(self.space.sample(self.rng))
        population = [self._evaluate(g) for g in genomes]
        self._rank(population)
        return population

    def _rank(self, population: List[_Individual]) -> None:
        for front in fast_non_dominated_sort(population):
            crowding_distance(front)

    def _tournament(self, population: Sequence[_Individual]) -> Genome:
        a, b = self.rng.sample(list(population), 2)
        if a.rank != b.rank:
            return (a if a.rank < b.rank else b).genome
        return (a if a.crowding > b.crowding else b).genome

    def _make_offspring(
        self, population: Sequence[_Individual]
    ) -> List[_Individual]:
        cfg = self.config
        offspring = []
        while len(offspring) < cfg.population_size:
            parent_a = self._tournament(population)
            if self.rng.random() < cfg.crossover_rate:
                parent_b = self._tournament(population)
                child = self.space.crossover(parent_a, parent_b, self.rng)
            else:
                child = dict(parent_a)
            child = self.space.mutate(child, self.rng,
                                      rate=cfg.mutation_rate,
                                      scale=cfg.mutation_scale)
            offspring.append(self._evaluate(child))
        return offspring

    def _select_survivors(
        self, merged: List[_Individual]
    ) -> List[_Individual]:
        cfg = self.config
        survivors: List[_Individual] = []
        for front in fast_non_dominated_sort(merged):
            crowding_distance(front)
            if len(survivors) + len(front) <= cfg.population_size:
                survivors.extend(front)
            else:
                remaining = cfg.population_size - len(survivors)
                front.sort(key=lambda ind: ind.crowding, reverse=True)
                survivors.extend(front[:remaining])
                break
        return survivors


class ParetoExplorer:
    """Bi-level NSGA-II over (panel area, sustained latency).

    The multi-objective sibling of
    :class:`~repro.explore.bilevel.BilevelExplorer`: the SW level stays
    the exact per-layer mapping optimisation; the HW level evolves a
    population toward the (sp, lat) Pareto front directly.
    """

    def __init__(self, network, space: DesignSpace,
                 environments=None, ga_config: Optional[GAConfig] = None,
                 checkpoint=None) -> None:
        from repro.explore.bilevel import BilevelExplorer
        from repro.explore.objectives import Objective

        # Reuse the scalar explorer's fitness path; its objective is
        # irrelevant here (we read Pareto points, not scores).
        self._bilevel = BilevelExplorer(
            network, space, Objective.lat_sp(),
            environments=environments, ga_config=ga_config,
            checkpoint=checkpoint,
        )
        self.ga_config = ga_config or GAConfig()

    def _fitness(self, genome: Genome) -> Tuple[float, float]:
        """(panel cm^2, sustained latency s); infinite when the genome
        is unmappable, infeasible or failed."""
        point = self._bilevel.compute_outcome(genome).point
        return point if point is not None else (math.inf, math.inf)

    def run(self) -> List[ParetoPoint]:
        """The (panel cm^2, sustained latency s) front; payloads are the
        lowered :class:`~repro.design.AuTDesign` objects."""
        return self.search().evaluated

    def search(self):
        """Run NSGA-II and package the outcome as a ``SearchResult``.

        The scalar slots hold a *representative* point — the front
        member with the smallest panel x latency product, i.e. the
        ``lat*sp`` sweet spot — fully priced per environment, while the
        whole front rides in ``evaluated``.  This is the shape campaign
        stores persist for ``objective: pareto`` runs.
        """
        from repro.explore.bilevel import SearchResult
        from repro.explore.ga import GAHistory

        algorithm = NSGA2(self._bilevel.space, self._fitness,
                          config=self.ga_config,
                          seeds=self._bilevel.space.seed_genomes())
        front = algorithm.run()
        lowered = [
            ParetoPoint(values=point.values,
                        payload=self._bilevel.lower_genome(point.payload))
            for point in front
        ]
        best = min(lowered,
                   key=lambda p: (p.values[0] * p.values[1], p.values))
        design = best.payload
        row, average = self._bilevel.evaluator.evaluate_row(design)
        return SearchResult(
            design=design,
            score=best.values[0] * best.values[1],
            average=average,
            metrics_by_env={env.name: metrics for env, metrics
                            in zip(self._bilevel.environments, row)},
            history=GAHistory(evaluations=algorithm.evaluations),
            evaluated=lowered,
        )
