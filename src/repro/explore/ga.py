"""Genetic-algorithm engine — the HW-level optimizer's search core.

The paper implements its explorer "based on the open-source library
Optuna and utilize[s] a genetic algorithm to generate potential
architecture configurations".  Optuna is unavailable offline, so this is
a self-contained GA with the standard ingredients: tournament selection,
uniform crossover, per-gene gaussian mutation, and elitism.

The engine is generic over genomes: it only needs a
:class:`~repro.explore.space.DesignSpace` (sample / mutate / crossover)
and a fitness callable (lower is better).
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Protocol, Tuple

from repro.errors import ChrysalisError, ConfigurationError, SearchError
from repro.explore.failures import FailureLog, describe_genome
from repro.explore.space import DesignSpace, Genome
from repro.obs.state import span

Fitness = Callable[[Genome], float]

logger = logging.getLogger(__name__)


def genome_key(genome: Genome) -> tuple:
    """Canonical hashable key of a genome (order-insensitive).

    Floats are rounded to 12 significant decimals so that values which
    only differ by representation noise share a cache entry.  Shared by
    the GA's fitness cache and the bi-level explorer's design cache.
    """
    return tuple(sorted((k, _hashable(v)) for k, v in genome.items()))


@dataclass(frozen=True)
class GAConfig:
    """Hyper-parameters of the genetic algorithm.

    Invalid hyper-parameters raise :class:`ConfigurationError` (they
    describe a malformed *configuration*, not a failed *search*); until
    v1.0 they raised :class:`SearchError` — both remain catchable as
    :class:`~repro.errors.ChrysalisError`.
    """

    population_size: int = 16
    generations: int = 10
    tournament_size: int = 3
    elite_count: int = 2
    crossover_rate: float = 0.7
    mutation_rate: float = 0.4
    mutation_scale: float = 0.3
    seed: int = 0
    #: Vectorized in-process evaluation: each generation's uncached
    #: genomes are evaluated together
    #: (:class:`repro.explore.batch_eval.VectorizedGenomeEvaluator`),
    #: bit-identical to the serial path.
    batched: bool = False

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ConfigurationError("population_size must be at least 2")
        if self.generations < 1:
            raise ConfigurationError("generations must be at least 1")
        if not 1 <= self.tournament_size <= self.population_size:
            raise ConfigurationError(
                "tournament_size outside [1, population_size]")
        if not 0 <= self.elite_count < self.population_size:
            raise ConfigurationError(
                "elite_count outside [0, population_size)")


class BatchEvaluator(Protocol):
    """Evaluates a batch of genomes; owns its own error absorption.

    ``evaluate_many`` must return one lower-is-better fitness per
    genome, in order (``math.inf`` for penalized candidates).  See
    :class:`repro.explore.batch_eval.VectorizedGenomeEvaluator`.
    """

    def evaluate_many(self, genomes: List[Genome]) -> List[float]:
        ...


@dataclass
class EvaluatedGenome:
    genome: Genome
    fitness: float


@dataclass
class GAHistory:
    """Per-generation best/mean fitness, for convergence plots."""

    best: List[float] = field(default_factory=list)
    mean: List[float] = field(default_factory=list)
    evaluations: int = 0


class GeneticAlgorithm:
    """Minimises ``fitness`` over ``space``."""

    def __init__(self, space: DesignSpace, fitness: Fitness,
                 config: Optional[GAConfig] = None,
                 seeds: Optional[List[Genome]] = None,
                 failure_log: Optional[FailureLog] = None,
                 batch_evaluator: Optional["BatchEvaluator"] = None) -> None:
        self.space = space
        self.fitness = fitness
        self.config = config or GAConfig()
        self.seeds = list(seeds) if seeds else []
        self.rng = random.Random(self.config.seed)
        self.history = GAHistory()
        #: Candidate failures absorbed during this run; pass a shared
        #: log to aggregate across search layers (the bi-level explorer
        #: does) or read this run-local one afterwards.
        self.failures = failure_log if failure_log is not None else FailureLog()
        #: Optional batch evaluator (e.g. vectorized sweeps).  When given,
        #: each generation's *uncached* genomes are handed over in one
        #: call; the evaluator owns error absorption for that path.
        self.batch_evaluator = batch_evaluator
        self._cache: dict = {}

    # -- public API -----------------------------------------------------------

    def run(self) -> Tuple[Genome, float]:
        """Returns (best genome, best fitness).

        Raises :class:`SearchError` if every evaluated genome scored
        infinity (nothing in the space is feasible).
        """
        with span("ga.run"):
            return self._run()

    def _run(self) -> Tuple[Genome, float]:
        cfg = self.config
        initial = [dict(seed) for seed in self.seeds[:cfg.population_size]]
        while len(initial) < cfg.population_size:
            initial.append(self.space.sample(self.rng))
        with span("ga.generation", gen=0):
            population = self._evaluate_batch(initial)
        best = min(population, key=lambda e: e.fitness)
        self._record(population)

        for gen in range(1, cfg.generations):
            with span("ga.generation", gen=gen):
                population = self._next_generation(population)
            generation_best = min(population, key=lambda e: e.fitness)
            if generation_best.fitness < best.fitness:
                best = generation_best
            self._record(population)

        if math.isinf(best.fitness):
            raise SearchError(
                "no feasible genome found: every candidate scored infinity"
            )
        return best.genome, best.fitness

    # -- internals ----------------------------------------------------------------

    def _evaluate(self, genome: Genome) -> EvaluatedGenome:
        return self._evaluate_batch([genome])[0]

    def _evaluate_batch(self, genomes: List[Genome]) -> List[EvaluatedGenome]:
        """Evaluate one generation's genomes, deduplicated and cached.

        Only genomes whose key is neither cached nor repeated earlier in
        the batch reach the fitness function — exactly the set the
        serial one-at-a-time path would have evaluated, so counters and
        failure records are identical in both modes.
        """
        keys = [genome_key(genome) for genome in genomes]
        fresh: List[Genome] = []
        fresh_keys: List[tuple] = []
        seen = set()
        for genome, key in zip(genomes, keys):
            if key in self._cache or key in seen:
                continue
            seen.add(key)
            fresh.append(genome)
            fresh_keys.append(key)
        if fresh:
            scores = self._evaluate_fresh(fresh)
            for key, score in zip(fresh_keys, scores):
                self._cache[key] = score
                self.history.evaluations += 1
        return [EvaluatedGenome(genome, self._cache[key])
                for genome, key in zip(genomes, keys)]

    def _evaluate_fresh(self, genomes: List[Genome]) -> List[float]:
        if self.batch_evaluator is not None:
            return self.batch_evaluator.evaluate_many(genomes)
        return [self._evaluate_one(genome) for genome in genomes]

    def _evaluate_one(self, genome: Genome) -> float:
        try:
            return self.fitness(genome)
        except ChrysalisError as error:
            # One broken candidate must not kill the whole search:
            # absorb, penalize, and keep an auditable record.
            self.failures.record(
                candidate=describe_genome(genome), error=error,
                penalty=math.inf, stage="hw-fitness",
            )
            logger.warning("absorbed %s for candidate %s: %s",
                           type(error).__name__,
                           describe_genome(genome), error)
            return math.inf

    def _select(self, population: List[EvaluatedGenome]) -> Genome:
        contenders = self.rng.sample(population, self.config.tournament_size)
        return min(contenders, key=lambda e: e.fitness).genome

    def _next_generation(
        self, population: List[EvaluatedGenome]
    ) -> List[EvaluatedGenome]:
        cfg = self.config
        ranked = sorted(population, key=lambda e: e.fitness)
        next_pop = list(ranked[:cfg.elite_count])
        # Breed the full generation first (the RNG stream only depends
        # on the parent population), then evaluate it as one batch so a
        # batch evaluator can price the uncached genomes together.
        children: List[Genome] = []
        while len(next_pop) + len(children) < cfg.population_size:
            parent_a = self._select(population)
            if self.rng.random() < cfg.crossover_rate:
                parent_b = self._select(population)
                child = self.space.crossover(parent_a, parent_b, self.rng)
            else:
                child = dict(parent_a)
            child = self.space.mutate(child, self.rng,
                                      rate=cfg.mutation_rate,
                                      scale=cfg.mutation_scale)
            children.append(child)
        next_pop.extend(self._evaluate_batch(children))
        return next_pop

    def _record(self, population: List[EvaluatedGenome]) -> None:
        finite = [e.fitness for e in population if math.isfinite(e.fitness)]
        self.history.best.append(min((e.fitness for e in population),
                                     default=math.inf))
        self.history.mean.append(
            sum(finite) / len(finite) if finite else math.inf
        )
        logger.debug(
            "generation %d: best=%.6g mean=%.6g evaluations=%d",
            len(self.history.best), self.history.best[-1],
            self.history.mean[-1], self.history.evaluations,
        )


def _hashable(value: object) -> object:
    """Genome values are floats/ints/enums; round floats for cache keys."""
    if isinstance(value, float):
        return round(value, 12)
    return value
