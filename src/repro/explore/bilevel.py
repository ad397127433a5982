"""Bi-level HW/SW search — the CHRYSALIS Explorer of §III-C.

The HW-level optimizer (a genetic algorithm by default) proposes a
hardware genome; for each proposal the SW-level optimizer
(:class:`~repro.explore.mapper_search.MappingOptimizer`) finds the best
per-layer mappings achievable on that hardware; the resulting design is
priced by the evaluator under the paper's two-environment protocol and
scored by the chosen objective.  The HW-level optimizer then continues
from the returned score.

Every evaluated point is retained as a :class:`ParetoPoint` of
(panel area, latency) so the Fig. 6 tradeoff scatter can be regenerated.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.dataflow.mapping import LayerMapping
from repro.design import AuTDesign
from repro.energy.environment import LightEnvironment
from repro.errors import SearchError
from repro.explore.batch_eval import VectorizedGenomeEvaluator
from repro.explore.failures import FailureLog
from repro.explore.ga import GAConfig, GAHistory, GeneticAlgorithm
from repro.explore.mapper_search import MappingOptimizer
from repro.explore.objectives import Objective
from repro.explore.pareto import ParetoPoint
from repro.explore.space import DesignSpace, Genome
from repro.explore.stats import GenomeOutcome, SearchStats
from repro.hardware.checkpoint import CheckpointModel
from repro.obs.state import span
from repro.sim.evaluator import ChrysalisEvaluator
from repro.sim.metrics import InferenceMetrics
from repro.workloads.network import Network

logger = logging.getLogger(__name__)


@dataclass
class SearchResult:
    """Outcome of one bi-level search.

    ``average`` is the paper's two-environment verdict on ``design``
    and ``metrics_by_env`` the per-environment metrics it averages,
    both from one pricing of each environment.  ``metrics_by_env`` is
    keyed by environment name, the last of several environments that
    share a name winning, like ``EvaluationReport.by_environment``.
    """

    design: AuTDesign
    score: float
    average: InferenceMetrics
    metrics_by_env: Dict[str, InferenceMetrics]
    history: GAHistory
    evaluated: List[ParetoPoint] = field(default_factory=list)
    #: Every candidate failure the search absorbed instead of crashing.
    failures: FailureLog = field(default_factory=FailureLog)
    #: Throughput / cache observability of the run.
    stats: SearchStats = field(default_factory=SearchStats)

    def summary(self) -> str:
        lines = [
            f"best design : {self.design.describe()}",
            f"score       : {self.score:.4g}",
            f"avg latency : {self.average.e2e_latency:.4g} s",
            f"avg eff.    : {self.average.system_efficiency:.3f}",
            f"evaluations : {self.history.evaluations}",
            f"absorbed    : {len(self.failures)} candidate failure(s)",
        ]
        lines.append(self.stats.render())
        return "\n".join(lines)


class BilevelExplorer:
    """Searches a design space for the best AuT architecture."""

    def __init__(self, network: Network, space: DesignSpace,
                 objective: Objective,
                 environments: Optional[Sequence[LightEnvironment]] = None,
                 ga_config: Optional[GAConfig] = None,
                 checkpoint: Optional[CheckpointModel] = None,
                 candidate_time_budget_s: Optional[float] = None) -> None:
        self.network = network
        self.space = space
        self.objective = objective
        self.environments = tuple(
            environments
            if environments is not None
            else LightEnvironment.paper_environments()
        )
        self.ga_config = ga_config or GAConfig()
        self.checkpoint = checkpoint
        #: Wall-clock budget of one candidate evaluation; an over-budget
        #: candidate is penalized as an :class:`EvaluationTimeout`.
        self.candidate_time_budget_s = candidate_time_budget_s
        self.mapper = MappingOptimizer(network, self.environments,
                                       checkpoint=checkpoint)
        #: Every genome's ``(energy, inference)`` projection is read off
        #: a design built with these mappings.
        self._seed_mappings = tuple(
            LayerMapping.default(layer) for layer in network
        )
        self.evaluator = ChrysalisEvaluator(network, self.environments,
                                            checkpoint=checkpoint)
        self.evaluated: List[ParetoPoint] = []
        self.failures = FailureLog()
        #: Observability of the most recent (or in-flight) run.
        self.stats = SearchStats()

    # -- fitness ---------------------------------------------------------------

    def evaluate_genome(self, genome: Genome) -> float:
        """Full bi-level fitness of one HW genome (lower is better).

        Candidate-level failures (unmappable tilings, impossible
        simulations, exhausted step budgets, ...) never propagate: they
        become an infinite-fitness penalty plus a structured record in
        :attr:`failures`, so one broken genome cannot abort a long run.
        """
        return self.apply_outcome(genome, self.compute_outcome(genome))

    def compute_outcome(self, genome: Genome) -> GenomeOutcome:
        """Evaluate one genome without touching shared search state.

        The genome is a one-genome generation of the generation
        evaluator (:mod:`repro.explore.batch_eval`), so it is lowered,
        priced and scored as in a batched search.  Every side effect on
        the search (failure records, Pareto points, counter deltas) is
        returned as data for :meth:`apply_outcome` to apply in
        deterministic order.
        """
        with span("search.genome"):
            outcomes, _ = VectorizedGenomeEvaluator(self)._compute_outcomes(
                [genome])
            return outcomes[0]

    def apply_outcome(self, genome: Genome, outcome: GenomeOutcome) -> float:
        """Fold one evaluation's side effects back into the search."""
        self.stats.hw_evaluations += 1
        self.stats.eval_seconds += outcome.eval_seconds
        self.stats.mapper_hits += outcome.mapper_hits
        self.stats.mapper_misses += outcome.mapper_misses
        self.stats.layer_cost_hits += outcome.layer_cost_hits
        self.stats.layer_cost_misses += outcome.layer_cost_misses
        if outcome.failure is not None:
            self.failures.records.append(outcome.failure)
            logger.warning("absorbed %s for candidate %s: %s",
                           outcome.failure.family, outcome.failure.candidate,
                           outcome.failure.message)
        if outcome.point is not None:
            self.evaluated.append(ParetoPoint(
                values=outcome.point, payload=outcome.design,
            ))
        return outcome.score

    def lower_genome(self, genome: Genome) -> Optional[AuTDesign]:
        """Run the SW-level search for a genome; ``None`` if unmappable.

        Memoized on the genome's canonical ``(energy, inference)``
        projection: two genomes that lower to the same hardware reuse
        the whole mapper result.
        """
        seeded = self.space.to_design(genome, self._seed_mappings)
        key = (seeded.energy, seeded.inference)
        hit, mappings = self.mapper.memo_probe(key)
        if not hit:
            mappings = self.mapper.optimize(seeded.energy, seeded.inference)
            self.mapper.memo_fill(key, mappings)
        if mappings is None:
            return None
        return self.space.to_design(genome, mappings)

    # -- search ------------------------------------------------------------------

    def _seed_genomes(self) -> List[Genome]:
        """Space anchors plus objective-aware variants.

        Under a panel-size cap the best designs sit at the cap (a bigger
        panel is never slower), so seed copies pinned there.
        """
        seeds = self.space.seed_genomes()
        cap = self.objective.sp_constraint_cm2
        if cap is not None and "panel_area_cm2" in self.space.names:
            spec = self.space.spec("panel_area_cm2")
            pinned = min(max(cap, spec.low), spec.high)
            seeds += [dict(seed, panel_area_cm2=pinned)
                      for seed in seeds[:2]]
        return seeds

    def _reset_run_state(self) -> None:
        """Fresh per-run accumulators (results, failures, stats).

        A reused explorer must not leak one run's Pareto points or
        failure records into the next ``run()``'s :class:`SearchResult`.
        The memoization caches survive on purpose: they are keyed by
        value and only ever return what a cold evaluation would.
        """
        self.evaluated = []
        self.failures = FailureLog()
        self.stats = SearchStats()

    def run(self) -> SearchResult:
        with span("search.run", network=self.network.name,
                  objective=self.objective.kind.value):
            return self._run_search()

    def _run_search(self) -> SearchResult:
        self._reset_run_state()
        run_started = time.monotonic()
        algorithm = GeneticAlgorithm(
            self.space, self.evaluate_genome, self.ga_config,
            seeds=self._seed_genomes(), failure_log=self.failures,
            batch_evaluator=(VectorizedGenomeEvaluator(self)
                             if self.ga_config.batched else None))
        try:
            best_genome, best_score = algorithm.run()
        except SearchError:
            detail = ""
            if self.failures:
                families = ", ".join(
                    f"{family} x{count}"
                    for family, count in self.failures.by_family().items())
                detail = (f" ({len(self.failures)} candidate failure(s) "
                          f"absorbed: {families})")
            raise SearchError(
                f"bi-level search found no feasible design for "
                f"{self.network.name!r} under "
                f"{self.objective.kind.value!r}{detail}"
            ) from None
        if not self.objective.is_compliant_score(best_score):
            raise SearchError(
                f"bi-level search found no design satisfying the "
                f"{self.objective.kind.value!r} constraint for "
                f"{self.network.name!r} (best score {best_score:.3g} is in "
                "the penalty band)"
            )
        # The winner was evaluated during the search, so this lowering
        # is a mapper-memo hit.
        design = self.lower_genome(best_genome)
        if design is None:
            raise SearchError("winning genome failed to re-lower")
        logger.info(
            "bi-level search for %s/%s: best score %.6g after %d HW "
            "evaluations (%s)",
            self.network.name, self.objective.kind.value, best_score,
            algorithm.history.evaluations, design.describe(),
        )
        with span("search.final_pricing"):
            row, average = self.evaluator.evaluate_row(design)
        self.stats.search_seconds = time.monotonic() - run_started
        return SearchResult(
            design=design,
            score=best_score,
            average=average,
            metrics_by_env={env.name: metrics for env, metrics
                            in zip(self.environments, row)},
            history=algorithm.history,
            evaluated=self.evaluated,
            failures=self.failures,
            stats=self.stats,
        )
