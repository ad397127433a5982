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
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dataflow.cost_model import layer_cost_cache_stats
from repro.dataflow.mapping import LayerMapping
from repro.design import AuTDesign
from repro.energy.environment import LightEnvironment
from repro.errors import (
    ChrysalisError,
    DesignSpaceError,
    EvaluationTimeout,
    InfeasibleDesignError,
    MappingError,
    SearchError,
    SimulationError,
)
from repro.explore.failures import FailureLog, FailureRecord, describe_genome
from repro.explore.ga import GAConfig, GAHistory, GeneticAlgorithm, genome_key
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

#: Error families absorbed per candidate: anything a machine-generated
#: genome can plausibly trip over.  Configuration mistakes made by the
#: *caller* (bad objective, bad GA config) still raise.
_CANDIDATE_ERRORS = (
    MappingError,
    SimulationError,
    InfeasibleDesignError,
    DesignSpaceError,
    EvaluationTimeout,
)


@dataclass
class SearchResult:
    """Outcome of one bi-level search."""

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
        self.evaluator = ChrysalisEvaluator(network, self.environments,
                                            checkpoint=checkpoint)
        self.evaluated: List[ParetoPoint] = []
        self.failures = FailureLog()
        #: Observability of the most recent (or in-flight) run.
        self.stats = SearchStats()
        #: Lowered designs keyed by :func:`genome_key` — lets ``run()``
        #: reuse the winner instead of re-running the SW-level search
        #: (the pre-v1.1 cache was keyed by ``id(design.mappings)`` and
        #: never read).
        self._design_cache: Dict[tuple, AuTDesign] = {}
        # Whole SW-level search results live in the *process-wide*
        # mapper memo (see repro.explore.mapper_search._MapperMemo),
        # probed through self.mapper.  PR 2 kept an equivalent dict per
        # explorer, which is why the bench never saw a mapper hit: every
        # run builds a fresh explorer, so the memo died with it.
        self._mapper_hits = 0
        self._mapper_misses = 0

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

        Every side effect on the search (failure records, Pareto points,
        counter deltas, the design cache) is returned as data for
        :meth:`apply_outcome` to apply in deterministic order.
        """
        with span("search.genome"):
            return self._compute_outcome(genome)

    def _compute_outcome(self, genome: Genome) -> GenomeOutcome:
        started = time.monotonic()
        layer_hits0, layer_misses0 = layer_cost_cache_stats()
        mapper_hits0, mapper_misses0 = self._mapper_hits, self._mapper_misses
        score = math.inf
        design: Optional[AuTDesign] = None
        point: Optional[Tuple[float, float]] = None
        failure: Optional[FailureRecord] = None
        try:
            design = self.lower_genome(genome)
            if design is not None:
                metrics = self.evaluator.evaluate_average(design)
        except _CANDIDATE_ERRORS as error:
            failure = self._failure(genome, error, stage="sw-lowering")
            design = None
        except ChrysalisError as error:
            # Non-candidate library errors were historically absorbed by
            # the GA layer; absorbing them here keeps the serial and
            # batched paths byte-identical.
            failure = self._failure(genome, error, stage="hw-fitness")
            design = None
        else:
            if design is not None:
                elapsed = time.monotonic() - started
                if (self.candidate_time_budget_s is not None
                        and elapsed > self.candidate_time_budget_s):
                    timeout = EvaluationTimeout(
                        f"candidate evaluation exceeded its "
                        f"{self.candidate_time_budget_s:.3g} s budget"
                    )
                    failure = self._failure(genome, timeout,
                                            stage="hw-fitness")
                    design = None
                else:
                    score = self.objective.score(design, metrics)
                    if (metrics.feasible
                            and math.isfinite(metrics.e2e_latency)):
                        latency = (metrics.sustained_period
                                   or metrics.e2e_latency)
                        point = (design.energy.panel_area_cm2, latency)
        layer_hits1, layer_misses1 = layer_cost_cache_stats()
        return GenomeOutcome(
            score=score,
            design=design if math.isfinite(score) else None,
            point=point,
            failure=failure,
            eval_seconds=time.monotonic() - started,
            mapper_hits=self._mapper_hits - mapper_hits0,
            mapper_misses=self._mapper_misses - mapper_misses0,
            layer_cost_hits=layer_hits1 - layer_hits0,
            layer_cost_misses=layer_misses1 - layer_misses0,
        )

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
        if outcome.design is not None:
            self._design_cache[genome_key(genome)] = outcome.design
        if outcome.point is not None:
            self.evaluated.append(ParetoPoint(
                values=outcome.point, payload=outcome.design,
            ))
        return outcome.score

    def _failure(self, genome: Genome, error: BaseException,
                 stage: str) -> FailureRecord:
        return FailureRecord(
            candidate=describe_genome(genome),
            family=type(error).__name__,
            message=str(error),
            penalty=math.inf,
            stage=stage,
        )

    def lower_genome(self, genome: Genome) -> Optional[AuTDesign]:
        """Run the SW-level search for a genome; ``None`` if unmappable.

        Memoized on the genome's canonical ``(energy, inference)``
        projection: two genomes that lower to the same hardware reuse
        the whole mapper result.
        """
        seed_mappings = tuple(
            LayerMapping.default(layer) for layer in self.network
        )
        seeded = self.space.to_design(genome, seed_mappings)
        key = (seeded.energy, seeded.inference)
        hit, mappings = self.mapper.memo_probe(key)
        if hit:
            self._mapper_hits += 1
        else:
            self._mapper_misses += 1
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

    def _build_batch_evaluator(self):
        """The batch evaluator this run hands the GA (``None`` = serial).

        Subclasses override this to interpose on generation evaluation
        (the surrogate-guided explorer wraps the evaluator returned
        here); the default is vectorized sweeps when ``batched`` is set,
        else the serial loop.
        """
        if self.ga_config.batched:
            # Imported lazily: batch_eval.py imports this module.
            from repro.explore.batch_eval import VectorizedGenomeEvaluator

            return VectorizedGenomeEvaluator(self)
        return None

    def _finalize_best(self, best_genome: Genome,
                       best_score: float) -> Tuple[Genome, float]:
        """Last chance to adjust the GA's winner before final pricing.

        The base explorer prices every candidate with the oracle, so the
        GA's answer already is the answer.  Subclasses that score some
        candidates with estimates override this to guarantee the
        *reported* winner was oracle-priced.
        """
        return best_genome, best_score

    def _run_search(self) -> SearchResult:
        self._reset_run_state()
        run_started = time.monotonic()
        batch_evaluator = self._build_batch_evaluator()
        algorithm = GeneticAlgorithm(self.space, self.evaluate_genome,
                                     self.ga_config,
                                     seeds=self._seed_genomes(),
                                     failure_log=self.failures,
                                     batch_evaluator=batch_evaluator)
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
        best_genome, best_score = self._finalize_best(best_genome, best_score)
        if not self.objective.is_compliant_score(best_score):
            raise SearchError(
                f"bi-level search found no design satisfying the "
                f"{self.objective.kind.value!r} constraint for "
                f"{self.network.name!r} (best score {best_score:.3g} is in "
                "the penalty band)"
            )
        design = self._design_cache.get(genome_key(best_genome))
        if design is not None:
            self.stats.design_cache_hits += 1
        else:
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
            metrics_by_env = {
                env.name: self.evaluator.evaluate(design, env)
                for env in self.environments
            }
            average = self.evaluator.evaluate_average(design)
        self.stats.search_seconds = time.monotonic() - run_started
        return SearchResult(
            design=design,
            score=best_score,
            average=average,
            metrics_by_env=metrics_by_env,
            history=algorithm.history,
            evaluated=self.evaluated,
            failures=self.failures,
            stats=self.stats,
        )
