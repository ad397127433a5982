"""Surrogate-guided bi-level search: price only the promising slice.

:class:`SurrogateGuidedExplorer` subclasses the bi-level explorer and
interposes on generation evaluation: each generation's fresh genomes
are featurized and ranked by a :class:`~repro.surrogate.model.
SurrogateModel`; only the top ``keep_fraction`` slice is priced by the
full (optionally batched) oracle path, while the rest receive
*estimated* fitness values constructed to sit strictly above every
oracle-priced score of that generation.  The estimates preserve the
surrogate's ordering — the GA can still breed from "second tier"
candidates — but can never win a tournament against an oracle-priced
candidate, an elite slot, or the reported optimum.

Guarantees, by construction:

* **Winners are oracle-priced.**  Estimated scores are strictly worse
  than every finite oracle score of their generation, so the GA's
  global best is always an oracle score; :meth:`_finalize_best`
  additionally re-prices the winner if it ever was estimated and falls
  back to the best oracle-priced candidate seen.  Pareto points
  (``explorer.evaluated``) only ever come from oracle pricing.
* **``keep_fraction=1.0`` is bit-identical to plain bi-level search.**
  The pruning evaluator delegates wholesale (to the inner batched
  evaluator or the exact serial loop), performs no featurization
  before the oracle runs, and consumes no extra RNG — pinned by
  ``tests/test_guided_search.py``.

The model refits periodically from the rows the run itself priced
(censored at infinity for absorbed failures), so a cold start needs no
campaign store — and a store-trained model
(:func:`repro.surrogate.dataset.fit_from_store`) skips the warmup.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.energy.environment import LightEnvironment
from repro.errors import ConfigurationError
from repro.explore.bilevel import BilevelExplorer
from repro.explore.ga import GAConfig, genome_key
from repro.explore.objectives import Objective
from repro.explore.space import DesignSpace, Genome
from repro.hardware.checkpoint import CheckpointModel
from repro.obs.state import OBS
from repro.surrogate.features import FeatureContext, Featurizer
from repro.surrogate.model import SurrogateModel
from repro.workloads.network import Network

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SurrogateConfig:
    """Knobs of the surrogate-guided search.

    ``keep_fraction`` is the oracle-priced share of each generation
    (1.0 = guide nothing, bit-identical to plain search); ``min_keep``
    floors the kept count so tiny populations never starve the oracle;
    ``warmup_generations`` are fully priced before pruning starts
    (they are also the model's first training data);
    ``explore_weight`` scales the distance-to-training-set exploration
    bonus during ranking; ``refit_every`` is the generation stride of
    in-run refits; ``min_train`` is the fewest finite examples worth
    fitting on.
    """

    keep_fraction: float = 0.3
    min_keep: int = 4
    warmup_generations: int = 1
    explore_weight: float = 0.5
    refit_every: int = 2
    min_train: int = 8
    kind: str = "ridge"
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.keep_fraction <= 1.0:
            raise ConfigurationError("keep_fraction must be in (0, 1]")
        if self.min_keep < 1:
            raise ConfigurationError("min_keep must be at least 1")
        if self.warmup_generations < 0:
            raise ConfigurationError("warmup_generations must be >= 0")
        if self.explore_weight < 0.0:
            raise ConfigurationError("explore_weight must be >= 0")
        if self.refit_every < 1:
            raise ConfigurationError("refit_every must be at least 1")
        if self.min_train < 2:
            raise ConfigurationError("min_train must be at least 2")
        SurrogateModel(self.kind)  # validates the kind


class _SurrogatePruningEvaluator:
    """The batch evaluator the guided explorer hands the GA.

    Wraps the explorer's regular evaluator (vectorized or the serial
    loop) and decides, per generation, which genomes reach it.
    """

    def __init__(self, explorer: "SurrogateGuidedExplorer", inner) -> None:
        self.explorer = explorer
        self.inner = inner
        self._generation = -1

    # -- the BatchEvaluator protocol ----------------------------------------

    def evaluate_many(self, genomes: List[Genome]) -> List[float]:
        self._generation += 1
        explorer = self.explorer
        config = explorer.surrogate_config
        if (config.keep_fraction >= 1.0
                or self._generation < config.warmup_generations
                or not explorer.model_ready()):
            scores = self._oracle(genomes)
            explorer.observe_oracle(genomes, scores)
            if config.keep_fraction < 1.0:
                explorer.maybe_refit(self._generation)
            return scores
        return self._evaluate_pruned(genomes)

    # -- internals -----------------------------------------------------------

    def _oracle(self, genomes: List[Genome]) -> List[float]:
        if not genomes:
            return []
        if self.inner is not None:
            return self.inner.evaluate_many(genomes)
        return [self.explorer.evaluate_genome(genome) for genome in genomes]

    def _evaluate_pruned(self, genomes: List[Genome]) -> List[float]:
        explorer = self.explorer
        config = explorer.surrogate_config
        order = explorer.rank_genomes(genomes)
        keep = max(config.min_keep,
                   math.ceil(config.keep_fraction * len(genomes)))
        kept_positions = sorted(order[:keep])  # original relative order
        pruned_positions = order[keep:]  # surrogate order, worst last
        kept = [genomes[i] for i in kept_positions]
        kept_scores = self._oracle(kept)
        explorer.observe_oracle(kept, kept_scores)

        scores: List[float] = [math.inf] * len(genomes)
        for position, score in zip(kept_positions, kept_scores):
            scores[position] = score
        finite = [s for s in kept_scores if math.isfinite(s)]
        if finite:
            # Estimates sit strictly above the generation's worst
            # oracle-priced score, spaced in surrogate rank order, so
            # pruned candidates stay breedable but can never outrank an
            # oracle-priced one.
            base = max(finite)
            spacing = max(abs(base) * 1e-6, 1e-9)
            for rank, position in enumerate(pruned_positions):
                scores[position] = base + spacing * (rank + 1)
        explorer.stats.surrogate_priced += len(kept)
        explorer.stats.surrogate_pruned += len(pruned_positions)
        if OBS.enabled:
            OBS.registry.counter("surrogate.priced").inc(len(kept))
            OBS.registry.counter("surrogate.pruned").inc(
                len(pruned_positions))
        explorer.maybe_refit(self._generation)
        return scores


class SurrogateGuidedExplorer(BilevelExplorer):
    """Bi-level search where a learned model triages each generation.

    Parameters beyond :class:`BilevelExplorer`'s:

    surrogate:
        The pruning/refit knobs (:class:`SurrogateConfig`).
    model:
        Optional pre-fitted :class:`~repro.surrogate.model.
        SurrogateModel` (e.g. from ``repro surrogate fit``).  A fitted
        model skips the in-run warmup: pruning starts at
        ``warmup_generations`` regardless, but with the store's
        knowledge instead of zero.
    """

    def __init__(self, network: Network, space: DesignSpace,
                 objective: Objective,
                 environments: Optional[Sequence[LightEnvironment]] = None,
                 ga_config: Optional[GAConfig] = None,
                 checkpoint: Optional[CheckpointModel] = None,
                 candidate_time_budget_s: Optional[float] = None,
                 surrogate: Optional[SurrogateConfig] = None,
                 model: Optional[SurrogateModel] = None) -> None:
        super().__init__(network, space, objective,
                         environments=environments, ga_config=ga_config,
                         checkpoint=checkpoint,
                         candidate_time_budget_s=candidate_time_budget_s)
        self.surrogate_config = surrogate or SurrogateConfig()
        self.model = model
        self.featurizer = Featurizer()
        self.feature_context = FeatureContext(
            network=self.network,
            environments=self.environments,
            objective=self.objective,
        )
        self._train_features: List = []
        self._train_labels: List[float] = []
        self._last_refit_generation = -1
        #: Every oracle-priced candidate of the current run, keyed by
        #: genome: the set reported winners must come from.
        self._oracle_scores: Dict[tuple, float] = {}
        self._best_oracle: Optional[Tuple[float, Genome]] = None

    # -- hooks into the base search ------------------------------------------

    def _reset_run_state(self) -> None:
        super()._reset_run_state()
        self._train_features = []
        self._train_labels = []
        self._last_refit_generation = -1
        self._oracle_scores = {}
        self._best_oracle = None

    def _build_batch_evaluator(self):
        return _SurrogatePruningEvaluator(self,
                                          super()._build_batch_evaluator())

    def _finalize_best(self, best_genome: Genome,
                       best_score: float) -> Tuple[Genome, float]:
        """Guarantee the reported winner was oracle-priced.

        The estimate construction already makes an estimated global
        best impossible; this closes the loop defensively — an
        estimated winner is re-priced, and the best oracle-priced
        candidate of the run wins any disagreement.
        """
        key = genome_key(best_genome)
        if key not in self._oracle_scores:
            logger.info("guided search: re-pricing estimated winner")
            best_score = self.evaluate_genome(best_genome)
            self.observe_oracle([best_genome], [best_score])
        else:
            best_score = self._oracle_scores[key]
        if self._best_oracle is not None and self._best_oracle[0] < best_score:
            best_score, best_genome = self._best_oracle
        return best_genome, best_score

    # -- surrogate plumbing (called by the pruning evaluator) ----------------

    def model_ready(self) -> bool:
        return self.model is not None and self.model.is_fitted

    def rank_genomes(self, genomes: List[Genome]) -> List[int]:
        """Candidate indices, most promising first."""
        features = self.featurizer.matrix_for_genomes(genomes,
                                                      self.feature_context)
        order = self.model.rank(features,
                                self.surrogate_config.explore_weight)
        return [int(index) for index in order]

    def observe_oracle(self, genomes: List[Genome],
                       scores: List[float]) -> None:
        """Fold oracle-priced candidates into the training buffer."""
        for genome, score in zip(genomes, scores):
            self._oracle_scores[genome_key(genome)] = score
            if (math.isfinite(score)
                    and (self._best_oracle is None
                         or score < self._best_oracle[0])):
                self._best_oracle = (score, dict(genome))
            self._train_features.append(
                self.featurizer.vector_for_genome(genome,
                                                  self.feature_context))
            self._train_labels.append(score)

    def maybe_refit(self, generation: int) -> None:
        """Refit from the run's own priced rows on the configured stride."""
        config = self.surrogate_config
        if generation + 1 < config.warmup_generations:
            return
        if (self.model_ready()
                and generation - self._last_refit_generation
                < config.refit_every):
            return
        finite = sum(1 for label in self._train_labels
                     if math.isfinite(label))
        if finite < config.min_train:
            return
        model = SurrogateModel(config.kind, seed=config.seed)
        try:
            model.fit(np.stack(self._train_features),
                      np.asarray(self._train_labels, dtype=np.float64))
        except ConfigurationError as error:
            logger.warning("surrogate refit failed, keeping previous "
                           "model: %s", error)
            return
        self.model = model
        self._last_refit_generation = generation
        self.stats.surrogate_refits += 1
        if OBS.enabled:
            OBS.registry.counter("surrogate.refits").inc()


__all__ = ["SurrogateConfig", "SurrogateGuidedExplorer"]
