"""Vectorized in-process evaluation of GA generations.

:class:`VectorizedGenomeEvaluator` plugs into
:class:`~repro.explore.ga.GeneticAlgorithm` as its ``batch_evaluator``
(``GAConfig.batched``) and evaluates each generation's uncached genomes
together instead of one candidate at a time:

* genomes are grouped by their :class:`InferenceDesign` projection, so
  hardware is built once per distinct accelerator configuration;
* the SW-level mapping search runs once per group:
  :meth:`~repro.explore.mapper_search.MappingOptimizer.scan` walks the
  group's energy designs through each ladder together, the same scan
  the serial path runs for one design, with the same priced rungs;
* whole-design pricing goes through
  :class:`~repro.sim.analytical.BatchAnalyticalModel`, one call per
  environment for the entire generation, followed by the paper's
  first-infeasible-environment averaging protocol per genome.

Scores, lowered designs, Pareto points, failure records and mapper
hit/miss accounting are exactly what the serial path produces for the
same genomes.  The scalar path stays the fallback: any
:class:`~repro.errors.ChrysalisError` escaping the vectorized machinery
drops the affected genomes back to ``BilevelExplorer.compute_outcome``
(counted in ``SearchStats.scalar_fallbacks``).

Both paths run the explorer's mapper, so layer-cost cache misses are
the serial mode's.  Hits can differ: whole-design pricing probes every
design in every environment, where the serial path stops at a design's
first infeasible environment.
"""

from __future__ import annotations

import logging
import math
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.dataflow.cost_model import layer_cost_cache_stats
from repro.dataflow.mapping import LayerMapping
from repro.errors import ChrysalisError, EvaluationTimeout
from repro.explore.bilevel import _CANDIDATE_ERRORS
from repro.explore.mapper_search import mapper_memo_enabled
from repro.explore.space import Genome
from repro.explore.stats import GenomeOutcome
from repro.obs.state import span
from repro.sim.analytical import BatchAnalyticalModel
from repro.sim.evaluator import _average_metrics
from repro.sim.metrics import InferenceMetrics

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.design import AuTDesign, InferenceDesign
    from repro.explore.bilevel import BilevelExplorer

logger = logging.getLogger(__name__)


class VectorizedGenomeEvaluator:
    """Evaluates GA generations together; same results as the serial path.

    Satisfies the :class:`~repro.explore.ga.BatchEvaluator` protocol.
    In-process: the shared layer-cost cache and mapper memo are used
    directly.
    """

    def __init__(self, explorer: "BilevelExplorer") -> None:
        self.explorer = explorer
        self.network = explorer.network
        self.environments = explorer.environments
        self._seed_mappings = tuple(
            LayerMapping.default(layer) for layer in self.network
        )

    # -- BatchEvaluator protocol ---------------------------------------------

    def evaluate_many(self, genomes: List[Genome]) -> List[float]:
        """Fitnesses of ``genomes``, side effects replayed in order."""
        if not genomes:
            return []
        with span("search.batch", genomes=len(genomes)):
            outcomes = self._compute_outcomes(genomes)
        return [self.explorer.apply_outcome(genome, outcome)
                for genome, outcome in zip(genomes, outcomes)]

    # -- one generation ----------------------------------------------------------

    def _compute_outcomes(self, genomes: List[Genome]) -> List[GenomeOutcome]:
        explorer = self.explorer
        started = time.monotonic()
        layer_hits0, layer_misses0 = layer_cost_cache_stats()
        n = len(genomes)
        outcomes: List[Optional[GenomeOutcome]] = [None] * n
        fallback: List[int] = []

        # 1. Project every genome to its (energy, inference) key.  The
        # same errors the scalar path absorbs per candidate are absorbed
        # here with the same stage labels.
        seeded: List[Optional["AuTDesign"]] = [None] * n
        keys: List[Optional[tuple]] = [None] * n
        for i, genome in enumerate(genomes):
            try:
                design = explorer.space.to_design(genome, self._seed_mappings)
            except _CANDIDATE_ERRORS as error:
                outcomes[i] = GenomeOutcome(
                    score=math.inf,
                    failure=explorer._failure(genome, error,
                                              stage="sw-lowering"))
                continue
            except ChrysalisError as error:
                outcomes[i] = GenomeOutcome(
                    score=math.inf,
                    failure=explorer._failure(genome, error,
                                              stage="hw-fitness"))
                continue
            seeded[i] = design
            keys[i] = (design.energy, design.inference)

        # 2. Group by hardware and resolve mappings (memo probe + one
        # shared mapper scan per group of unseen projections).
        groups: Dict[object, List[int]] = {}
        for i in range(n):
            if seeded[i] is not None:
                groups.setdefault(seeded[i].inference, []).append(i)
        mappings_by_index: Dict[int, Optional[Tuple[LayerMapping, ...]]] = {}
        probe_hits: Dict[int, bool] = {}
        for inference, indices in groups.items():
            try:
                self._resolve_group(inference, indices, keys,
                                    mappings_by_index, probe_hits)
            except ChrysalisError as error:
                logger.warning(
                    "batched mapper sweep failed (%s: %s); falling back to "
                    "scalar evaluation for %d genome(s)",
                    type(error).__name__, error, len(indices))
                for i in indices:
                    probe_hits.pop(i, None)
                    mappings_by_index.pop(i, None)
                    fallback.append(i)

        # 3. Lower the mappable genomes and price them — one
        # BatchAnalyticalModel call per environment for the generation.
        with_design: List[int] = []
        designs: Dict[int, "AuTDesign"] = {}
        for i in sorted(mappings_by_index):
            mappings = mappings_by_index[i]
            if mappings is None:
                continue
            try:
                designs[i] = explorer.space.to_design(genomes[i], mappings)
            except _CANDIDATE_ERRORS as error:
                outcomes[i] = GenomeOutcome(
                    score=math.inf,
                    failure=explorer._failure(genomes[i], error,
                                              stage="sw-lowering"))
                mappings_by_index.pop(i)
                continue
            except ChrysalisError as error:
                outcomes[i] = GenomeOutcome(
                    score=math.inf,
                    failure=explorer._failure(genomes[i], error,
                                              stage="hw-fitness"))
                mappings_by_index.pop(i)
                continue
            with_design.append(i)
        metrics_by_env: List[List[InferenceMetrics]] = []
        if with_design:
            design_list = [designs[i] for i in with_design]
            try:
                for environment in self.environments:
                    model = BatchAnalyticalModel(self.network, environment,
                                                 explorer.checkpoint)
                    metrics_by_env.append(model.evaluate_many(design_list))
            except ChrysalisError as error:
                logger.warning(
                    "batched pricing failed (%s: %s); falling back to scalar "
                    "evaluation for %d genome(s)",
                    type(error).__name__, error, len(with_design))
                for i in with_design:
                    probe_hits.pop(i, None)
                    mappings_by_index.pop(i, None)
                    fallback.append(i)
                with_design = []
                metrics_by_env = []

        # 4. Assemble outcomes: the first-infeasible-environment
        # protocol, objective scoring, Pareto points and the per-genome
        # time-budget check, mirroring BilevelExplorer._compute_outcome.
        vector_count = n - len(fallback)
        share = ((time.monotonic() - started) / vector_count
                 if vector_count else 0.0)
        budget = explorer.candidate_time_budget_s
        for position, i in enumerate(with_design):
            design: Optional["AuTDesign"] = designs[i]
            score = math.inf
            point: Optional[Tuple[float, float]] = None
            failure = None
            if budget is not None and share > budget:
                timeout = EvaluationTimeout(
                    f"candidate evaluation exceeded its "
                    f"{budget:.3g} s budget"
                )
                failure = explorer._failure(genomes[i], timeout,
                                            stage="hw-fitness")
                design = None
            else:
                collected: List[InferenceMetrics] = []
                final: Optional[InferenceMetrics] = None
                for env_metrics in metrics_by_env:
                    metrics = env_metrics[position]
                    if not metrics.feasible:
                        final = metrics
                        break
                    collected.append(metrics)
                if final is None:
                    final = _average_metrics(collected)
                score = explorer.objective.score(design, final)
                if final.feasible and math.isfinite(final.e2e_latency):
                    latency = final.sustained_period or final.e2e_latency
                    point = (design.energy.panel_area_cm2, latency)
            outcomes[i] = GenomeOutcome(
                score=score,
                design=design if math.isfinite(score) else None,
                point=point,
                failure=failure,
            )
        for i, mappings in mappings_by_index.items():
            if mappings is None and outcomes[i] is None:
                # Unmappable projection: infinite score, no failure
                # record — exactly what lower_genome() returning None
                # produces on the scalar path.
                outcomes[i] = GenomeOutcome(score=math.inf)

        # 5. Per-genome bookkeeping.  Mapper counters replay the scalar
        # accounting probe-for-probe; the generation's layer-cost cache
        # activity (mapper scan + final pricing) is attributed to the
        # first vectorized outcome — apply_outcome() only ever sums
        # these deltas, so totals are what matters.
        layer_hits1, layer_misses1 = layer_cost_cache_stats()
        layer_delta: Optional[Tuple[int, int]] = (
            layer_hits1 - layer_hits0, layer_misses1 - layer_misses0)
        for i in range(n):
            outcome = outcomes[i]
            if outcome is None:
                continue
            outcome.eval_seconds = share
            if i in probe_hits:
                if probe_hits[i]:
                    outcome.mapper_hits = 1
                else:
                    outcome.mapper_misses = 1
            if layer_delta is not None:
                outcome.layer_cost_hits, outcome.layer_cost_misses = (
                    layer_delta)
                layer_delta = None

        # 6. Scalar oracle fallback for anything the sweep could not
        # price; compute_outcome re-does its own accounting from scratch.
        for i in fallback:
            outcomes[i] = explorer.compute_outcome(genomes[i])
        explorer.stats.batched_sweeps += 1
        explorer.stats.batched_genomes += vector_count
        explorer.stats.scalar_fallbacks += len(fallback)
        assert all(outcome is not None for outcome in outcomes)
        return outcomes  # type: ignore[return-value]

    # -- SW-level search, one scan per hardware group -------------------------

    def _resolve_group(self, inference: "InferenceDesign",
                       indices: List[int], keys: List[Optional[tuple]],
                       out_mappings: Dict[int, Optional[Tuple[LayerMapping,
                                                              ...]]],
                       probe_hits: Dict[int, bool]) -> None:
        """Memo-probe one hardware group; sweep the unseen projections.

        Counter semantics mirror the serial path exactly: the first
        occurrence of an unseen key is a miss, later occurrences in the
        same generation are hits (serially, the memo is filled before
        they probe) — unless the memo is disabled, in which case every
        genome is a miss and the scan result is merely shared.
        """
        explorer = self.explorer
        memo_on = mapper_memo_enabled()
        resolved: Dict[tuple, Optional[Tuple[LayerMapping, ...]]] = {}
        pending: Dict[tuple, List[int]] = {}
        scan_keys: List[tuple] = []
        for i in indices:
            key = keys[i]
            if key in resolved:
                probe_hits[i] = memo_on
                if memo_on:
                    explorer.mapper.memo_note_hit()
                out_mappings[i] = resolved[key]
                continue
            if key in pending:
                probe_hits[i] = memo_on
                if memo_on:
                    explorer.mapper.memo_note_hit()
                pending[key].append(i)
                continue
            hit, mappings = explorer.mapper.memo_probe(key)
            probe_hits[i] = hit
            if hit:
                resolved[key] = mappings
                out_mappings[i] = mappings
            else:
                pending[key] = [i]
                scan_keys.append(key)
        if not scan_keys:
            return
        scanned = explorer.mapper.scan(inference,
                                       [energy for energy, _ in scan_keys])
        for key, mappings in zip(scan_keys, scanned):
            explorer.mapper.memo_fill(key, mappings)
            for i in pending[key]:
                out_mappings[i] = mappings
