"""Vectorized in-process evaluation of GA generations.

:class:`VectorizedGenomeEvaluator` plugs into
:class:`~repro.explore.ga.GeneticAlgorithm` as its ``batch_evaluator``
(``GAConfig.batched``) and evaluates each generation's uncached genomes
together instead of one candidate at a time:

* genomes are grouped by their :class:`InferenceDesign` projection, so
  hardware is built once per distinct accelerator configuration;
* the SW-level mapping search runs once per group over lazy *rung
  tables*: each ``(style, tile_dim, spatial_dim)`` combo has a ladder
  of ``N_tile`` candidates (it depends only on the layer, so it is
  built once per evaluator by :func:`_ladder`) and, per accelerator,
  the prefix of that ladder priced so far.  The group's designs walk
  each ladder together; a rung is priced with
  :meth:`~repro.dataflow.cost_model.DataflowCostModel.layer_cost` the
  first time any design reaches it, and each design retires at its
  first rung that fits one energy cycle (Eq. 8, checked by
  :class:`~repro.sim.analytical.CycleBudget`).  Priced prefixes are
  kept across generations;
* whole-design pricing goes through
  :class:`~repro.sim.analytical.BatchAnalyticalModel`, one call per
  environment for the entire generation, followed by the paper's
  first-infeasible-environment averaging protocol per genome.

This is a different mapper algorithm over the same pricing code, not a
second copy of it: scores, lowered designs, Pareto points, failure
records and mapper hit/miss accounting are exactly what the serial path
produces for the same genomes, because the selection follows the scalar
scan's iteration order and strict-``<`` tie-breaking.  The scalar path
stays the fallback: any :class:`~repro.errors.ChrysalisError` escaping
the vectorized machinery drops the affected genomes back to
``BilevelExplorer.compute_outcome`` (counted in
``SearchStats.scalar_fallbacks``).

Layer-cost cache misses equal the serial mode's: a rung is priced when
the first design reaches it, where the scalar scan would first price it
too.  Hits still differ: a rung already in the table is read from it
without probing the cache, so the batched mode reports fewer hits.
"""

from __future__ import annotations

import logging
import math
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.dataflow.cost_model import (DataflowCostModel,
                                       layer_cost_cache_stats)
from repro.dataflow.mapping import LayerMapping
from repro.errors import ChrysalisError, EvaluationTimeout, MappingError
from repro.explore.bilevel import _CANDIDATE_ERRORS
from repro.explore.mapper_search import mapper_memo_enabled
from repro.explore.space import Genome
from repro.explore.stats import GenomeOutcome
from repro.hardware.checkpoint import CheckpointModel
from repro.obs.state import span
from repro.sim.analytical import BatchAnalyticalModel, CycleBudget
from repro.sim.evaluator import _average_metrics
from repro.sim.metrics import InferenceMetrics
from repro.workloads.layers import Layer

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.design import AuTDesign
    from repro.explore.bilevel import BilevelExplorer

logger = logging.getLogger(__name__)


#: The priced prefix of one combo's ladder on one accelerator: per rung,
#: its tile energy, tile time and combo-selection score (the mean layer
#: energy over the environments, accumulated like
#: ``MappingOptimizer._mean_energy``); ``None`` marks a rung that raised
#: :class:`MappingError`, past which no scan goes.
_Prefix = List[Optional[Tuple[float, float, float]]]


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
        #: Per layer, one ladder per (style, dims) combo in the scalar
        #: scan's order; accelerator-independent.
        mapper = explorer.mapper
        self._ladders = [
            [_ladder(mapper, layer.dims(), style, tile_dim, spatial_dim)
             for style in mapper.styles
             for tile_dim, spatial_dim in mapper._dim_pairs(layer)]
            for layer in self.network]
        #: Per distinct hardware (keyed by :class:`InferenceDesign`): its
        #: cost model and, per layer and combo, the priced prefix.
        self._tables: Dict[object, Tuple[DataflowCostModel,
                                         List[List[_Prefix]]]] = {}

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
                self._resolve_group(inference, indices, seeded, keys,
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
        # activity (rung tables + final pricing) is attributed to the
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

    def _resolve_group(self, inference: object, indices: List[int],
                       seeded: List[Optional["AuTDesign"]],
                       keys: List[Optional[tuple]],
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
        scan_designs: List["AuTDesign"] = []
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
                scan_designs.append(seeded[i])  # type: ignore[arg-type]
        if not scan_keys:
            return
        scanned = self._scan(inference, scan_designs)
        for key, mappings in zip(scan_keys, scanned):
            explorer.mapper.memo_fill(key, mappings)
            for i in pending[key]:
                out_mappings[i] = mappings

    def _scan(self, inference: object, designs: List["AuTDesign"]
              ) -> List[Optional[Tuple[LayerMapping, ...]]]:
        """Best mapping per layer per design — the scalar scan, shared.

        Equivalent to ``MappingOptimizer.optimize`` for every design:
        per layer, each (style, dims) combo offers its first ladder rung
        that fits one energy cycle in every environment, and across
        combos the lowest mean energy wins with strict ``<`` (first
        combo in scan order on ties).  A combo ends at a rung that
        raises :class:`MappingError`; a layer with no usable rung makes
        the design unmappable (``None``) and skips its later layers.

        Eq. 8 is checked in the environment with the least ``net``
        only: ``stored`` and ``buck`` do not depend on the environment,
        and no float operation of Eq. 3 decreases as ``net`` grows for
        ``t >= 0``, so a tile that fits there fits everywhere.
        """
        cost_model, tables = self._tables_for(inference)
        available = [min((CycleBudget.of(design.energy, environment)
                          for environment in self.environments),
                         key=lambda budget: budget.net).available
                     for design in designs]
        rows: List[List[LayerMapping]] = [[] for _ in designs]
        live = list(range(len(designs)))
        for layer, ladders, prefixes in zip(self.network, self._ladders,
                                            tables):
            if not live:
                break
            best_score = [math.inf] * len(designs)
            best: List[Optional[LayerMapping]] = [None] * len(designs)
            for ladder, prefix in zip(ladders, prefixes):
                waiting = live
                for rung, mapping in enumerate(ladder):
                    if rung == len(prefix):
                        prefix.append(self._price(cost_model, layer,
                                                  mapping))
                    entry = prefix[rung]
                    if entry is None:
                        break
                    energy, seconds, score = entry
                    still = []
                    for g in waiting:
                        if energy <= available[g](seconds):  # Eq. 8
                            if score < best_score[g]:
                                best_score[g], best[g] = score, mapping
                        else:
                            still.append(g)
                    waiting = still
                    if not waiting:
                        break
            live = [g for g in live if best[g] is not None]
            for g in live:
                rows[g].append(best[g])
        # A row cut short met a layer with no usable rung: unmappable.
        return [tuple(row) if len(row) == len(self._ladders) else None
                for row in rows]

    def _price(self, cost_model: DataflowCostModel, layer: Layer,
               mapping: LayerMapping
               ) -> Optional[Tuple[float, float, float]]:
        """One rung's prefix entry (see :data:`_Prefix`)."""
        try:
            cost = cost_model.layer_cost(layer, mapping)
        except MappingError as error:
            logger.debug("skipping %s %s/%s on %s: %s", mapping.style.value,
                         mapping.tile_dim, mapping.spatial_dim, layer.name,
                         error)
            return None
        total = 0.0  # _mean_energy's accumulation, verbatim
        for _ in self.environments:
            total += cost.energy
        return (cost.tile.energy, cost.tile.total_time,
                total / len(self.environments))

    def _tables_for(self, inference: object
                    ) -> Tuple[DataflowCostModel, List[List[_Prefix]]]:
        entry = self._tables.get(inference)
        if entry is None:
            hardware = inference.build()  # type: ignore[attr-defined]
            checkpoint = self.explorer.checkpoint or CheckpointModel(
                nvm=hardware.nvm.technology
            )
            entry = self._tables[inference] = (
                DataflowCostModel(hardware, checkpoint),
                [[[] for _ in ladders] for ladders in self._ladders])
        return entry


def _ladder(mapper, dims: Dict[str, int], style, tile_dim: str,
            spatial_dim: str) -> List[LayerMapping]:
    """The exact rung sequence ``_min_feasible`` scans, materialized."""
    bound = dims[tile_dim]
    rungs: List[LayerMapping] = []
    n = 1
    while True:
        rungs.append(LayerMapping(style=style, n_tiles=n, tile_dim=tile_dim,
                                  spatial_dim=spatial_dim))
        if n >= bound:
            break
        n = min(n * 2, bound)
    secondary = mapper._secondary_dim(dims, tile_dim, spatial_dim)
    if secondary is not None:
        bound2 = dims[secondary]
        n2 = 2
        while True:
            rungs.append(LayerMapping(style=style, n_tiles=bound,
                                      tile_dim=tile_dim,
                                      spatial_dim=spatial_dim,
                                      secondary_dim=secondary,
                                      n_tiles_2=min(n2, bound2)))
            if n2 >= bound2:
                break
            n2 = min(n2 * 2, bound2)
    return rungs
