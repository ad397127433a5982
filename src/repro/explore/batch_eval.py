"""Vectorized in-process evaluation of GA generations.

:class:`VectorizedGenomeEvaluator` plugs into
:class:`~repro.explore.ga.GeneticAlgorithm` as its ``batch_evaluator``
(``GAConfig.batched``) and prices each generation's uncached genomes as
numpy sweeps instead of one-candidate-at-a-time Python:

* genomes are grouped by their :class:`InferenceDesign` projection, so
  hardware is built once per distinct accelerator configuration;
* the SW-level mapping search is replaced by a per-layer *rung table* —
  every ``(style, tile_dim, spatial_dim, N_tile)`` candidate the scalar
  :class:`~repro.explore.mapper_search.MappingOptimizer` could ever
  visit, priced once per hardware via
  :meth:`~repro.dataflow.cost_model.DataflowCostModel.layer_cost_batch`
  and reused across generations (the candidate ladder only depends on
  the layer, not on the energy design);
* per generation, Eq. 8 feasibility and the first-feasible /
  lowest-energy selection run as boolean/argmin array operations over
  ``genomes x rungs``;
* whole-design pricing goes through
  :class:`~repro.sim.analytical.BatchAnalyticalModel`, one call per
  environment for the entire generation, followed by the paper's
  first-infeasible-environment averaging protocol per genome.

Bit-identity contract: scores, lowered designs, Pareto points, failure
records and mapper hit/miss accounting are exactly what the serial
scalar path produces for the same genomes — the selection mirrors the
scalar scan's iteration order and strict-``<`` tie-breaking, and every
float chain reuses either pure-Python arithmetic or the (bit-exact)
batched models.  The scalar path stays available as the oracle: any
:class:`~repro.errors.ChrysalisError` escaping the vectorized machinery
drops the affected genomes back to ``BilevelExplorer.compute_outcome``
(counted in ``SearchStats.scalar_fallbacks``).

Layer-cost cache *totals* differ from the serial mode by design: the
rung tables price whole ladders up front (a superset of the rungs the
lazy scalar scan visits) and then reuse them without re-probing, so the
batched mode reports far fewer cache events for the same search.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.dataflow.cost_model import (DataflowCostModel, LayerCost,
                                       layer_cost_cache_stats)
from repro.dataflow.mapping import LayerMapping
from repro.errors import ChrysalisError, EvaluationTimeout, MappingError
from repro.explore.bilevel import _CANDIDATE_ERRORS
from repro.explore.mapper_search import mapper_memo_enabled
from repro.explore.space import Genome
from repro.explore.stats import GenomeOutcome
from repro.hardware.checkpoint import CheckpointModel
from repro.obs.state import span
from repro.sim.analytical import BatchAnalyticalModel
from repro.sim.evaluator import _average_metrics
from repro.sim.metrics import InferenceMetrics
from repro.workloads.layers import Layer

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.design import AuTDesign
    from repro.explore.bilevel import BilevelExplorer

logger = logging.getLogger(__name__)


@dataclass
class _RungTable:
    """Every mapping candidate of one layer on one hardware, priced.

    ``slices`` delimits one ``(style, tile_dim, spatial_dim)`` combo per
    entry, in the scalar scan's iteration order (styles outer, dim pairs
    inner); within a combo the rungs follow the scalar geometric ladder
    (primary ``N_tile`` doubling, then the secondary-dimension split).
    ``score`` is the combo-selection score of each rung — the mean
    layer energy over the configured environments, accumulated exactly
    like ``MappingOptimizer._mean_energy``.
    """

    mappings: List[LayerMapping]
    costs: List[LayerCost]
    tile_energy: np.ndarray
    tile_time: np.ndarray
    score: np.ndarray
    slices: List[Tuple[int, int]]


class VectorizedGenomeEvaluator:
    """Prices GA generations as numpy sweeps; scalar-oracle-identical.

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
        #: Rung tables keyed by :class:`InferenceDesign` — one list of
        #: per-layer tables per distinct hardware, reused across
        #: generations.
        self._tables: Dict[object, List[_RungTable]] = {}

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
        # vectorized mapper sweep per group of unseen projections).
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

        # 3. Lower the mappable genomes and price them — one batched
        # analytical sweep per environment over the whole generation.
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

    # -- SW-level search, vectorized ------------------------------------------

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
        """Best mapping per layer per design — the vectorized optimizer.

        Equivalent to ``MappingOptimizer.optimize`` for every design:
        per layer, a rung is usable when Eq. 8 holds in *every*
        environment; within each (style, dims) combo the first feasible
        ladder rung wins; across combos the lowest mean energy wins with
        strict-``<`` (first combo in scan order on ties).  A layer with
        no usable rung makes the design unmappable (``None``).
        """
        tables = self._tables_for(inference)
        count = len(designs)
        n_env = len(self.environments)
        stored = np.empty(count)
        buck = np.empty(count)
        net = np.empty((n_env, count))
        for g, design in enumerate(designs):
            energy = design.energy
            pmic = energy.pmic
            # Pure Python on purpose: the ** must be CPython's pow for
            # bit-identity with AnalyticalModel's properties.
            stored[g] = 0.5 * energy.capacitance_f * (
                pmic.v_on**2 - pmic.v_off**2)
            buck[g] = pmic.buck_efficiency
            leak = energy.k_cap * energy.capacitance_f * pmic.v_on**2
            for e, environment in enumerate(self.environments):
                p_eh = energy.build_panel().power(environment.k_eh)
                net[e, g] = pmic.charge_power(p_eh) - leak

        results: List[Optional[List[LayerMapping]]] = [
            [] for _ in range(count)]
        for table in tables:
            rungs = len(table.mappings)
            if rungs == 0:
                # No valid (style, dims) combo at all: the layer is
                # unmappable on this hardware for every energy design.
                return [None] * count
            tile_time = table.tile_time[None, :]
            tile_energy = table.tile_energy[None, :]
            feasible = np.ones((count, rungs), dtype=bool)
            for e in range(n_env):
                available = (stored[:, None] + np.maximum(
                    net[e][:, None] * tile_time, 0.0)) * buck[:, None]
                feasible &= tile_energy <= available
            best_score = np.full(count, math.inf)
            best_rung = np.full(count, -1, dtype=np.int64)
            for start, end in table.slices:
                window = feasible[:, start:end]
                usable = window.any(axis=1)
                if not usable.any():
                    continue
                first = np.argmax(window, axis=1) + start
                score = np.where(usable, table.score[first], math.inf)
                better = score < best_score
                best_score = np.where(better, score, best_score)
                best_rung = np.where(better, first, best_rung)
            for g in range(count):
                row = results[g]
                if row is None:
                    continue
                rung = int(best_rung[g])
                if rung < 0:
                    results[g] = None
                else:
                    row.append(table.mappings[rung])
        return [tuple(row) if row is not None else None for row in results]

    def _tables_for(self, inference: object) -> List[_RungTable]:
        tables = self._tables.get(inference)
        if tables is None:
            hardware = inference.build()  # type: ignore[attr-defined]
            checkpoint = self.explorer.checkpoint or CheckpointModel(
                nvm=hardware.nvm.technology
            )
            cost_model = DataflowCostModel(hardware, checkpoint)
            tables = [self._build_table(cost_model, layer)
                      for layer in self.network]
            self._tables[inference] = tables
        return tables

    def _build_table(self, cost_model: DataflowCostModel,
                     layer: Layer) -> _RungTable:
        """Price every candidate the scalar scan could visit, once."""
        mapper = self.explorer.mapper
        dims = layer.dims()
        mappings: List[LayerMapping] = []
        costs: List[LayerCost] = []
        slices: List[Tuple[int, int]] = []
        for style in mapper.styles:
            for tile_dim, spatial_dim in mapper._dim_pairs(layer):
                # Pricing errors are n_tiles-independent (style/layer
                # geometry), so one failure invalidates the whole combo
                # — the same corner _best_for_layer skips.
                try:
                    ladder = _ladder(mapper, dims, style, tile_dim,
                                     spatial_dim)
                    priced = cost_model.layer_cost_batch(layer, ladder)
                except MappingError as error:
                    logger.debug(
                        "skipping %s %s/%s on %s: %s", style.value,
                        tile_dim, spatial_dim, layer.name, error)
                    continue
                start = len(mappings)
                mappings.extend(ladder)
                costs.extend(priced)
                slices.append((start, len(mappings)))
        scores: List[float] = []
        for cost in costs:
            total = 0.0  # _mean_energy's accumulation, verbatim
            for _ in range(len(self.environments)):
                total += cost.energy
            scores.append(total / len(self.environments))
        return _RungTable(
            mappings=mappings,
            costs=costs,
            tile_energy=np.array([cost.tile.energy for cost in costs]),
            tile_time=np.array([cost.tile.total_time for cost in costs]),
            score=np.array(scores),
            slices=slices,
        )


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
