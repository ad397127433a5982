"""The generation evaluator: the one code path that lowers, prices and
scores HW genomes.

:class:`VectorizedGenomeEvaluator` evaluates a *generation* of genomes
together.  :meth:`~repro.explore.bilevel.BilevelExplorer.compute_outcome`
runs it on a generation of one genome, which is how the serial search
and NSGA-II evaluate; with ``GAConfig.batched`` the GA hands it each
generation's uncached genomes in one call instead.  For a generation:

* each genome is lowered once, with placeholder mappings, and grouped
  by its :class:`InferenceDesign` projection;
* the SW-level mapping search runs once per group, after the mapper
  memo is probed: a group with one unseen projection goes through
  :meth:`~repro.explore.mapper_search.MappingOptimizer.optimize`, a
  larger one through
  :meth:`~repro.explore.mapper_search.MappingOptimizer.scan`, which
  walks the energy designs through each ladder together and prices
  the same rungs;
* the resolved mappings are swapped into the lowered designs, which
  are priced by the paper's every-environment rule
  (:func:`repro.sim.evaluator._evaluate_every_environment`): each
  design's plan is built once, by one
  :class:`~repro.sim.analytical.BatchAnalyticalModel` for the
  generation, and priced in every environment, and the objective
  scores them.

A search builds each accelerator once: the process's accelerator
registry (:func:`~repro.sim.analytical._cost_model`) keeps its cost
model, the scan prices its rungs on that model, and the pricing reads
each plan from the same model, so every plan lookup is a layer-cost
cache hit.

So scores, lowered designs, Pareto points, failure records, mapper
hit/miss counts and layer-cost hits and misses do not depend on how
many genomes a call holds.  A candidate error is absorbed into its
genome's outcome.  When a hardware group's scan, or the generation's
pricing, raises, the genomes concerned are re-run one genome at a time
(counted in ``SearchStats.scalar_fallbacks``), so that the error is
recorded against the genome that raised it.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.dataflow.cost_model import layer_cost_cache_stats
from repro.dataflow.mapping import LayerMapping
from repro.errors import (
    ChrysalisError,
    DesignSpaceError,
    EvaluationTimeout,
    InfeasibleDesignError,
    MappingError,
    SimulationError,
)
from repro.explore.failures import FailureRecord, describe_genome
from repro.explore.space import Genome
from repro.explore.stats import GenomeOutcome
from repro.obs.state import span
from repro.sim.evaluator import _evaluate_every_environment

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.design import AuTDesign, InferenceDesign
    from repro.explore.bilevel import BilevelExplorer

#: Error families a machine-generated genome can plausibly trip over
#: while it is lowered and priced: absorbed at the ``sw-lowering``
#: stage.  Any other library error is absorbed at ``hw-fitness``.
_CANDIDATE_ERRORS = (
    MappingError,
    SimulationError,
    InfeasibleDesignError,
    DesignSpaceError,
    EvaluationTimeout,
)

_Mappings = Optional[Tuple[LayerMapping, ...]]


class VectorizedGenomeEvaluator:
    """Evaluates generations of one explorer's genomes.

    Satisfies the :class:`~repro.explore.ga.BatchEvaluator` protocol.
    It holds nothing but the explorer, so build one per search or per
    call rather than storing it on the explorer: that reference cycle
    would keep the mapper's priced-prefix tables alive until the cyclic
    garbage collector runs.
    """

    def __init__(self, explorer: "BilevelExplorer") -> None:
        self.explorer = explorer

    # -- BatchEvaluator protocol ---------------------------------------------

    def evaluate_many(self, genomes: List[Genome]) -> List[float]:
        """Fitnesses of ``genomes``, side effects replayed in order."""
        if not genomes:
            return []
        with span("search.batch", genomes=len(genomes)):
            outcomes, reruns = self._compute_outcomes(genomes)
        stats = self.explorer.stats
        stats.batched_sweeps += 1
        stats.batched_genomes += len(genomes) - reruns
        stats.scalar_fallbacks += reruns
        return [self.explorer.apply_outcome(genome, outcome)
                for genome, outcome in zip(genomes, outcomes)]

    # -- one generation ----------------------------------------------------------

    def _compute_outcomes(self, genomes: List[Genome]
                          ) -> Tuple[List[GenomeOutcome], int]:
        """One outcome per genome, and how many genomes were re-run.

        Touches no search state: every side effect is returned as data
        for :meth:`BilevelExplorer.apply_outcome`.
        """
        explorer = self.explorer
        started = time.monotonic()
        layer_hits0, layer_misses0 = layer_cost_cache_stats()
        n = len(genomes)
        outcomes: List[Optional[GenomeOutcome]] = [None] * n
        #: Genome index -> whether its mapper-memo probe hit.
        probes: Dict[int, bool] = {}
        rerun: List[int] = []

        def set_aside(indices: List[int], error: ChrysalisError) -> None:
            # A generation of one absorbs the error, its memo probe
            # still counted; a larger one re-runs the genomes alone.
            if n == 1:
                outcomes[indices[0]] = _absorbed(genomes[indices[0]], error)
            else:
                rerun.extend(indices)

        # 1. Project every genome onto its (energy, inference) key.
        seeded: Dict[int, "AuTDesign"] = {}
        for i, genome in enumerate(genomes):
            try:
                seeded[i] = explorer.space.to_design(
                    genome, explorer._seed_mappings)
            except ChrysalisError as error:
                outcomes[i] = _absorbed(genome, error)

        # 2. Resolve mappings: memo probes, then one mapper search per
        # hardware group of unseen projections.
        groups: Dict["InferenceDesign", List[int]] = {}
        for i, design in seeded.items():
            groups.setdefault(design.inference, []).append(i)
        mappings: Dict[int, _Mappings] = {}
        for inference, indices in groups.items():
            try:
                self._resolve_group(inference, indices, seeded, mappings,
                                    probes)
            except ChrysalisError as error:
                for i in indices:
                    mappings.pop(i, None)
                set_aside(indices, error)

        # 3. Lower the mappable genomes: swap their mappings in.
        designs: Dict[int, "AuTDesign"] = {}
        for i in sorted(mappings):
            if mappings[i] is None:
                # Unmappable projection: an infinite score, no failure.
                outcomes[i] = GenomeOutcome(score=math.inf)
            else:
                designs[i] = replace(seeded[i], mappings=mappings[i])

        # 4. Price them in every environment, on the cost models the
        # scan used (both read the accelerator registry).
        priced: List[tuple] = []
        if designs:
            try:
                priced = _evaluate_every_environment(
                    list(designs.values()), explorer.network,
                    explorer.environments, explorer.checkpoint)
            except ChrysalisError as error:
                set_aside(list(designs), error)
                designs = {}

        # 5. Score, after the per-genome time-budget check.
        evaluated = n - len(rerun)
        share = ((time.monotonic() - started) / evaluated
                 if evaluated else 0.0)
        budget = explorer.candidate_time_budget_s
        for (i, design), (_, metrics) in zip(designs.items(), priced):
            if budget is not None and share > budget:
                timeout = EvaluationTimeout(
                    f"candidate evaluation exceeded its {budget:.3g} s "
                    f"budget")
                outcomes[i] = _absorbed(genomes[i], timeout,
                                        stage="hw-fitness")
                continue
            score = explorer.objective.score(design, metrics)
            point: Optional[Tuple[float, float]] = None
            if metrics.feasible and math.isfinite(metrics.e2e_latency):
                latency = metrics.sustained_period or metrics.e2e_latency
                point = (design.energy.panel_area_cm2, latency)
            outcomes[i] = GenomeOutcome(
                score=score,
                design=design if math.isfinite(score) else None,
                point=point,
            )

        # 6. Counters: one memo probe per genome; the generation's
        # layer-cost activity goes to its first outcome, since
        # apply_outcome() only ever sums these deltas.
        layer_hits1, layer_misses1 = layer_cost_cache_stats()
        layer_delta: Optional[Tuple[int, int]] = (
            layer_hits1 - layer_hits0, layer_misses1 - layer_misses0)
        for i, outcome in enumerate(outcomes):
            if outcome is None:
                continue
            outcome.eval_seconds = share
            if i in probes:
                if probes[i]:
                    outcome.mapper_hits = 1
                else:
                    outcome.mapper_misses = 1
            if layer_delta is not None:
                outcome.layer_cost_hits, outcome.layer_cost_misses = (
                    layer_delta)
                layer_delta = None

        for i in rerun:
            outcomes[i] = self._compute_outcomes([genomes[i]])[0][0]
        return outcomes, len(rerun)  # type: ignore[return-value]

    # -- SW-level search, once per hardware group -----------------------------

    def _resolve_group(self, inference: "InferenceDesign",
                       indices: List[int], seeded: Dict[int, "AuTDesign"],
                       out_mappings: Dict[int, _Mappings],
                       probes: Dict[int, bool]) -> None:
        """Memo-probe one hardware group; search the unseen projections.

        Counts follow one-genome evaluation in genome order: the first
        occurrence of an unseen key is a miss, later occurrences in the
        same generation are hits (the memo holds the key by the time
        they would probe).
        """
        mapper = self.explorer.mapper
        resolved: Dict[tuple, _Mappings] = {}
        pending: Dict[tuple, List[int]] = {}
        for i in indices:
            key = (seeded[i].energy, inference)
            if key in resolved or key in pending:
                probes[i] = True
                mapper.memo_note_hit()
                if key in resolved:
                    out_mappings[i] = resolved[key]
                else:
                    pending[key].append(i)
                continue
            hit, mappings = mapper.memo_probe(key)
            probes[i] = hit
            if hit:
                resolved[key] = mappings
                out_mappings[i] = mappings
            else:
                pending[key] = [i]
        if not pending:
            return
        scan_keys = list(pending)
        if len(scan_keys) == 1:
            # optimize() is scan() of one, plus its obs span and counter.
            scanned = [mapper.optimize(scan_keys[0][0], inference)]
        else:
            scanned = mapper.scan(inference,
                                  [energy for energy, _ in scan_keys])
        for key, mappings in zip(scan_keys, scanned):
            mapper.memo_fill(key, mappings)
            for i in pending[key]:
                out_mappings[i] = mappings


def _absorbed(genome: Genome, error: ChrysalisError,
              stage: Optional[str] = None) -> GenomeOutcome:
    """The outcome of a genome whose evaluation raised ``error``: an
    infinite score and a failure record (stage by family by default)."""
    if stage is None:
        stage = ("sw-lowering" if isinstance(error, _CANDIDATE_ERRORS)
                 else "hw-fitness")
    return GenomeOutcome(score=math.inf, failure=FailureRecord(
        candidate=describe_genome(genome),
        family=type(error).__name__,
        message=str(error),
        penalty=math.inf,
        stage=stage,
    ))
