"""Throughput observability for the bi-level search.

The explorer calls the analytical cost model millions of times, so the
caches that make it affordable also have to make their effect
*visible*: :class:`SearchStats` aggregates evaluation counts, cache
hit/miss counters and per-stage wall-clock so that
``SearchResult.summary()``, the CLI and ``benchmarks/bench_search.py``
can all report the same numbers.

:class:`GenomeOutcome` is the result of evaluating one HW genome as
data.  The generation evaluator of :mod:`repro.explore.batch_eval` is
the only code that produces it, for one genome
(``BilevelExplorer.compute_outcome``) or a whole generation
(``GAConfig.batched``); the explorer then applies the side effects —
Pareto points, failure records, counter deltas — in generation order,
which is what makes serial and batched runs bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.design import AuTDesign
from repro.explore.failures import FailureRecord


@dataclass
class SearchStats:
    """Counters and timings of one ``BilevelExplorer.run()``.

    Cache semantics:

    * ``layer_cost_*`` — the process-wide cache of
      ``(hardware, checkpoint, layer, mapping)`` tile costs, flushed
      whole when it overflows
      (:func:`repro.dataflow.cost_model.layer_cost_cache_stats`);
    * ``mapper_*`` — the process-wide memo of whole SW-level mapping
      searches, keyed by the canonical ``(EnergyDesign,
      InferenceDesign)`` projection of a genome;
    * ``batched_*`` and ``scalar_fallbacks`` — whole generations
      handed to the generation evaluator (``GAConfig.batched``):
      ``batched_sweeps`` counts those calls, ``batched_genomes`` the
      genomes their generation pass priced, and ``scalar_fallbacks``
      the genomes re-run one at a time because their hardware group's
      mapper scan, or the generation's pricing, raised.  A serial
      search evaluates one genome per call and leaves all three at 0.
    """

    hw_evaluations: int = 0
    eval_seconds: float = 0.0
    search_seconds: float = 0.0
    mapper_hits: int = 0
    mapper_misses: int = 0
    layer_cost_hits: int = 0
    layer_cost_misses: int = 0
    batched_sweeps: int = 0
    batched_genomes: int = 0
    scalar_fallbacks: int = 0

    # -- derived rates -------------------------------------------------------

    @property
    def evals_per_second(self) -> float:
        """HW-genome evaluations per wall-clock second of the search."""
        if self.search_seconds <= 0.0:
            return 0.0
        return self.hw_evaluations / self.search_seconds

    @property
    def mapper_hit_rate(self) -> float:
        total = self.mapper_hits + self.mapper_misses
        return self.mapper_hits / total if total else 0.0

    @property
    def layer_cost_hit_rate(self) -> float:
        total = self.layer_cost_hits + self.layer_cost_misses
        return self.layer_cost_hits / total if total else 0.0

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        """Multi-line human-readable block for CLI / summary output."""
        lines = [
            f"throughput  : {self.evals_per_second:.2f} evals/s "
            f"({self.hw_evaluations} evals in {self.search_seconds:.3f} s)",
            f"mapper cache: {self.mapper_hits} hit(s) / "
            f"{self.mapper_misses} miss(es) "
            f"({self.mapper_hit_rate:.1%} hit rate)",
            f"layer cache : {self.layer_cost_hits} hit(s) / "
            f"{self.layer_cost_misses} miss(es) "
            f"({self.layer_cost_hit_rate:.1%} hit rate)",
        ]
        if self.batched_sweeps:
            lines.append(
                f"batched     : {self.batched_genomes} genome(s) in "
                f"{self.batched_sweeps} sweep(s), "
                f"{self.scalar_fallbacks} scalar fallback(s)")
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, float]:
        """JSON-friendly snapshot (used by ``bench_search.py``)."""
        return {
            "hw_evaluations": self.hw_evaluations,
            "eval_seconds": self.eval_seconds,
            "search_seconds": self.search_seconds,
            "evals_per_second": self.evals_per_second,
            "mapper_hits": self.mapper_hits,
            "mapper_misses": self.mapper_misses,
            "mapper_hit_rate": self.mapper_hit_rate,
            "layer_cost_hits": self.layer_cost_hits,
            "layer_cost_misses": self.layer_cost_misses,
            "layer_cost_hit_rate": self.layer_cost_hit_rate,
            "batched_sweeps": self.batched_sweeps,
            "batched_genomes": self.batched_genomes,
            "scalar_fallbacks": self.scalar_fallbacks,
        }


@dataclass
class GenomeOutcome:
    """Everything one genome evaluation produced, as data.

    ``design`` is the lowered design when the score is finite (it doubles
    as the Pareto-point payload); ``failure`` is the absorbed candidate
    failure, if any.  The cache counters are *deltas* accumulated during
    this evaluation: the generation evaluator attributes a whole
    generation's layer-cost activity to one outcome, so only the deltas'
    sum is meaningful.
    """

    score: float
    design: Optional[AuTDesign] = None
    point: Optional[Tuple[float, float]] = None
    failure: Optional[FailureRecord] = None
    eval_seconds: float = 0.0
    mapper_hits: int = 0
    mapper_misses: int = 0
    layer_cost_hits: int = 0
    layer_cost_misses: int = 0
