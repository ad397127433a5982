"""The CHRYSALIS Explorer: design-space definitions and search.

* :mod:`repro.explore.space` — Table IV / Table V parameter spaces;
* :mod:`repro.explore.objectives` — the paper's three objectives
  (``lat``, ``sp``, ``lat*sp``);
* :mod:`repro.explore.ga` — the genetic-algorithm engine (the offline
  substitute for Optuna's GA sampler);
* :mod:`repro.explore.mapper_search` — SW-level per-layer mapping
  optimisation (the GAMMA-like inner search);
* :mod:`repro.explore.bilevel` — the bi-level HW/SW strategy of §III-C;
* :mod:`repro.explore.batch_eval` — the generation evaluator, the one
  code path that lowers, prices and scores genomes (one genome per call,
  or a whole generation with ``GAConfig.batched``);
* :mod:`repro.explore.stats` — throughput / cache observability;
* :mod:`repro.explore.baselines` — the six ablated methods of Table VI;
* :mod:`repro.explore.random_search` / :mod:`repro.explore.grid` —
  alternative strategies for the search-ablation benchmarks;
* :mod:`repro.explore.pareto` — non-dominated front extraction (Fig. 6).
"""

from repro.explore.baselines import BASELINE_METHODS, baseline_space
from repro.explore.bilevel import BilevelExplorer, SearchResult
from repro.explore.failures import FailureLog, FailureRecord
from repro.explore.ga import GeneticAlgorithm, GAConfig
from repro.explore.grid import GridSearch
from repro.explore.mapper_search import MappingOptimizer
from repro.explore.objectives import Objective, ObjectiveKind
from repro.explore.pareto import ParetoPoint, pareto_front
from repro.explore.random_search import RandomSearch
from repro.explore.space import DesignSpace, ParameterSpec
from repro.explore.stats import SearchStats

__all__ = [
    "BASELINE_METHODS",
    "BilevelExplorer",
    "DesignSpace",
    "FailureLog",
    "FailureRecord",
    "GAConfig",
    "GeneticAlgorithm",
    "GridSearch",
    "MappingOptimizer",
    "Objective",
    "ObjectiveKind",
    "ParameterSpec",
    "ParetoPoint",
    "RandomSearch",
    "SearchResult",
    "SearchStats",
    "baseline_space",
    "pareto_front",
]
