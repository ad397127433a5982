"""Grid search — exhaustive sweep over a discretised design space.

Used by the search-strategy ablation bench.  The rationality-validation
experiments (Figs. 8 and 9), which sweep one energy knob while pinning
the other, run through :func:`repro.explore.sweeps.sweep` instead.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Tuple

from repro.errors import SearchError
from repro.explore.ga import Fitness, GAHistory
from repro.explore.space import DesignSpace, Genome, ParameterSpec


def _grid_values(spec: ParameterSpec, points: int) -> List[object]:
    if spec.kind == "choice":
        return list(spec.choices)
    if points < 2:
        raise SearchError("grid needs at least 2 points per axis")
    if spec.kind in ("float", "int"):
        step = (spec.high - spec.low) / (points - 1)
        values = [spec.low + i * step for i in range(points)]
    else:  # log scales
        log_low, log_high = math.log(spec.low), math.log(spec.high)
        step = (log_high - log_low) / (points - 1)
        values = [math.exp(log_low + i * step) for i in range(points)]
    if spec.kind.startswith("int"):
        deduped: List[object] = []
        for value in values:
            rounded = max(int(spec.low), min(int(spec.high), round(value)))
            if rounded not in deduped:
                deduped.append(rounded)
        return deduped
    return values


class GridSearch:
    """Cartesian-product sweep; also exposes every evaluated point."""

    def __init__(self, space: DesignSpace, fitness: Fitness,
                 points_per_axis: int = 6) -> None:
        self.space = space
        self.fitness = fitness
        self.points_per_axis = points_per_axis
        self.history = GAHistory()
        self.evaluated: List[Tuple[Genome, float]] = []

    def axes(self) -> Dict[str, List[object]]:
        return {spec.name: _grid_values(spec, self.points_per_axis)
                for spec in self.space.parameters}

    def run(self) -> Tuple[Genome, float]:
        axes = self.axes()
        names = list(axes)
        best: Genome | None = None
        best_fitness = math.inf
        for combo in itertools.product(*(axes[name] for name in names)):
            genome: Genome = dict(zip(names, combo))
            genome.update(self.space.fixed)
            fitness = self.fitness(genome)
            self.history.evaluations += 1
            self.evaluated.append((genome, fitness))
            if fitness < best_fitness:
                best, best_fitness = genome, fitness
            self.history.best.append(best_fitness)
        if best is None or math.isinf(best_fitness):
            raise SearchError("no feasible genome found on the grid")
        return best, best_fitness
