"""Pareto-front extraction for (latency, size) tradeoff plots (Fig. 6)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Sequence, Tuple


@dataclass(frozen=True)
class ParetoPoint:
    """One evaluated design point in objective space.

    ``values`` are the coordinates being minimised (e.g. (solar-panel
    cm^2, latency s)); ``payload`` carries the design that produced them.
    """

    values: Tuple[float, ...]
    payload: Any = None

    def dominates(self, other: "ParetoPoint") -> bool:
        """True if this point is at least as good everywhere and strictly
        better somewhere (minimisation)."""
        if len(self.values) != len(other.values):
            raise ValueError("points have different dimensionality")
        at_least_as_good = all(a <= b for a, b in zip(self.values, other.values))
        strictly_better = any(a < b for a, b in zip(self.values, other.values))
        return at_least_as_good and strictly_better


def pareto_front(points: Sequence[ParetoPoint]) -> List[ParetoPoint]:
    """Non-dominated subset, sorted by the first coordinate.

    O(n log n) sweep for the common 2-D case, O(n^2) fallback otherwise.
    """
    if not points:
        return []
    dim = len(points[0].values)
    if dim == 2:
        return _front_2d(points)
    front = []
    for candidate in points:
        if not any(other.dominates(candidate) for other in points):
            front.append(candidate)
    return sorted(front, key=lambda p: p.values)


def _front_2d(points: Sequence[ParetoPoint]) -> List[ParetoPoint]:
    ordered = sorted(points, key=lambda p: (p.values[0], p.values[1]))
    front: List[ParetoPoint] = []
    best_second = float("inf")
    for point in ordered:
        if point.values[1] < best_second:
            front.append(point)
            best_second = point.values[1]
    return front


def hypervolume_2d(points: Sequence[ParetoPoint],
                   reference: Tuple[float, float]) -> float:
    """Dominated hypervolume of a 2-D minimisation front.

    The area between the front and the ``reference`` (worst-corner)
    point — the standard scalar quality measure for Pareto fronts.
    Points beyond the reference contribute nothing.
    """
    front = pareto_front([p for p in points
                          if p.values[0] < reference[0]
                          and p.values[1] < reference[1]])
    if not front:
        return 0.0
    area = 0.0
    previous_y = reference[1]
    for point in front:  # sorted by x, y strictly decreasing
        width = reference[0] - point.values[0]
        height = previous_y - point.values[1]
        area += width * height
        previous_y = point.values[1]
    return area
