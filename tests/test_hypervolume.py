"""Tests for the 2-D hypervolume metric."""

import pytest

from repro.explore.pareto import ParetoPoint, hypervolume_2d


def P(*values):
    return ParetoPoint(values=tuple(float(v) for v in values))


class TestHypervolume:
    def test_single_point_rectangle(self):
        assert hypervolume_2d([P(1, 1)], (3, 3)) == pytest.approx(4.0)

    def test_staircase_area(self):
        # Points (1,2) and (2,1) vs reference (3,3):
        # (3-1)*(3-2) + (3-2)*(2-1) = 2 + 1 = 3.
        assert hypervolume_2d([P(1, 2), P(2, 1)], (3, 3)) == pytest.approx(3.0)

    def test_dominated_points_ignored(self):
        with_dominated = hypervolume_2d([P(1, 1), P(2, 2)], (3, 3))
        without = hypervolume_2d([P(1, 1)], (3, 3))
        assert with_dominated == pytest.approx(without)

    def test_points_beyond_reference_contribute_nothing(self):
        assert hypervolume_2d([P(5, 5)], (3, 3)) == 0.0
        assert hypervolume_2d([P(1, 1), P(5, 0.5)], (3, 3)) == \
            pytest.approx(hypervolume_2d([P(1, 1)], (3, 3)))

    def test_empty_front(self):
        assert hypervolume_2d([], (3, 3)) == 0.0

    def test_better_front_bigger_volume(self):
        worse = hypervolume_2d([P(2, 2)], (4, 4))
        better = hypervolume_2d([P(1, 1)], (4, 4))
        assert better > worse

    def test_adding_nondominated_point_grows_volume(self):
        base = hypervolume_2d([P(1, 3)], (4, 4))
        extended = hypervolume_2d([P(1, 3), P(3, 1)], (4, 4))
        assert extended > base
