"""Tests for repro.geo.point."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.geo.point import Point

finite_coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestPoint:
    def test_distance_to_matches_hypot(self):
        a = Point(0.0, 0.0)
        b = Point(3.0, 4.0)
        assert a.distance_to(b) == pytest.approx(5.0)

    def test_distance_is_symmetric(self):
        a = Point(1.5, -2.0)
        b = Point(-3.25, 7.0)
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))

    def test_squared_distance_is_square_of_distance(self):
        a = Point(1.0, 2.0)
        b = Point(4.0, 6.0)
        assert a.squared_distance_to(b) == pytest.approx(a.distance_to(b) ** 2)

    def test_manhattan_distance(self):
        assert Point(0, 0).manhattan_distance_to(Point(3, -4)) == pytest.approx(7.0)

    def test_translate_returns_new_point(self):
        p = Point(1.0, 1.0)
        q = p.translate(2.0, -1.0)
        assert q == Point(3.0, 0.0)
        assert p == Point(1.0, 1.0)

    def test_as_tuple_and_iter(self):
        p = Point(2.0, 3.0)
        assert p.as_tuple() == (2.0, 3.0)
        assert tuple(p) == (2.0, 3.0)

    def test_origin_and_from_tuple(self):
        assert Point.origin() == Point(0.0, 0.0)
        assert Point.from_tuple((1, 2)) == Point(1.0, 2.0)

    def test_points_are_hashable_and_frozen(self):
        p = Point(1.0, 2.0)
        assert {p: "x"}[Point(1.0, 2.0)] == "x"
        with pytest.raises(AttributeError):
            p.x = 5.0  # type: ignore[misc]

    @given(finite_coord, finite_coord, finite_coord, finite_coord)
    def test_triangle_inequality(self, ax, ay, bx, by):
        a = Point(ax, ay)
        b = Point(bx, by)
        origin = Point.origin()
        assert a.distance_to(b) <= a.distance_to(origin) + origin.distance_to(b) + 1e-6

    @given(finite_coord, finite_coord, finite_coord, finite_coord)
    def test_euclidean_never_exceeds_manhattan(self, ax, ay, bx, by):
        a = Point(ax, ay)
        b = Point(bx, by)
        assert a.distance_to(b) <= a.manhattan_distance_to(b) + 1e-9

    @given(finite_coord, finite_coord)
    def test_distance_to_self_is_zero(self, x, y):
        assert Point(x, y).distance_to(Point(x, y)) == 0.0
