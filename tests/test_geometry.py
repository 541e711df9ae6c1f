import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapspec.errors import DomainError
from trapspec.geometry import (
    Q_RECTANGLE,
    Polygon,
    Trapezoid,
    angle_invariant,
    corner_f,
    corner_f_inverse,
    heat_corner_sum,
    new_trapezoid,
    orbit_catalog,
    random_trapezoid,
    vertices,
)

SQRT3 = math.sqrt(3.0)


class TestNewTrapezoid:
    def test_equilateral_flavor(self):
        # b = 2 - (sqrt3/2)(1/sqrt3 + 1/sqrt3) = 1, A = 3 sqrt3 / 4, L = 5
        t = new_trapezoid(B=2, h=SQRT3 / 2, alpha=math.pi / 3, beta=math.pi / 3)
        assert t.b == pytest.approx(1.0, abs=1e-14)
        assert t.area == pytest.approx(3 * SQRT3 / 4, abs=1e-14)
        assert t.perimeter == pytest.approx(5.0, abs=1e-14)

    def test_rectangle(self):
        t = new_trapezoid(B=1, h=1, alpha=math.pi / 2, beta=math.pi / 2)
        assert t.b == pytest.approx(1.0)
        assert t.area == pytest.approx(1.0)
        assert t.perimeter == pytest.approx(4.0)

    def test_degenerate_rejected(self):
        with pytest.raises(DomainError):
            new_trapezoid(B=1, h=5, alpha=math.pi / 3, beta=math.pi / 3)

    @pytest.mark.parametrize(
        "B, h", [(math.inf, 1.0), (math.nan, 1.0), (2.0, math.inf), (2.0, math.nan)]
    )
    def test_non_finite_side_rejected(self, B, h):
        with pytest.raises(DomainError):
            new_trapezoid(B=B, h=h, alpha=1.2, beta=1.0)

    def test_angle_ordering_rejected(self):
        with pytest.raises(DomainError):
            new_trapezoid(B=1, h=0.1, alpha=0.5, beta=1.0)
        with pytest.raises(DomainError):
            new_trapezoid(B=1, h=0.1, alpha=2.0, beta=0.5)

    def test_b_identity_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            t = random_trapezoid(rng)
            lhs = t.b + t.h * (1 / math.tan(t.alpha) + 1 / math.tan(t.beta))
            assert lhs == pytest.approx(t.B, rel=1e-14)


class TestAngleInvariant:
    def test_rectangle_value(self):
        t = new_trapezoid(B=1, h=1, alpha=math.pi / 2, beta=math.pi / 2)
        assert angle_invariant(t).q == pytest.approx(Q_RECTANGLE, abs=1e-15)

    def test_pi_thirds(self):
        t = new_trapezoid(B=2, h=0.5, alpha=math.pi / 3, beta=math.pi / 3)
        assert angle_invariant(t).q == pytest.approx(9 / math.pi**2, rel=1e-14)

    def test_minimum_attained_only_at_rectangle(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            t = random_trapezoid(rng)
            q = angle_invariant(t).q
            assert q >= Q_RECTANGLE - 1e-15
            if abs(q - Q_RECTANGLE) < 1e-12:
                assert abs(t.alpha - math.pi / 2) < 1e-6
                assert abs(t.beta - math.pi / 2) < 1e-6

    @given(st.floats(min_value=0.05, max_value=math.pi / 2 - 1e-3))
    @settings(max_examples=200, deadline=None)
    def test_corner_f_inverse_round_trip(self, x):
        # the root is ill-conditioned at the double root x = pi/2, hence the
        # bounded strategy
        assert corner_f_inverse(corner_f(x)) == pytest.approx(x, rel=1e-11)

    @given(
        st.floats(min_value=0.05, max_value=math.pi / 2),
        st.floats(min_value=0.05, max_value=math.pi / 2),
    )
    @settings(max_examples=200, deadline=None)
    def test_corner_f_decreasing(self, x, y):
        # rounding can reverse F between nearby doubles; 1e-6 apart, F falls
        # by at least 4e-13 relative, even where F' = 0 at pi/2
        if y - x >= 1e-6:
            assert corner_f(x) > corner_f(y)


class TestCornerSum:
    def test_unit_square(self):
        sq = Polygon(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float))
        assert heat_corner_sum(sq) == pytest.approx(0.25, abs=1e-15)

    def test_trapezoid_identity(self):
        # corner sum equals (pi^2/24) q - 1/12 for every trapezoid
        rng = np.random.default_rng(2)
        for _ in range(100):
            t = random_trapezoid(rng)
            q = angle_invariant(t).q
            assert heat_corner_sum(vertices(t)) == pytest.approx(
                (math.pi**2 / 24) * q - 1 / 12, abs=1e-12
            )

    def test_polygon_properties(self):
        t = new_trapezoid(B=2, h=1, alpha=1.2, beta=0.9)
        p = vertices(t)
        assert p.area == pytest.approx(t.area, rel=1e-13)
        assert p.perimeter == pytest.approx(t.perimeter, rel=1e-13)
        assert p.is_convex()
        star = Polygon(
            [[math.cos(math.radians(a)), math.sin(math.radians(a))] for a in (0, 144, 288, 72, 216)]
        )
        assert star.area > 0 and not star.is_convex()
        angles = p.interior_angles()
        assert np.sum(angles) == pytest.approx(2 * math.pi, abs=1e-12)
        assert sorted(angles) == pytest.approx(
            sorted([t.alpha, t.beta, math.pi - t.alpha, math.pi - t.beta]), abs=1e-12
        )


class TestOrbitCatalog:
    def test_equilateral_example(self):
        t = new_trapezoid(B=2, h=1.2, alpha=math.pi / 3, beta=math.pi / 3)
        cat = orbit_catalog(t)
        assert cat.fagnano.length == pytest.approx(3.0, rel=1e-14)
        assert cat.fagnano.exists_inside  # 1.2 >= sqrt(3)/2
        assert cat.two_h_alpha.length == pytest.approx(2 * SQRT3, rel=1e-14)
        assert cat.two_h == pytest.approx(2.4)

    def test_right_angle_degenerate_fagnano(self):
        t = new_trapezoid(B=2, h=1.0, alpha=math.pi / 2, beta=1.0)
        cat = orbit_catalog(t)
        assert cat.fagnano.degenerate
        assert cat.fagnano.length == pytest.approx(cat.two_h_alpha.length, rel=1e-14)
        assert cat.two_h_alpha.length == pytest.approx(4 * math.sin(1.0), rel=1e-14)

    def test_2h_below_2h_alpha_for_special_alpha(self):
        # alpha in {pi/3, pi/4} forces 2h < 2h_alpha whenever the catalog is valid
        rng = np.random.default_rng(3)
        for alpha in (math.pi / 3, math.pi / 4):
            for _ in range(200):
                beta = rng.uniform(0.3, alpha)
                B = rng.uniform(0.8, 3.0)
                cots = 1 / math.tan(alpha) + 1 / math.tan(beta)
                h = rng.uniform(0.1, 0.95) * B / cots
                t = Trapezoid(B=B, h=h, alpha=alpha, beta=beta)
                cat = orbit_catalog(t)
                assert cat.two_h < cat.two_h_alpha.length

    def test_fagnano_absent_for_obtuse_extended_triangle(self):
        rng = np.random.default_rng(4)
        n_checked = 0
        for _ in range(500):
            t = random_trapezoid(rng)
            if t.alpha + t.beta < math.pi / 2:
                n_checked += 1
                assert not orbit_catalog(t).fagnano.exists_inside
        assert n_checked > 10

    def test_h_alpha_below_fagnano_double(self):
        # Whenever the Fagnano orbit exists: 2 h_alpha < 2 l_F
        rng = np.random.default_rng(5)
        n_checked = 0
        for _ in range(500):
            t = random_trapezoid(rng)
            cat = orbit_catalog(t)
            if cat.fagnano.exists_inside:
                n_checked += 1
                assert cat.two_h_alpha.length < 2 * cat.fagnano.length
        assert n_checked > 50
