import math

import numpy as np
import pytest

from trapspec.planar import (
    _hull_pts,
    hulls_separated,
    point_segment_distance,
    seg_dist_pts,
    segments_cross,
)


class TestHullPts:
    def test_single_and_duplicate_points(self):
        assert _hull_pts([(1.0, 1.0)]) == [(1.0, 1.0)]
        assert _hull_pts([(1.0, 1.0), (1.0, 1.0)]) == [(1.0, 1.0)]

    def test_collinear_points_collapse_to_segment(self):
        pts = [(2.0, 0.0), (0.0, 0.0), (1.0, 0.0), (0.5, 0.0)]
        assert _hull_pts(pts) == [(0.0, 0.0), (2.0, 0.0)]

    def test_square_ccw_drops_interior_and_edge_points(self):
        pts = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5), (0.5, 0), (1, 0.5)]
        assert _hull_pts(pts) == [(0, 0), (1, 0), (1, 1), (0, 1)]


class TestHullsSeparated:
    def test_point_point(self):
        assert not hulls_separated([(1.0, 2.0)], [(1.0, 2.0)])
        assert hulls_separated([(1.0, 2.0)], [(1.0, 2.5)])

    def test_collinear_segments(self):
        seg = [(0.0, 0.0), (2.0, 0.0)]
        assert not hulls_separated(seg, [(1.0, 0.0), (3.0, 0.0)])  # overlap
        assert hulls_separated(seg, [(2.5, 0.0), (3.0, 0.0)])  # disjoint
        assert hulls_separated([(2.5, 0.0), (3.0, 0.0)], seg)

    def test_point_and_segment(self):
        seg = [(0.0, 0.0), (2.0, 0.0)]
        assert not hulls_separated([(1.0, 0.0)], seg)  # on the segment
        assert not hulls_separated(seg, [(1.0, 0.0)])
        assert hulls_separated([(3.0, 0.0)], seg)  # on its line, beyond an end
        assert hulls_separated([(1.0, 1e-3)], seg)

    def test_touching_counts_as_separated_only_under_negative_tol(self):
        a = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        b = [(1.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, 1.0)]
        assert not hulls_separated(a, b)
        assert hulls_separated(a, b, tol=-1e-9)

    def test_triangles(self):
        tri = _hull_pts([(0, 0), (1, 0), (0, 1)])
        assert hulls_separated(tri, _hull_pts([(1, 1), (2, 1), (1, 2)]))
        assert not hulls_separated(tri, _hull_pts([(0.2, 0.2), (2, 0.2), (0.2, 2)]))


def _sampled_distance(a0, a1, b0, b1, n=401):
    s = np.linspace(0.0, 1.0, n)[:, None]
    pa = a0 + s * (a1 - a0)
    pb = b0 + s * (b1 - b0)
    return float(np.min(np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=2)))


class TestSegDistPts:
    def test_matches_sampled_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a0, a1, b0, b1 = rng.uniform(-1, 1, size=(4, 2))
            d = seg_dist_pts(*a0, *a1, *b0, *b1)
            brute = _sampled_distance(a0, a1, b0, b1)
            step = (np.linalg.norm(a1 - a0) + np.linalg.norm(b1 - b0)) / 400
            assert d <= brute + 1e-12
            assert brute - d <= step

    def test_crossing_is_zero(self):
        assert seg_dist_pts(0, 0, 2, 2, 0, 2, 2, 0) == 0.0

    def test_parallel_and_collinear(self):
        assert seg_dist_pts(0, 0, 1, 0, 0, 1, 1, 1) == pytest.approx(1.0)
        assert seg_dist_pts(0, 0, 1, 0, 3, 0, 4, 0) == pytest.approx(2.0)

    def test_degenerate_segment_is_point_distance(self):
        p = np.array([0.3, 0.7])
        a, b = np.array([0.0, 0.0]), np.array([1.0, 0.0])
        assert seg_dist_pts(*p, *p, *a, *b) == pytest.approx(
            point_segment_distance(p, a, b), abs=1e-15
        )
        assert point_segment_distance(np.array([2.0, 1.0]), a, b) == pytest.approx(
            math.sqrt(2)
        )


class TestSegmentsCross:
    def test_crossing_parameters(self):
        p0, p1 = np.array([0.0, 0.0]), np.array([2.0, 2.0])
        q0, q1 = np.array([0.0, 2.0]), np.array([4.0, -2.0])
        s, t = segments_cross(p0, p1, q0, q1)
        assert np.allclose(p0 + s * (p1 - p0), q0 + t * (q1 - q0))
        assert (s, t) == pytest.approx((0.5, 0.25))

    def test_touching_is_not_a_crossing(self):
        p0, p1 = np.array([0.0, 0.0]), np.array([1.0, 0.0])
        # shared endpoint
        assert segments_cross(p0, p1, np.array([1.0, 0.0]), np.array([1.0, 1.0])) is None
        # endpoint on the other's interior (T junction)
        assert segments_cross(p0, p1, np.array([0.5, 0.0]), np.array([0.5, 1.0])) is None

    def test_parallel_and_apart(self):
        p0, p1 = np.array([0.0, 0.0]), np.array([1.0, 0.0])
        assert segments_cross(p0, p1, np.array([0.0, 1.0]), np.array([1.0, 1.0])) is None
        assert segments_cross(p0, p1, np.array([2.0, -1.0]), np.array([2.0, 1.0])) is None

    def test_tol_excludes_near_endpoint_crossings(self):
        p0, p1 = np.array([0.0, 0.0]), np.array([1.0, 0.0])
        q0, q1 = np.array([0.01, -1.0]), np.array([0.01, 1.0])
        assert segments_cross(p0, p1, q0, q1) is not None
        assert segments_cross(p0, p1, q0, q1, tol=0.05) is None
