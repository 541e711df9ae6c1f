import math

import numpy as np
import pytest

from trapspec.planar import _hull_pts, crossing_depth, hulls_separated, seg_dist_pts


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

    @pytest.mark.parametrize("swap", [False, True])
    def test_axis_puts_first_hull_beyond_second(self, swap):
        tri = _hull_pts([(0, 0), (1, 0), (0, 1)])
        far = _hull_pts([(1, 1), (2, 1), (1, 2)])
        ha, hb = (far, tri) if swap else (tri, far)
        ux, uy = hulls_separated(ha, hb)
        assert math.hypot(ux, uy) == pytest.approx(1.0)
        assert min(x * ux + y * uy for x, y in ha) > max(x * ux + y * uy for x, y in hb)

    def test_point_axis_points_away_from_second(self):
        assert hulls_separated([(1.0, 2.5)], [(1.0, 2.0)]) == (0.0, 1.0)
        assert hulls_separated([(1.0, 2.0)], [(1.0, 2.0)], tol=-1e-9) is not None


class TestCrossingDepth:
    def test_deep_crossings(self):
        assert crossing_depth(0, 0, 2, 0, 1, -1, 1, 1) == pytest.approx(1.0)
        # crossing at (1, 0), halfway along both; sin phi = 1/sqrt(2)
        assert crossing_depth(0, 0, 2, 0, 0, -1, 2, 1) == pytest.approx(math.sqrt(0.5))
        # a quarter of the way along both: each reaches |d|/4 past the crossing
        assert crossing_depth(0, 0, 4, 0, 1, -1, 1, 3) == pytest.approx(1.0)

    def test_shallow_crossing(self):
        # 1e-9 from the end of the second segment
        assert crossing_depth(-1, 2e-9, 1, 0, 0, 1, 0, 0) == pytest.approx(1e-9, rel=1e-6)

    @pytest.mark.parametrize(
        "segments",
        [
            (0, 0, 2, 0, 1, 0, 1, 1),  # T-junction: the crossing is an endpoint
            (0, 0, 2, 0, 2, 0, 3, 1),  # shared endpoint
            (0, 0, 1, 0, 0, 1, 1, 1),  # parallel
            (0, 0, 2, 0, 1, 0, 3, 0),  # collinear and overlapping
            (0, 0, 1, 0, 2, -1, 2, 1),  # apart
            (0, 0, 0, 0, 1, -1, 1, 1),  # a point
        ],
        ids=["t_junction", "shared_endpoint", "parallel", "collinear", "apart", "point"],
    )
    def test_no_crossing_has_depth_zero(self, segments):
        assert crossing_depth(*segments) == 0.0


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
        # a zero-length first segment measures point-to-segment distance
        assert seg_dist_pts(0.3, 0.7, 0.3, 0.7, 0.0, 0.0, 1.0, 0.0) == pytest.approx(
            0.7, abs=1e-15
        )
        assert seg_dist_pts(2.0, 1.0, 2.0, 1.0, 0.0, 0.0, 1.0, 0.0) == pytest.approx(
            math.sqrt(2)
        )
