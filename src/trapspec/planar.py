"""Small planar geometry kit for billiard unfolding.

Isometries compose edge reflections. The hull, separating-axis, crossing
and distance helpers work on plain (x, y) tuples and scalars, because the
reflection-word search calls them at every node: the segment distance from
an edge start and the point-segment distance from a vertex start; the
hulls, the crossing depth and the separating-axis test only from an edge
(closed orbits). There `hulls_separated` returns the separating axis it
found, which the search keeps as a witness, and runs only for children
that neither the witness nor `crossing_depth` decides. From a vertex
(generalized diagonals) the search tracks a cone of directions at the
vertex instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def cross2(u, v):
    return u[0] * v[1] - u[1] * v[0]


@dataclass(frozen=True)
class Isometry:
    """Affine isometry p -> A p + t with A orthogonal."""

    a: np.ndarray  # (2, 2)
    t: np.ndarray  # (2,)

    @classmethod
    def identity(cls) -> "Isometry":
        return cls(np.eye(2), np.zeros(2))

    @classmethod
    def reflection(cls, p: np.ndarray, q: np.ndarray) -> "Isometry":
        """Reflection across the line through p and q."""
        u = q - p
        u = u / np.linalg.norm(u)
        a = np.array(
            [
                [u[0] * u[0] - u[1] * u[1], 2 * u[0] * u[1]],
                [2 * u[0] * u[1], u[1] * u[1] - u[0] * u[0]],
            ]
        )
        return cls(a, p - a @ p)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return pts @ self.a.T + self.t

    def compose(self, other: "Isometry") -> "Isometry":
        """self after other: (self.compose(other))(p) = self(other(p))."""
        return Isometry(self.a @ other.a, self.a @ other.t + self.t)


def _hull_pts(points):
    """Monotone-chain hull over (x, y) tuples; collinear points are dropped."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def half(seq):
        out = []
        for p in seq:
            while (
                len(out) >= 2
                and (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])
                <= 0
            ):
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    return lower[:-1] + upper[:-1]


def hulls_separated(ha, hb, tol: float = 1e-12) -> tuple[float, float] | None:
    """Separating-axis test for two convex hull vertex lists of (x, y) tuples.

    Returns a unit axis (x, y) along which every point of ha projects more
    than tol beyond every point of hb, or None when no axis tried does. The
    axes tried are the hull edge normals, so for overlapping hulls the axis
    of least overlap over all directions is among them, and for disjoint
    hulls a separating one is. Degenerate (point/segment) hulls contribute
    their own direction axes so collinear configurations separate correctly.
    """
    if len(ha) == 1 and len(hb) == 1:
        dx, dy = ha[0][0] - hb[0][0], ha[0][1] - hb[0][1]
        d = math.hypot(dx, dy)
        if d <= tol:
            return None
        return (dx / d, dy / d) if d else (1.0, 0.0)  # coincident: every axis ties at 0
    axes = []
    for h in (ha, hb):
        m = len(h)
        for i in range(m if m > 2 else m - 1):
            ex = h[(i + 1) % m][0] - h[i][0]
            ey = h[(i + 1) % m][1] - h[i][1]
            axes.append((-ey, ex))
            if m == 2:
                axes.append((ex, ey))  # collinear segments need the direction axis
    for ax, ay in axes:
        n = math.hypot(ax, ay)
        if n == 0.0:
            continue
        ax, ay = ax / n, ay / n
        amin = amax = ha[0][0] * ax + ha[0][1] * ay
        for px, py in ha:
            v = px * ax + py * ay
            if v < amin:
                amin = v
            elif v > amax:
                amax = v
        bmin = bmax = hb[0][0] * ax + hb[0][1] * ay
        for px, py in hb:
            v = px * ax + py * ay
            if v < bmin:
                bmin = v
            elif v > bmax:
                bmax = v
        if amin > bmax + tol:
            return (ax, ay)
        if bmin > amax + tol:
            return (-ax, -ay)
    return None


def crossing_depth(a0x, a0y, a1x, a1y, b0x, b0y, b1x, b1y) -> float:
    """How deeply segments [a0, a1] and [b0, b1] cross, or 0 if they do not.

    With crossing parameters s and t, directions d1 and d2 and the angle phi
    between them, the depth is min(e1, e2) |sin phi|, where e1 = min(s, 1-s)
    |d1| and e2 = min(t, 1-t) |d2| are how far each segment reaches past the
    crossing point X both ways. Any convex sets that contain one segment
    each then overlap by at least the depth along every unit direction u:
    both projections contain X.u, one reaches e1 |cos(u, d1)| beyond it on
    one side, the other e2 |cos(u, d2)| on the other, and |cos a| + |cos b|
    >= |sin(a - b)|. Parallel and collinear segments and crossings at an
    endpoint have depth 0.
    """
    d1x, d1y = a1x - a0x, a1y - a0y
    d2x, d2y = b1x - b0x, b1y - b0y
    denom = d1x * d2y - d1y * d2x
    if denom == 0.0:
        return 0.0
    wx, wy = b0x - a0x, b0y - a0y
    s = (wx * d2y - wy * d2x) / denom
    t = (wx * d1y - wy * d1x) / denom
    if not (0.0 < s < 1.0 and 0.0 < t < 1.0):
        return 0.0
    # |sin phi| = |denom| / (|d1| |d2|)
    return abs(denom) * min(
        min(s, 1.0 - s) / math.hypot(d2x, d2y), min(t, 1.0 - t) / math.hypot(d1x, d1y)
    )


def pt_seg(px, py, qx, qy, rx, ry) -> float:
    """Distance from point p to segment [q, r]."""
    dx, dy = rx - qx, ry - qy
    dd = dx * dx + dy * dy
    t = ((px - qx) * dx + (py - qy) * dy) / dd if dd > 1e-30 else 0.0
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    return math.hypot(px - qx - t * dx, py - qy - t * dy)


def seg_dist_pts(a0x, a0y, a1x, a1y, b0x, b0y, b1x, b1y) -> float:
    """Scalar segment-to-segment distance (pure Python, for tight loops)."""
    d1x, d1y = a1x - a0x, a1y - a0y
    d2x, d2y = b1x - b0x, b1y - b0y
    denom = d1x * d2y - d1y * d2x
    if abs(denom) > 1e-30:
        wx, wy = b0x - a0x, b0y - a0y
        s = (wx * d2y - wy * d2x) / denom
        t = (wx * d1y - wy * d1x) / denom
        if 0.0 <= s <= 1.0 and 0.0 <= t <= 1.0:
            return 0.0
    return min(
        pt_seg(a0x, a0y, b0x, b0y, b1x, b1y),
        pt_seg(a1x, a1y, b0x, b0y, b1x, b1y),
        pt_seg(b0x, b0y, a0x, a0y, a1x, a1y),
        pt_seg(b1x, b1y, a0x, a0y, a1x, a1y),
    )
