"""Conforming P1 triangulations of convex polygons with uniform refinement."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay

from .errors import MeshError
from .geometry import Polygon

MAX_ANGLE_CAP = math.radians(150.0)


@dataclass
class Mesh:
    nodes: np.ndarray  # (n, 2)
    triangles: np.ndarray  # (m, 3) int
    boundary_mask: np.ndarray  # (n,) bool

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


def _boundary_distance(points: np.ndarray, polygon: Polygon) -> np.ndarray:
    """Distance from each point to the polygon boundary (segments)."""
    v = polygon.vertices
    a = v
    b = np.roll(v, -1, axis=0)
    ab = b - a  # (e, 2)
    ab2 = np.einsum("ij,ij->i", ab, ab)
    ap = points[:, None, :] - a[None, :, :]  # (p, e, 2)
    t = np.clip(np.einsum("pej,ej->pe", ap, ab) / ab2[None, :], 0.0, 1.0)
    closest = a[None, :, :] + t[:, :, None] * ab[None, :, :]
    d = np.linalg.norm(points[:, None, :] - closest, axis=2)
    return d.min(axis=1)


def _boundary_points(polygon: Polygon, target_h: float) -> np.ndarray:
    pts = []
    v = polygon.vertices
    for k in range(len(v)):
        a, b = v[k], v[(k + 1) % len(v)]
        n_seg = max(1, int(math.ceil(np.linalg.norm(b - a) / target_h)))
        for j in range(n_seg):
            pts.append(a + (b - a) * (j / n_seg))
    return np.array(pts)


def triangulate(polygon: Polygon, target_h: float) -> Mesh:
    """Delaunay mesh of a convex polygon at characteristic size target_h.

    Interior points are laid on a staggered grid, dropping points too close
    to the boundary so boundary slivers cannot form. Convexity guarantees
    the Delaunay triangulation covers the polygon exactly.
    """
    if not polygon.is_convex():
        raise MeshError("only convex polygons are supported")
    bpts = _boundary_points(polygon, target_h)
    v = polygon.vertices
    lo, hi = v.min(axis=0), v.max(axis=0)
    nx = max(2, int(math.ceil((hi[0] - lo[0]) / target_h)))
    ny = max(2, int(math.ceil((hi[1] - lo[1]) / (target_h * math.sqrt(3) / 2))))
    xs = np.linspace(lo[0], hi[0], nx + 1)
    ys = np.linspace(lo[1], hi[1], ny + 1)
    gx, gy = np.meshgrid(xs, ys)
    gx[1::2] += (xs[1] - xs[0]) / 2.0  # stagger alternate rows
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    inside = _points_inside(grid, polygon)
    grid = grid[inside]
    if len(grid):
        grid = grid[_boundary_distance(grid, polygon) > 0.5 * target_h]
    nodes = np.vstack([bpts, grid]) if len(grid) else bpts
    tri = Delaunay(nodes)
    triangles = tri.simplices.copy()
    nodes = tri.points.copy()

    p = nodes[triangles]
    d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])  # signed
    keep = np.abs(areas) > 1e-13 * polygon.diameter**2
    triangles = triangles[keep]
    # enforce counterclockwise element orientation
    flip = areas[keep] < 0
    triangles[flip] = triangles[flip][:, ::-1]

    # Delaunay keeps input order, so the boundary points come first
    boundary_mask = np.arange(len(nodes)) < len(bpts)
    mesh = Mesh(nodes=nodes, triangles=triangles, boundary_mask=boundary_mask)
    _check_quality(mesh)
    return mesh


def _points_inside(points: np.ndarray, polygon: Polygon) -> np.ndarray:
    v = polygon.vertices
    a = v
    b = np.roll(v, -1, axis=0)
    ab = b - a
    ap = points[:, None, :] - a[None, :, :]
    cr = ab[None, :, 0] * ap[:, :, 1] - ab[None, :, 1] * ap[:, :, 0]
    return np.all(cr >= 0.0, axis=1)


def _check_quality(mesh: Mesh) -> None:
    p = mesh.nodes[mesh.triangles]
    for i in range(3):
        u = p[:, (i + 1) % 3] - p[:, i]
        w = p[:, (i + 2) % 3] - p[:, i]
        cosang = np.einsum("ij,ij->i", u, w) / (
            np.linalg.norm(u, axis=1) * np.linalg.norm(w, axis=1)
        )
        ang = np.arccos(np.clip(cosang, -1.0, 1.0))
        if np.any(ang > MAX_ANGLE_CAP):
            raise MeshError(
                f"{int(np.sum(ang > MAX_ANGLE_CAP))} elements exceed the "
                f"{math.degrees(MAX_ANGLE_CAP):.0f} degree angle cap"
            )


def refine_uniform(mesh: Mesh) -> Mesh:
    """Quadrisect every triangle through its edge midpoints.

    Midpoints are numbered in order of first use, triangle by triangle and
    edges ab, bc, ca within each; a midpoint lies on the boundary exactly
    when its edge borders one triangle.
    """
    nodes, tris = mesh.nodes, mesh.triangles
    ends = tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)  # ab, bc, ca of each triangle
    lo, hi = ends.min(axis=1).astype(np.int64), ends.max(axis=1)
    _, first, inverse, counts = np.unique(
        lo * len(nodes) + hi, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(first)  # the table's edges in order of first use
    number = np.empty_like(order)
    number[order] = np.arange(len(nodes), len(nodes) + len(order))
    ab, bc, ca = number[inverse].astype(tris.dtype).reshape(-1, 3).T
    a, b, c = tris.T
    new_tris = np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca], axis=1).reshape(-1, 3)

    used = ends[first[order]]
    return Mesh(
        nodes=np.vstack([nodes, (nodes[used[:, 0]] + nodes[used[:, 1]]) / 2.0]),
        triangles=new_tris,
        boundary_mask=np.concatenate([mesh.boundary_mask, counts[order] == 1]),
    )
