"""Meshes of the FEM ladder against digests written by earlier code.

data/mesh_digests.json holds, for each level of each ladder in LADDERS, the
SHA-256 of the bytes of its nodes, triangles and boundary mask, and the
triangles' dtype, as written when `triangulate` and `refine_uniform` still
found boundary nodes by their distance to the polygon and numbered midpoints
through a per-triangle dict. Flagging boundary nodes where they are made and
refining through one edge table must not change one byte. Rewrite the file
with `PYTHONPATH=src python tests/test_mesh.py` only when the meshes are
meant to change.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from trapspec.geometry import Polygon, new_trapezoid, random_trapezoid, vertices
from trapspec.mesh import _boundary_distance, refine_uniform, triangulate

DIGESTS = Path(__file__).resolve().parent / "data" / "mesh_digests.json"


def _rectangle(a: float, c: float) -> Polygon:
    return Polygon([[0.0, 0.0], [c, 0.0], [c, a], [0.0, a]])


# name -> (polygon, finest mesh size, levels), each as compute_spectrum meshes it
LADDERS = {
    "flagship": (
        vertices(new_trapezoid(B=2.0, h=1.0, alpha=math.radians(75), beta=math.radians(60))), 0.012, 2
    ),
    "rectangle_1x1.3": (_rectangle(1.0, 1.3), 0.02, 2),
    "readme_trapezoid": (vertices(new_trapezoid(B=2.0, h=1.0, alpha=1.309, beta=1.0472)), 0.05, 3),
    "unit_square": (_rectangle(1.0, 1.0), 1 / 32, 3),
    "right_isosceles": (Polygon([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), 0.05, 2),
    "equilateral": (Polygon([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]]), 0.05, 2),
}


def _ladder(poly: Polygon, mesh_size: float, levels: int) -> list:
    mesh = triangulate(poly, mesh_size * 2 ** (levels - 1))
    meshes = [mesh]
    for _ in range(levels - 1):
        mesh = refine_uniform(mesh)
        meshes.append(mesh)
    return meshes


def _digest(mesh) -> dict:
    def sha(a):
        return hashlib.sha256(a.tobytes()).hexdigest()

    return {
        "nodes": sha(mesh.nodes),
        "triangles": sha(mesh.triangles),
        "triangles_dtype": mesh.triangles.dtype.str,
        "boundary_mask": sha(mesh.boundary_mask),
    }


@pytest.mark.parametrize("name", list(LADDERS))
def test_meshes_unchanged(name):
    want = json.loads(DIGESTS.read_text())[name]
    assert [_digest(m) for m in _ladder(*LADDERS[name])] == want


def _flag_shapes(count: int = 20, seed: int = 5) -> dict[str, Polygon]:
    """The ladders' polygons and `count` seeded random trapezoids."""
    rng = np.random.default_rng(seed)
    shapes = {name: poly for name, (poly, *_) in LADDERS.items()}
    for i in range(count):
        shapes[f"random{i}"] = vertices(random_trapezoid(rng))
    return shapes


FLAG_SHAPES = _flag_shapes()


@pytest.mark.parametrize("name", list(FLAG_SHAPES))
def test_boundary_flags_match_distance_rule(name):
    # the rule the flags replaced: a node lies on the boundary when it lies
    # within 1e-9 diameters of an edge
    poly = FLAG_SHAPES[name]
    edges = poly.edges()
    shortest = float(np.min(np.linalg.norm(edges[:, 1] - edges[:, 0], axis=1)))
    mesh = triangulate(poly, min(shortest, poly.diameter / 6))
    for level in range(3):
        if level:
            mesh = refine_uniform(mesh)
        rule = _boundary_distance(mesh.nodes, poly) < 1e-9 * poly.diameter
        assert np.array_equal(mesh.boundary_mask, rule), level


if __name__ == "__main__":
    out = {name: [_digest(m) for m in _ladder(*ladder)] for name, ladder in LADDERS.items()}
    DIGESTS.write_text(json.dumps(out, indent=1) + "\n")
