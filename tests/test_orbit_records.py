"""The word searches against records written by earlier walks.

data/orbit_records.json holds every ClosedGeodesic that enumerate_orbits
returned for SHAPES when the edge-start walk still started every closed word
at each of its rotations. Restricting the walk to prenecklace words must not
change one record: the class representative kept is the lexicographically
least word over rotations and reversals, which is a necklace.

Its "diagonals" section holds, per shape, the number of chains that
find_generalized_diagonals returned when the vertex-start walk still built
corridor hulls, and the SHA-256 of their to_dict() JSON lines: tracking the
cone of directions at the start vertex instead must not change one byte.
Rewrite the file with `PYTHONPATH=src python tests/test_orbit_records.py`
only when the enumeration's output is meant to change.

The same shapes check that the searches give the same bytes whether their
start walks run on the worker pool or in-process.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from trapspec import workers
from trapspec.billiards import enumerate_orbits, find_generalized_diagonals, length_spectrum
from trapspec.geometry import Polygon, new_trapezoid, random_trapezoid, vertices

RECORDS = Path(__file__).resolve().parent / "data" / "orbit_records.json"
RANDOM_SEED = 7
RANDOM_DRAWS = 24


def _rectangle(a: float, c: float) -> Polygon:
    return Polygon([[0.0, 0.0], [c, 0.0], [c, a], [0.0, a]])


def _shapes() -> dict[str, tuple[Polygon, float]]:
    """name -> (polygon, lmax)."""
    shapes = {
        "square": (_rectangle(1.0, 1.0), 10.0),
        "rectangle_1x1.3": (_rectangle(1.0, 1.3), 8.0),
        "pi3_pi3": (vertices(new_trapezoid(B=2, h=1.2, alpha=math.pi / 3, beta=math.pi / 3)), 6.0),
        "pi2_pi4": (vertices(new_trapezoid(B=1.5, h=0.8, alpha=math.pi / 2, beta=math.pi / 4)), 5.0),
    }
    # scaled to diameter 2 and enumerated to twice the diameter, as the
    # orbits benchmark does
    rng = np.random.default_rng(RANDOM_SEED)
    for i in range(RANDOM_DRAWS):
        t = random_trapezoid(rng, height_fraction=(0.3, 0.85))
        s = 2.0 / vertices(t).diameter
        poly = vertices(new_trapezoid(B=t.B * s, h=t.h * s, alpha=t.alpha, beta=t.beta))
        shapes[f"random{i}"] = (poly, 4.0)
    return shapes


def _record(g) -> dict:
    return {
        "word": list(g.word),
        "kind": g.kind,
        "parity": g.parity,
        "multiplicity": g.multiplicity,
        "length": g.length,
        "basepoint": g.basepoint.tolist(),
        "direction": g.direction.tolist(),
        "width": g.width,
        "swept_area": g.swept_area,
    }


def _diagonal_digest(poly, lmax) -> dict:
    lines = "".join(json.dumps(c.to_dict()) + "\n" for c in find_generalized_diagonals(poly, lmax))
    return {"chains": lines.count("\n"), "sha256": hashlib.sha256(lines.encode()).hexdigest()}


SHAPES = _shapes()
EXACT = ("word", "kind", "parity", "multiplicity")
CLOSE = ("length", "basepoint", "direction", "width", "swept_area")


@pytest.fixture(scope="module")
def expected():
    return json.loads(RECORDS.read_text())


@pytest.mark.parametrize("name", list(SHAPES))
def test_records_unchanged(name, expected):
    poly, lmax = SHAPES[name]
    got = [_record(g) for g in enumerate_orbits(poly, lmax)]
    want = expected[name]
    assert [[g[k] for k in EXACT] for g in got] == [[w[k] for k in EXACT] for w in want]
    for g, w in zip(got, want):
        for k in CLOSE:
            # vector components may be zero: compare them on the shape's scale
            np.testing.assert_allclose(g[k], w[k], rtol=1e-12, atol=1e-12 * poly.diameter)


@pytest.mark.parametrize("name", list(SHAPES))
def test_diagonal_records_unchanged(name, expected):
    poly, lmax = SHAPES[name]
    assert _diagonal_digest(poly, lmax) == expected["diagonals"][name]


def _outputs(poly, lmax) -> tuple:
    """Every output of the three searches, float fields as their exact bytes."""
    return (
        length_spectrum(poly, lmax).to_json_lines(),
        [
            (json.dumps(g.to_dict()), g.basepoint.tobytes(), g.direction.tobytes())
            for g in enumerate_orbits(poly, lmax)
        ],
        [json.dumps(c.to_dict()) for c in find_generalized_diagonals(poly, lmax)],
    )


@pytest.mark.parametrize("name", list(SHAPES))
def test_pool_matches_one_core(name, monkeypatch):
    # the start walks run on the worker pool when there are two cores or
    # more, in-process on one; the merged outputs must not tell which
    poly, lmax = SHAPES[name]
    pooled = _outputs(poly, lmax)
    monkeypatch.setattr(workers, "cores", lambda: 1)
    assert _outputs(poly, lmax) == pooled


if __name__ == "__main__":
    out = {name: [_record(g) for g in enumerate_orbits(poly, lmax)] for name, (poly, lmax) in SHAPES.items()}
    n_records = sum(map(len, out.values()))
    out["diagonals"] = {
        name: _diagonal_digest(poly, lmax) for name, (poly, lmax) in SHAPES.items()
    }
    n_chains = sum(d["chains"] for d in out["diagonals"].values())
    RECORDS.parent.mkdir(exist_ok=True)
    RECORDS.write_text(json.dumps(out, indent=1) + "\n")
    print(f"{RECORDS}: {n_records} records and {n_chains} chains over {len(SHAPES)} shapes")
