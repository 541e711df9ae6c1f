"""The three benchmark workloads: inputs from a seed, timed calls, checks.

A workload is set up once per run (`setup`) and then yields passes of
operations (`ops`). Each operation is one call into the public API, timed on
its own; its check runs outside the timed region against a reference from
checks.py. Pass p draws fresh inputs from (seed, p), so no two passes of a run
repeat an input and an exact-key cache cannot fake a gain.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import trapspec
from trapspec import DIRICHLET, Rectangle, Spectrum, exact_rectangle_spectrum, new_trapezoid, vertices
from trapspec.geometry import Q_RECTANGLE, Polygon, corner_f

import checks

DATA = Path(__file__).resolve().parent / "data"


@dataclass
class Op:
    label: str
    run: Callable[[], Any]  # the timed call
    check: Callable[[Any], dict]  # {"ok", "detail", and any accuracy figures}
    known_defect: str | None = None


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def rectangle_polygon(a: float, c: float) -> Polygon:
    return Polygon([[0.0, 0.0], [c, 0.0], [c, a], [0.0, a]])


class Flagship:
    """Polygon -> compute_spectrum -> scan_and_reconstruct, plus a rectangle oracle.

    The flagship trapezoid B=2, h=1, alpha=75, beta=60 (solved at n=800) is
    moved by a seeded translation, so every seed gives new input coordinates
    for the same eigenproblem. The shape itself is not jittered: with +-2% on
    B and h and +-2 degrees on the angles, four seeds spread the flagship's
    shape error over 0.014-0.040 (and over 0.0030-0.0040 even at +-0.1%),
    because the mesh and the wave-trace peak grid move with the geometry.
    The 1 x 1.3 oracle rectangle stays at the origin: its interior grid rows
    sit exactly half a mesh step from its edges, so any translation changes
    its mesh by rounding. The eigensolve is ~99% of a pass.
    """

    name = "flagship"
    TRUTH = new_trapezoid(B=2.0, h=1.0, alpha=math.radians(75), beta=math.radians(60))
    SOLVE = {"n": 800, "mesh_size": 0.012, "refine_levels": 2}
    RECT = (1.0, 1.3)
    RECT_SOLVE = {"n": 400, "mesh_size": 0.02, "refine_levels": 2}

    def __init__(self, seed: int):
        self.seed = seed
        self.rectangle = rectangle_polygon(*self.RECT)
        self.exact = exact_rectangle_spectrum(*self.RECT, self.RECT_SOLVE["n"]).eigenvalues

    def ops(self, p: int) -> list[Op]:
        shift = _rng(self.seed, p).uniform(-1.0, 1.0, 2)
        trapezoid = Polygon(vertices(self.TRUTH).vertices + shift)

        def full_path():
            spectrum = trapspec.compute_spectrum(trapezoid, **self.SOLVE)
            return trapspec.scan_and_reconstruct(spectrum)

        return [
            Op(
                "rectangle",
                lambda: trapspec.compute_spectrum(self.rectangle, **self.RECT_SOLVE),
                lambda s: checks.check_rectangle_spectrum(s, self.exact),
            ),
            Op("flagship", full_path, lambda report: checks.check_reconstruction(self.TRUTH, report)),
        ]


class Orbits:
    """length_spectrum at depth on the unit square and on moved trapezoids.

    The square up to lmax=10 is the deep, rational-angle case. The trapezoid
    batch is a fixed draw of BATCH random_trapezoid shapes away from
    rectangles (q >= 8/pi^2 + 1e-2), slivers and near-triangles (height
    0.3-0.85 of the height at which b reaches 0), each scaled to diameter 2
    and enumerated to lmax=4, twice the diameter, which covers every catalog
    length. As in Flagship, the seed moves each shape by a translation, so
    every pass sees new coordinates for the same enumeration. Half the batch
    runs before the square and half after it, so the median operation
    samples the host over the whole pass.

    op_p50_s is the median of one pass's operations, so the batch is large
    and its costs dense near the median (0.05-0.15 s for most shapes, a tail
    to 1.5 s). With 12 shapes at lmax=5 the median was a single 0.3 s shape,
    and its time spread by 36% over ten seeds. Jittering the shapes instead
    (+-2% on B and h, +-1 degree on the angles) changed single shapes' costs
    up to twofold between seeds and spread the median by 27% over five.
    Slivers cost 1-3 s each at this lmax and only lengthen the pass.
    """

    name = "orbits"
    SQUARE_LMAX = 10.0
    DIAMETER = 2.0
    LMAX = 2 * DIAMETER
    BATCH = 40
    HEIGHT_FRACTION = (0.3, 0.85)
    BATCH_SEED = 2009

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng(self.BATCH_SEED)
        self.batch = []
        while len(self.batch) < self.BATCH:
            t = trapspec.random_trapezoid(rng, height_fraction=self.HEIGHT_FRACTION)
            if corner_f(t.alpha) + corner_f(t.beta) >= Q_RECTANGLE + 1e-2:
                s = self.DIAMETER / vertices(t).diameter
                self.batch.append(new_trapezoid(B=t.B * s, h=t.h * s, alpha=t.alpha, beta=t.beta))
        self.square = rectangle_polygon(1.0, 1.0)

    def ops(self, p: int) -> list[Op]:
        square = Op(
            "square",
            lambda: trapspec.length_spectrum(self.square, self.SQUARE_LMAX).lengths,
            lambda lengths: checks.check_square_lengths(lengths, self.SQUARE_LMAX),
        )
        batch = []
        for i, t in enumerate(self.batch):
            moved = Polygon(vertices(t).vertices + _rng(self.seed, p, i).uniform(-1.0, 1.0, 2))
            batch.append(
                Op(
                    f"trapezoid{i}",
                    lambda moved=moved: trapspec.length_spectrum(moved, self.LMAX).lengths,
                    lambda lengths, t=t: checks.check_catalog_lengths(t, lengths, self.LMAX),
                )
            )
        half = len(batch) // 2
        return batch[:half] + [square] + batch[half:]


class Reconstruct:
    """scan_and_reconstruct alone, on the stored FEM spectra in data/.

    Each operation perturbs its stored spectrum by a fresh seeded relative
    amount of at most PERTURB times the spectrum's own per-eigenvalue accuracy
    estimate, far inside the FEM error, so every input is new but no answer
    should change. At 1e-2 the fitted-invariant and shape errors of the
    recovered shapes spread by 12% between seeds, at 1e-3 still by 5%.
    """

    name = "reconstruct"
    PERTURB = 1e-4

    def __init__(self, seed: int):
        self.seed = seed
        manifest = json.loads((DATA / "manifest.json").read_text())
        self.shapes = []
        for entry in manifest["shapes"]:
            body = (DATA / entry["file"]).read_bytes()
            digest = hashlib.sha256(body).hexdigest()
            if digest != entry["sha256"]:
                raise ValueError(f"{entry['file']}: sha256 {digest} does not match the manifest")
            stored = json.loads(body)
            self.shapes.append(
                (
                    entry,
                    true_shape(entry),
                    np.array(stored["eigenvalues"]),
                    np.array(stored["accuracy"]),
                )
            )

    def ops(self, p: int) -> list[Op]:
        out = []
        for i, (entry, truth, ev, acc) in enumerate(self.shapes):
            eps = _rng(self.seed, p, i).uniform(-1.0, 1.0, len(ev)) * self.PERTURB * acc
            spectrum = Spectrum(np.sort(ev * (1 + eps)), DIRICHLET, accuracy=acc)
            out.append(
                Op(
                    entry["name"],
                    lambda s=spectrum: trapspec.scan_and_reconstruct(s),
                    lambda report, truth=truth: checks.check_reconstruction(truth, report),
                    known_defect=entry["known_defect"],
                )
            )
        return out


def true_shape(entry: dict):
    if "a" in entry:
        return Rectangle(a=entry["a"], c=entry["c"])
    return new_trapezoid(
        B=entry["B"], h=entry["h"], alpha=math.radians(entry["alpha"]), beta=math.radians(entry["beta"])
    )


WORKLOADS = {w.name: w for w in (Flagship, Orbits, Reconstruct)}
