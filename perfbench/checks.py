"""Independent references that every benchmark operation is checked against.

None of these reuse the code path under test: rectangle eigenvalues come from
the closed form, square orbit lengths from the lattice brute force, trapezoid
orbit lengths from the closed-form catalog, and reconstructions are compared
with the shape that generated the spectrum.
"""

from __future__ import annotations

import math

import numpy as np

from trapspec import Rectangle, Trapezoid, orbit_catalog
from trapspec.geometry import Q_RECTANGLE, corner_f

# acceptance criterion 6: fitted invariants and recovered shape
INVARIANT_TOL = {"A": 0.02, "L": 0.04, "q": 0.05}
SHAPE_REL_TOL = 0.05  # on B and h
ANGLE_TOL = 0.05  # radians, on alpha and beta
# acceptance criterion 4: orbit lengths
LENGTH_REL_TOL = 1e-9


def exact_invariants(shape) -> dict:
    if isinstance(shape, Rectangle):
        return {"A": shape.area, "L": shape.perimeter, "q": Q_RECTANGLE}
    return {
        "A": shape.area,
        "L": shape.perimeter,
        "q": corner_f(shape.alpha) + corner_f(shape.beta),
    }


def _params(shape) -> tuple[float, float, float, float]:
    """(B, h, alpha, beta); a rectangle a <= c is the trapezoid B = c, h = a."""
    if isinstance(shape, Rectangle):
        return shape.c, shape.a, math.pi / 2, math.pi / 2
    return shape.B, shape.h, shape.alpha, shape.beta


def shape_error(truth, got) -> float:
    """max(|dB|/B, |dh|/h, |d alpha|, |d beta|) between two shapes."""
    B, h, al, be = _params(truth)
    gB, gh, gal, gbe = _params(got)
    return max(abs(gB - B) / B, abs(gh - h) / h, abs(gal - al), abs(gbe - be))


def _within_tolerance(truth, got) -> bool:
    B, h, al, be = _params(truth)
    gB, gh, gal, gbe = _params(got)
    return (
        abs(gB - B) < SHAPE_REL_TOL * B
        and abs(gh - h) < SHAPE_REL_TOL * h
        and abs(gal - al) < ANGLE_TOL
        and abs(gbe - be) < ANGLE_TOL
    )


def check_reconstruction(truth, report) -> dict:
    """Criterion 6 on one ReconstructionReport.

    The fitted (A, L, q) must be within 2%, 4% and 5% of the exact values.
    The primary shape must be within 5% on B and h and 0.05 rad on the
    angles; an ambiguous report passes if any reported candidate does.
    """
    exact = exact_invariants(truth)
    inv_err = {k: abs(report.invariants[k] - v) / v for k, v in exact.items()}
    candidates = [report.trapezoid]
    if report.ambiguous:
        candidates += [s for _, s, _ in report.alternatives]
    problems = [f"fitted {k} off by {e:.3g}" for k, e in inv_err.items() if e > INVARIANT_TOL[k]]
    if not any(_within_tolerance(truth, s) for s in candidates):
        problems.append(f"recovered {report.trapezoid} on branch {report.branch}")
    return {
        "ok": not problems,
        "detail": "; ".join(problems),
        "invariant_rel_err": max(inv_err.values()),
        "shape_err": shape_error(truth, report.trapezoid),
    }


def check_rectangle_spectrum(spectrum, exact: np.ndarray) -> dict:
    """Every eigenvalue's true error must be within the solver's own estimate."""
    rel = np.abs(spectrum.eigenvalues - exact) / exact
    over = int(np.sum(rel > spectrum.accuracy))
    return {
        "ok": over == 0,
        "detail": "" if over == 0 else f"{over} eigenvalues off by more than their accuracy estimate",
        "oracle_rel_err": float(rel.max()),
    }


def square_lattice_lengths(lmax: float) -> np.ndarray:
    """Distinct closed-orbit lengths 2 sqrt(p^2 + q^2) <= lmax of the unit square."""
    top = int(lmax // 2) + 1
    return np.array(
        sorted(
            {
                2 * math.hypot(p, q)
                for p in range(top + 1)
                for q in range(top + 1)
                if (p, q) != (0, 0) and 2 * math.hypot(p, q) <= lmax
            }
        )
    )


def check_square_lengths(lengths: np.ndarray, lmax: float) -> dict:
    want = square_lattice_lengths(lmax)
    got = np.unique(lengths)
    # merge float duplicates of one lattice length before comparing counts
    distinct = [x for i, x in enumerate(got) if i == 0 or x - got[i - 1] > LENGTH_REL_TOL * x]
    ok = len(distinct) == len(want) and bool(
        np.all(np.abs(np.array(distinct) - want) <= LENGTH_REL_TOL * want)
    )
    return {
        "ok": ok,
        "detail": "" if ok else f"{len(distinct)} distinct lengths, lattice has {len(want)}",
    }


def catalog_lengths(t: Trapezoid, lmax: float) -> list[float]:
    """Closed-form catalog lengths <= lmax of orbits that exist inside t."""
    cat = orbit_catalog(t)
    out = [x for x in (cat.two_h, cat.two_b) if x <= lmax]
    if cat.fagnano.exists_inside and not cat.fagnano.degenerate and cat.fagnano.length <= lmax:
        out.append(cat.fagnano.length)
    if cat.two_h_alpha.exists_inside and cat.two_h_alpha.length <= lmax:
        out.append(cat.two_h_alpha.length)
    return out


def check_catalog_lengths(t: Trapezoid, lengths: np.ndarray, lmax: float) -> dict:
    missing = [
        x
        for x in catalog_lengths(t, lmax)
        if not np.any(np.abs(lengths - x) <= LENGTH_REL_TOL * max(x, 1.0))
    ]
    return {
        "ok": not missing,
        "detail": "" if not missing else f"catalog lengths {missing} not enumerated in {t}",
    }
