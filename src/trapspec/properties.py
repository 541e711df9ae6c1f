"""Named property suites over random trapezoids, runnable from the CLI.

Each suite draws its own seeded sample, checks one family of invariants, and
returns a list of failure descriptions (empty means the suite passed).
"""

from __future__ import annotations

import math

import numpy as np

from .billiards import enumerate_orbits, length_spectrum, shortest_orbit
from .errors import DomainError
from .geometry import (
    Q_RECTANGLE,
    angle_invariant,
    heat_corner_sum,
    new_trapezoid,
    orbit_catalog,
    random_trapezoid,
    vertices,
)
from .inverse import check_isospectral_consistency, solve_from_h


def angle_invariant_suite(n: int = 1000, seed: int = 0) -> list[str]:
    """q >= 8/pi^2 with equality only for rectangles; corner-sum identity;
    2 h_alpha < 2 l_F when the Fagnano orbit exists; 2h < 2 h_alpha at the
    special base angles pi/3 and pi/4."""
    rng = np.random.default_rng(seed)
    failures = []
    for i in range(n):
        t = random_trapezoid(rng)
        q = angle_invariant(t).q
        if q < Q_RECTANGLE - 1e-12:
            failures.append(f"[{i}] q = {q} below the rectangle minimum")
        if abs(t.alpha - math.pi / 2) > 1e-9 or abs(t.beta - math.pi / 2) > 1e-9:
            if q <= Q_RECTANGLE + 1e-12:
                failures.append(f"[{i}] non-rectangle with rectangle-level q")
        corner = heat_corner_sum(vertices(t))
        predicted = (math.pi**2 / 24.0) * q - 1.0 / 12.0
        if abs(corner - predicted) > 1e-12 * max(abs(corner), 1.0):
            failures.append(f"[{i}] corner sum {corner} != {predicted}")
        cat = orbit_catalog(t)
        if cat.fagnano.exists_inside and not cat.fagnano.degenerate:
            if not cat.two_h_alpha.length < 2 * cat.fagnano.length:
                failures.append(f"[{i}] 2 h_alpha >= 2 l_F")
    # the 2h < 2 h_alpha comparison at alpha in {pi/3, pi/4}
    for i in range(50):
        alpha = (math.pi / 3, math.pi / 4)[i % 2]
        beta = float(rng.uniform(0.35, alpha))
        B = float(rng.uniform(1.0, 3.0))
        h_cap = B * math.sin(beta) * math.cos(beta)  # Fagnano existence bound
        try:
            t = new_trapezoid(B=B, h=0.9 * h_cap, alpha=alpha, beta=beta)
        except DomainError:
            continue
        cat = orbit_catalog(t)
        if not cat.two_h < cat.two_h_alpha.length:
            failures.append(f"2h >= 2 h_alpha at alpha={alpha}, beta={beta}")
    return failures


def shortest_orbit_suite(n: int = 50, seed: int = 7) -> list[str]:
    """The shortest closed geodesic is min(2h, 2b)."""
    rng = np.random.default_rng(seed)
    failures = []
    for i in range(n):
        t = random_trapezoid(rng)
        length, label = shortest_orbit(t)
        want = min(2 * t.h, 2 * t.b)
        if abs(length - want) > 1e-9 * want or label not in ("2h", "2b"):
            failures.append(f"[{i}] shortest {length} ({label}) != {want}")
    return failures


def gutkin_parity_suite(n: int = 20, seed: int = 7) -> list[str]:
    """Band orbits have even reflection words, isolated orbits odd ones."""
    rng = np.random.default_rng(seed)
    failures = []
    for i in range(n):
        t = random_trapezoid(rng)
        lmax = 2.2 * min(t.h, t.b) + 0.3
        for o in enumerate_orbits(vertices(t), lmax, period_max=10):
            even = len(o.word) % 2 == 0
            if (o.kind == "band") != even:
                failures.append(f"[{i}] word {o.word} kind {o.kind}")
    return failures


def catalog_agreement_suite(n: int = 20, seed: int = 11) -> list[str]:
    """Closed-form catalog lengths all appear in the enumerated spectrum."""
    rng = np.random.default_rng(seed)
    failures = []
    for i in range(n):
        t = random_trapezoid(rng)
        cat = orbit_catalog(t)
        lmax = 2.2 * min(t.h, t.b) + 0.5
        lengths = length_spectrum(t, lmax, period_max=10).lengths
        targets = [x for x in (2 * t.h, 2 * t.b) if x <= lmax]
        if (
            cat.fagnano.exists_inside
            and not cat.fagnano.degenerate
            and cat.fagnano.length <= lmax
        ):
            targets.append(cat.fagnano.length)
        if cat.two_h_alpha.exists_inside and cat.two_h_alpha.length <= lmax:
            targets.append(cat.two_h_alpha.length)
        for x in targets:
            if not np.any(np.abs(lengths - x) <= 1e-9 * max(x, 1.0)):
                failures.append(f"[{i}] catalog length {x} not enumerated")
    return failures


def round_trip_suite(n: int = 100, seed: int = 3) -> list[str]:
    """solve_from_h recovers random trapezoids from exact (A, L, q, h)."""
    rng = np.random.default_rng(seed)
    failures = []
    done = 0
    while done < n:
        t = random_trapezoid(rng)
        q = angle_invariant(t).q
        if q < Q_RECTANGLE + 1e-2:
            continue  # rectangle-degenerate regime is routed elsewhere
        done += 1
        try:
            r = solve_from_h(t.area, t.perimeter, q, t.h)
        except Exception as exc:
            failures.append(f"[{done}] solver failed: {exc}")
            continue
        err = max(
            abs(r.B - t.B), abs(r.b - t.b), abs(r.alpha - t.alpha), abs(r.beta - t.beta)
        )
        if err > 1e-8:
            failures.append(f"[{done}] recovery error {err}")
    return failures


def separation_suite(n: int = 500, seed: int = 23) -> list[str]:
    """Random non-congruent pairs are always separated by an exact invariant."""
    rng = np.random.default_rng(seed)
    failures = []
    for i in range(n):
        t1 = random_trapezoid(rng)
        t2 = random_trapezoid(rng)
        r = check_isospectral_consistency(t1, t2)
        if r.verdict == "potentially-isospectral":
            failures.append(f"[{i}] unseparated pair {t1} vs {t2}")
    return failures


PROPERTY_SUITES = {
    "angle-invariant": angle_invariant_suite,
    "shortest-orbit": shortest_orbit_suite,
    "gutkin": gutkin_parity_suite,
    "catalog": catalog_agreement_suite,
    "roundtrip": round_trip_suite,
    "separation": separation_suite,
}


def run_suite(name: str, n: int | None = None, seed: int | None = None) -> list[str]:
    if name not in PROPERTY_SUITES:
        raise KeyError(f"unknown property suite {name!r}; choose from {sorted(PROPERTY_SUITES)}")
    kwargs = {}
    if n is not None:
        kwargs["n"] = n
    if seed is not None:
        kwargs["seed"] = seed
    return PROPERTY_SUITES[name](**kwargs)
