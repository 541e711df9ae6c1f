"""Acceptance gate: one test per top-level criterion, each printing a verdict.

Each test re-derives its expected values independently (closed forms, brute
force, or the exact geometry) rather than trusting package internals, runs at
the stated tolerance, and enforces its runtime budget. Run with -s to see the
one-line verdicts as they land.
"""

import math
import time

import numpy as np
import pytest

from trapspec.billiards import (
    enumerate_orbits,
    length_spectrum,
    poincare_map,
)
from trapspec.eigensolver import (
    DIRICHLET,
    NEUMANN,
    Spectrum,
    compute_spectrum,
    exact_rectangle_spectrum,
    level_eigenvalues,
)
from trapspec.errors import NonUniqueSolution, NoSolution
from trapspec.geometry import (
    Polygon,
    Q_RECTANGLE,
    corner_f,
    heat_corner_sum,
    new_trapezoid,
    orbit_catalog,
    random_trapezoid,
    vertices,
)
from trapspec.heat_trace import fit_invariants
from trapspec.inverse import (
    scan_and_reconstruct,
    solve_from_h,
    solve_from_lf_halpha,
)
from trapspec.properties import run_suite
from trapspec.wave_trace import estimate_order, probe, scan_peaks

PI = math.pi
PI2 = math.pi**2
UNIT_SQUARE = Polygon(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float))
SIGMA = 0.15


def _verdict(name: str, elapsed: float, budget: float, failures: list):
    over = elapsed > budget
    status = "FAIL" if (failures or over) else "PASS"
    extra = f"; {len(failures)} failure(s)" if failures else ""
    extra += "; over budget" if over else ""
    print(f"{status} {name}: {elapsed:.1f}s / {budget:.0f}s budget{extra}")
    assert not failures, failures[:10]
    assert not over, f"{name}: {elapsed:.1f}s exceeds {budget:.0f}s budget"


def _q(t):
    return corner_f(t.alpha) + corner_f(t.beta)


def _sample_away_from_rectangle(rng):
    while True:
        t = random_trapezoid(rng)
        if _q(t) >= Q_RECTANGLE + 1e-2:
            return t


def test_criterion_1_geometry_invariants():
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(0)
    for _ in range(1000):
        t = random_trapezoid(rng)
        q = _q(t)
        is_rect = abs(t.alpha - PI / 2) < 1e-14 and abs(t.beta - PI / 2) < 1e-14
        if q < Q_RECTANGLE - 1e-12:
            failures.append(f"q below rectangle minimum: {t}")
        if not is_rect and q <= Q_RECTANGLE + 1e-12:
            failures.append(f"non-rectangle at the q minimum: {t}")
        want = (PI2 / 24) * q - 1 / 12
        if abs(heat_corner_sum(vertices(t)) - want) > 1e-12:
            failures.append(f"corner-sum identity broken: {t}")
        cat = orbit_catalog(t)
        if cat.fagnano.exists_inside and not cat.fagnano.degenerate:
            if not cat.two_h_alpha.length < 2 * cat.fagnano.length:
                failures.append(f"2h_alpha >= 2 l_F: {t}")
    # 2h < 2h_alpha whenever alpha in {pi/3, pi/4} (both force h < B sin beta)
    for alpha in (PI / 3, PI / 4):
        done = 0
        while done < 50:
            beta = rng.uniform(0.2, alpha)
            B = rng.uniform(0.5, 3.0)
            h = rng.uniform(0.05, 0.98) * B * math.sin(beta) * math.cos(beta)
            if B - h * (1 / math.tan(alpha) + 1 / math.tan(beta)) <= 1e-9:
                continue
            done += 1
            t = new_trapezoid(B=B, h=h, alpha=alpha, beta=beta)
            cat = orbit_catalog(t)
            if not cat.two_h < cat.two_h_alpha.length:
                failures.append(f"2h >= 2h_alpha at alpha={alpha}: {t}")
    _verdict("criterion 1 (geometry/invariants)", time.perf_counter() - start, 5.0, failures)


def test_criterion_2_eigensolver_oracles():
    start = time.perf_counter()
    failures = []
    exact_d = exact_rectangle_spectrum(1, 1, 20).eigenvalues
    got_d = compute_spectrum(UNIT_SQUARE, DIRICHLET, n=20, mesh_size=1 / 32).eigenvalues
    if np.max(np.abs(got_d - exact_d) / exact_d) >= 0.005:
        failures.append("square Dirichlet beyond 0.5%")
    exact_n = exact_rectangle_spectrum(1, 1, 20, bc=NEUMANN).eigenvalues
    got_n = compute_spectrum(UNIT_SQUARE, NEUMANN, n=20, mesh_size=1 / 32).eigenvalues
    if abs(got_n[0]) >= 1e-6 * got_n[-1]:
        failures.append("Neumann ground state not ~0")
    if np.max(np.abs(got_n[1:] - exact_n[1:]) / exact_n[1:]) >= 0.005:
        failures.append("square Neumann beyond 0.5%")
    levels = level_eigenvalues(UNIT_SQUARE, DIRICHLET, 10, 1 / 32, 3)
    errs = [np.abs(lev - exact_d[:10]) for lev in levels]
    for e_coarse, e_fine in zip(errs, errs[1:]):
        order = np.log2(e_coarse / e_fine)
        if not (np.all(order > 1.7) and np.all(order < 2.3)):
            failures.append(f"convergence order outside [1.7, 2.3]: {order}")
    tri = Polygon(np.array([[0, 0], [1, 0], [0, 1]], dtype=float))
    lam1 = compute_spectrum(tri, DIRICHLET, n=1, mesh_size=1 / 32).eigenvalues[0]
    if abs(lam1 - 5 * PI2) / (5 * PI2) >= 0.005:
        failures.append(f"right isosceles triangle lambda1 = {lam1}, want 5 pi^2")
    _verdict("criterion 2 (eigensolver oracles)", time.perf_counter() - start, 120.0, failures)


def test_criterion_3_heat_trace_fits(flagship_trapezoid, flagship_spectrum, reference_fem_spectra):
    start = time.perf_counter()
    failures = []
    inv = fit_invariants(exact_rectangle_spectrum(1, 1, 2000))
    if abs(inv.area - 1.0) > 0.01:
        failures.append(f"square area {inv.area}")
    if abs(inv.perimeter - 4.0) > 0.02 * 4.0:
        failures.append(f"square perimeter {inv.perimeter}")
    if abs(inv.corner_constant - 0.25) > 0.10 * 0.25:
        failures.append(f"square corner constant {inv.corner_constant}")
    # FEM top modes are unreliable; fit in a late window where they are gone
    window = (0.01, 0.04)
    fem = [(flagship_trapezoid, flagship_spectrum)] + list(reference_fem_spectra)
    for t, spec in fem:
        inv = fit_invariants(spec, t_window=window)
        if abs(inv.area - t.area) > 0.02 * t.area:
            failures.append(f"area {inv.area} vs {t.area} for {t}")
        if abs(inv.perimeter - t.perimeter) > 0.04 * t.perimeter:
            failures.append(f"perimeter {inv.perimeter} vs {t.perimeter} for {t}")
        if abs(inv.q_estimate - _q(t)) > 0.05 * _q(t):
            failures.append(f"q {inv.q_estimate} vs {_q(t)} for {t}")
    _verdict("criterion 3 (heat-trace fits)", time.perf_counter() - start, 300.0, failures)


def test_criterion_4_billiards():
    start = time.perf_counter()
    failures = []
    orbs = enumerate_orbits(UNIT_SQUARE, 10.0)
    got = sorted({o.length for o in orbs})
    brute = sorted(
        {
            2 * math.hypot(p, q)
            for p in range(6)
            for q in range(6)
            if (p, q) != (0, 0) and 2 * math.hypot(p, q) <= 10
        }
    )
    if len(got) != len(brute) or any(
        abs(g - b) > 1e-9 * b for g, b in zip(got, brute)
    ):
        failures.append("square length spectrum != lattice brute force")
    t = new_trapezoid(B=2, h=1.2, alpha=PI / 3, beta=PI / 3)
    poly = vertices(t)
    fag = [
        o
        for o in enumerate_orbits(poly, 3.2)
        if o.kind == "isolated" and abs(o.length - 3.0) < 1e-9
    ]
    if not fag:
        failures.append("length-3 Fagnano orbit not found")
    elif abs(poincare_map(poly, fag[0]).det_i_minus_p - 4.0) > 1e-4:
        failures.append("det(I - P) != 4 on the Fagnano orbit")
    failures += run_suite("shortest-orbit", n=50, seed=7)
    failures += run_suite("gutkin")
    failures += run_suite("catalog")
    _verdict("criterion 4 (billiards)", time.perf_counter() - start, 600.0, failures)


def test_criterion_5_wave_trace():
    start = time.perf_counter()
    failures = []
    spec = exact_rectangle_spectrum(1, 1, 5000)
    cands = scan_peaks(spec, (1.5, 3.5), SIGMA)
    t0s = sorted(c.t0 for c in cands)
    if len(t0s) != 2 or abs(t0s[0] - 2.0) > 0.05 or abs(t0s[1] - 2 * math.sqrt(2)) > 0.05:
        failures.append(f"square peaks at {t0s}, want 2 and 2 sqrt(2)")
    a, _ = estimate_order(spec, 2.0, SIGMA)
    if not 0.2 <= a <= 0.8:
        failures.append(f"order at t=2 is {a}, want [0.2, 0.8]")
    ev = spec.eigenvalues
    halves = Spectrum(ev[:2500].copy(), DIRICHLET), Spectrum(ev[2500:].copy(), DIRICHLET)
    ks = np.linspace(30, 120, 9)
    v = probe(spec, 2.0, SIGMA, ks).values
    v_split = probe(halves[0], 2.0, SIGMA, ks).values + probe(halves[1], 2.0, SIGMA, ks).values
    if np.max(np.abs(v_split - v)) > 1e-12 * np.max(np.abs(v)):
        failures.append("probe not linear in the spectral measure")
    lattice = sorted(
        {2 * math.hypot(p, q) for p in range(4) for q in range(4) if p + q}
    )
    for c in scan_peaks(spec, (1.5, 4.5), SIGMA):
        if min(abs(c.t0 - l) for l in lattice) > 0.05:
            failures.append(f"peak at {c.t0} matches no closed-orbit length")
    _verdict("criterion 5 (wave trace)", time.perf_counter() - start, 180.0, failures)


def test_criterion_6_inverse(flagship_trapezoid, flagship_spectrum):
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(3)
    for _ in range(100):
        t = _sample_away_from_rectangle(rng)
        r = solve_from_h(t.area, t.perimeter, _q(t), t.h)
        err = max(
            abs(r.B - t.B), abs(r.b - t.b), abs(r.alpha - t.alpha), abs(r.beta - t.beta)
        )
        if err > 1e-8:
            failures.append(f"solve_from_h round trip error {err} on {t}")
        cat = orbit_catalog(t)
        if cat.fagnano.exists_inside and not cat.fagnano.degenerate:
            r = solve_from_lf_halpha(
                t.perimeter, _q(t), cat.fagnano.length, t.B * math.sin(t.beta), area=t.area
            )
            err = max(abs(r.B - t.B), abs(r.h - t.h), abs(r.alpha - t.alpha), abs(r.beta - t.beta))
            if err > 1e-8:
                failures.append(f"solve_from_lf_halpha round trip error {err} on {t}")
    # forcing an isolated reading (h := h_alpha) to coexist with the true
    # Fagnano length must be recognized as contradictory
    rng = np.random.default_rng(5)
    tried = 0
    while tried < 40:
        t0 = random_trapezoid(rng)
        try:
            t = new_trapezoid(B=t0.B, h=t0.h, alpha=t0.alpha, beta=t0.alpha)
        except Exception:
            continue
        cat = orbit_catalog(t)
        if not cat.fagnano.exists_inside:
            continue
        tried += 1
        try:
            solve_from_h(
                t.area, t.perimeter, _q(t), cat.two_h_alpha.length / 2, l_f=cat.fagnano.length
            )
            failures.append(f"contradictory reading accepted for {t}")
        except (NoSolution, NonUniqueSolution):
            pass

    # end to end on the flagship FEM spectrum
    t_true = flagship_trapezoid
    report = scan_and_reconstruct(flagship_spectrum)
    A, L, q = report.invariants["A"], report.invariants["L"], report.invariants["q"]
    if abs(A - t_true.area) > 0.02 * t_true.area:
        failures.append(f"fitted area {A}")
    if abs(L - t_true.perimeter) > 0.04 * t_true.perimeter:
        failures.append(f"fitted perimeter {L}")
    if abs(q - _q(t_true)) > 0.05 * _q(t_true):
        failures.append(f"fitted q {q}")
    rec = report.trapezoid
    # every observed singularity must be a closed-orbit length of the
    # reconstructed trapezoid, to within twice the window width
    peaks = scan_peaks(flagship_spectrum, (0.3, L), SIGMA)
    lengths = length_spectrum(rec, L + 2 * SIGMA, period_max=12).lengths
    for c in peaks:
        if np.min(np.abs(lengths - c.t0)) > 2 * SIGMA:
            failures.append(f"observed peak {c.t0} unmatched by the reconstruction")
    candidates = [rec] + [s for _, s, _ in report.alternatives]
    if report.ambiguous:
        if not any(
            abs(s.B - t_true.B) < 0.05 * t_true.B
            and abs(s.h - t_true.h) < 0.05 * t_true.h
            and abs(s.alpha - t_true.alpha) < 0.05
            and abs(s.beta - t_true.beta) < 0.05
            for s in candidates
            if hasattr(s, "alpha")
        ):
            failures.append("ambiguous report omits the true trapezoid")
    _verdict("criterion 6 (inverse round trips)", time.perf_counter() - start, 900.0, failures)


def test_criterion_7_separation_stress():
    start = time.perf_counter()
    failures = run_suite("separation", n=500, seed=23)
    _verdict("criterion 7 (separation stress)", time.perf_counter() - start, 60.0, failures)
