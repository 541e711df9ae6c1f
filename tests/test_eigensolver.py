import json
import math
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import trapspec
from trapspec import eigensolver, workers
from trapspec.errors import ConvergenceError, DomainError, MeshError
from trapspec.eigensolver import (
    DIRICHLET,
    NEUMANN,
    Spectrum,
    _LANCZOS_SEED,
    _SLICE_SIZE,
    _dissection_order,
    _factor,
    _restrict_dirichlet,
    _solve_slice,
    assemble_p1,
    compute_spectrum,
    exact_rectangle_spectrum,
    level_eigenvalues,
    lowest_eigenvalues,
)
from trapspec.geometry import Polygon, vertices
from trapspec.mesh import refine_uniform, triangulate

PI2 = math.pi**2

UNIT_SQUARE = Polygon(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float))
RIGHT_ISO_TRIANGLE = Polygon(np.array([[0, 0], [1, 0], [0, 1]], dtype=float))


def half_square_dirichlet(n):
    """Dirichlet eigenvalues of the right isosceles triangle with legs 1.

    Antisymmetric square modes: pi^2 (m^2 + k^2) with m > k >= 1.
    """
    vals = sorted(
        PI2 * (m * m + k * k) for m in range(1, 40) for k in range(1, m)
    )
    return np.array(vals[:n])


class TestExactRectangle:
    def test_unit_square_dirichlet(self):
        s = exact_rectangle_spectrum(1, 1, 5)
        assert s.eigenvalues == pytest.approx(
            [2 * PI2, 5 * PI2, 5 * PI2, 8 * PI2, 10 * PI2], rel=1e-14
        )

    def test_unit_square_neumann(self):
        s = exact_rectangle_spectrum(1, 1, 4, bc=NEUMANN)
        assert s.eigenvalues == pytest.approx([0, PI2, PI2, 2 * PI2], abs=1e-12)

    def test_one_by_two(self):
        s = exact_rectangle_spectrum(1, 2, 1)
        assert s.eigenvalues[0] == pytest.approx(1.25 * PI2, rel=1e-14)

    def test_bad_input(self):
        with pytest.raises(DomainError):
            exact_rectangle_spectrum(-1, 1, 5)


class TestFemOracles:
    def test_unit_square_dirichlet_half_percent(self):
        s = compute_spectrum(UNIT_SQUARE, DIRICHLET, n=20, mesh_size=1 / 32, refine_levels=3)
        exact = exact_rectangle_spectrum(1, 1, 20).eigenvalues
        assert np.max(np.abs(s.eigenvalues - exact) / exact) < 0.005

    def test_unit_square_neumann_half_percent(self):
        s = compute_spectrum(UNIT_SQUARE, NEUMANN, n=20, mesh_size=1 / 32, refine_levels=3)
        exact = exact_rectangle_spectrum(1, 1, 20, bc=NEUMANN).eigenvalues
        assert abs(s.eigenvalues[0]) < 1e-6 * s.eigenvalues[-1]
        rel = np.abs(s.eigenvalues[1:] - exact[1:]) / exact[1:]
        assert np.max(rel) < 0.005

    def test_right_isosceles_triangle(self):
        s = compute_spectrum(
            RIGHT_ISO_TRIANGLE, DIRICHLET, n=10, mesh_size=1 / 32, refine_levels=3
        )
        exact = half_square_dirichlet(10)
        assert s.eigenvalues[0] == pytest.approx(5 * PI2, rel=0.005)
        assert np.max(np.abs(s.eigenvalues - exact) / exact) < 0.01

    def test_convergence_order(self):
        levels = level_eigenvalues(UNIT_SQUARE, DIRICHLET, 10, 1 / 32, 3)
        exact = exact_rectangle_spectrum(1, 1, 10).eigenvalues
        e0 = np.abs(levels[-3] - exact)
        e1 = np.abs(levels[-2] - exact)
        e2 = np.abs(levels[-1] - exact)
        orders = np.log2(e0 / e1), np.log2(e1 / e2)
        for o in orders:
            assert np.all(o > 1.7) and np.all(o < 2.3)

    def test_dirichlet_upper_bounds(self):
        # conforming Dirichlet elements over-estimate every eigenvalue
        for lev in level_eigenvalues(UNIT_SQUARE, DIRICHLET, 15, 1 / 16, 2):
            exact = exact_rectangle_spectrum(1, 1, 15).eigenvalues
            assert np.all(lev >= exact - 1e-9)

    def test_weyl_consistency(self):
        s = compute_spectrum(UNIT_SQUARE, DIRICHLET, n=120, mesh_size=1 / 32, refine_levels=2)
        lam_n = s.eigenvalues[-1]
        assert abs(lam_n - 4 * math.pi * s.count / 1.0) / lam_n <= 0.2

    def test_congruence_invariance(self):
        th = 0.7
        rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        moved = Polygon(UNIT_SQUARE.vertices @ rot.T + np.array([3.0, -1.5]))
        a = compute_spectrum(UNIT_SQUARE, DIRICHLET, n=10, mesh_size=1 / 16, refine_levels=2)
        b = compute_spectrum(moved, DIRICHLET, n=10, mesh_size=1 / 16, refine_levels=2)
        tol = (np.max(a.accuracy) + np.max(b.accuracy) + 1e-3) * a.eigenvalues
        assert np.all(np.abs(a.eigenvalues - b.eigenvalues) <= tol)

    def test_neumann_zero_mode_is_exact(self, flagship_trapezoid):
        # the constant function is an exact P1 eigenvector
        s = compute_spectrum(vertices(flagship_trapezoid), NEUMANN, n=60, mesh_size=0.05, refine_levels=2)
        assert s.eigenvalues[0] == 0.0 and s.accuracy[0] == 0.0
        header, first = s.to_csv().splitlines()[:2]
        assert first == "0"
        assert float(header.rsplit(" accuracy=", 1)[1]) == np.max(s.accuracy[1:])

    def test_stored_flagship_spectrum_recomputed(self, flagship_trapezoid):
        # perfbench/data/band_2h_flagship.json was solved by an earlier
        # eigensolver (its manifest names the commit). Its accuracy column
        # predates the sort that keeps each accuracy with its eigenvalue, so
        # only the eigenvalues are compared
        data = Path(__file__).parents[1] / "perfbench" / "data" / "band_2h_flagship.json"
        stored = np.array(json.loads(data.read_text())["eigenvalues"])
        s = compute_spectrum(vertices(flagship_trapezoid), n=800, mesh_size=0.012, refine_levels=2)
        assert np.max(np.abs(s.eigenvalues - stored) / stored) <= 1e-9

    def test_mesh_size_guard(self):
        with pytest.raises(MeshError):
            compute_spectrum(UNIT_SQUARE, DIRICHLET, n=5, mesh_size=0.5)


class TestLevelLadder:
    def test_rejects_non_convex(self):
        dart = Polygon(np.array([[0, 0], [2, 0], [1, 0.5], [1, 2]], dtype=float))
        with pytest.raises(DomainError):
            level_eigenvalues(dart, DIRICHLET, 5, 0.05, 2)
        # every turn of the pentagram is left, but its boundary winds twice
        star = Polygon(
            [[math.cos(math.radians(a)), math.sin(math.radians(a))] for a in (0, 144, 288, 72, 216)]
        )
        with pytest.raises(DomainError, match="convex"):
            compute_spectrum(star, n=5, refine_levels=1)

    def test_rejects_too_coarse_mesh_size(self):
        with pytest.raises(MeshError):
            level_eigenvalues(UNIT_SQUARE, DIRICHLET, 5, 0.5, 1)

    @pytest.mark.parametrize("mesh_size", [-0.1, 0.0, math.nan, math.inf])
    def test_rejects_bad_mesh_size_before_meshing(self, mesh_size, monkeypatch):
        monkeypatch.setattr(eigensolver, "triangulate", None)  # meshing would raise TypeError
        with pytest.raises(MeshError):
            level_eigenvalues(UNIT_SQUARE, DIRICHLET, 5, mesh_size, 2)

    def test_rejects_coarsest_element_longer_than_shortest_edge(self):
        # 1/8 * 2**5 = 4 on the unit square; unguarded, 6 levels at 1/8 stay cheap
        with pytest.raises(MeshError):
            compute_spectrum(UNIT_SQUARE, n=5, mesh_size=1 / 8, refine_levels=6)
        # a coarsest element as long as the shortest edge is allowed; of its
        # levels 1, 1/2, 1/4 and 1/8 only the last has the 11 nodes 5 modes need
        assert len(level_eigenvalues(UNIT_SQUARE, DIRICHLET, 5, 1 / 8, 4)) == 1

    def test_one_usable_level_is_not_extrapolated(self):
        # levels 1/4, 1/8, 1/16 have 9, 49 and 225 interior nodes; 150 modes need 192
        assert len(level_eigenvalues(UNIT_SQUARE, DIRICHLET, 150, 1 / 16, 3)) == 1
        with pytest.raises(MeshError):
            compute_spectrum(UNIT_SQUARE, DIRICHLET, n=150, mesh_size=1 / 16, refine_levels=3)
        # one level asked for is one level solved, with no error estimate
        s = compute_spectrum(UNIT_SQUARE, DIRICHLET, n=150, mesh_size=1 / 16, refine_levels=1)
        assert s.count == 150 and np.all(np.isnan(s.accuracy))

    def test_compute_spectrum_extrapolates_last_two_levels(self):
        # the h = 1/4 level has 10 interior nodes, too few for 10 modes
        levels = level_eigenvalues(UNIT_SQUARE, DIRICHLET, 10, 1 / 16, 3)
        assert len(levels) == 2
        coarse, fine = levels
        s = compute_spectrum(UNIT_SQUARE, DIRICHLET, n=10, mesh_size=1 / 16, refine_levels=3)
        assert np.array_equal(s.eigenvalues, np.sort(fine + (fine - coarse) / 3.0))

    def test_accuracy_pairs_with_its_mode(self):
        # index-paired extrapolation leaves adjacent modes out of order here
        coarse, fine = level_eigenvalues(UNIT_SQUARE, DIRICHLET, 200, 1 / 32, 2)
        extrap = fine + (fine - coarse) / 3.0
        assert np.any(np.diff(extrap) < 0)
        s = compute_spectrum(UNIT_SQUARE, DIRICHLET, n=200, mesh_size=1 / 32, refine_levels=2)
        for lam, acc in zip(s.eigenvalues, s.accuracy):
            i = int(np.flatnonzero(extrap == lam)[0])
            assert acc == abs(extrap[i] - fine[i]) / fine[i]


@pytest.fixture(
    params=[
        ("square", DIRICHLET), ("square", NEUMANN), ("flagship", DIRICHLET), ("flagship", NEUMANN)
    ],
    ids=["square-D", "square-N", "flagship-D", "flagship-N"],
)
def small_system(request, flagship_trapezoid):
    """(polygon, bc, K, M, dense eigenvalues, dof coordinates) on an h = 0.08 mesh."""
    shape, bc = request.param
    poly = UNIT_SQUARE if shape == "square" else vertices(flagship_trapezoid)
    mesh = triangulate(poly, 0.08)
    K, M = assemble_p1(mesh)
    if bc == DIRICHLET:
        K, M = _restrict_dirichlet(K, M, mesh.boundary_mask)
        xy = mesh.nodes[~mesh.boundary_mask]
    else:
        K, M, xy = K.tocsc(), M.tocsc(), mesh.nodes
    dense = sla.eigh(K.toarray(), M.toarray(), eigvals_only=True)
    return poly, bc, K, M, dense, xy


@pytest.fixture
def slices_in_process(monkeypatch):
    """Solve every slice in this process, where a patched function is seen."""
    monkeypatch.setattr(workers, "executor", lambda tasks: workers.in_process)


def assert_matches_dense(ev, dense):
    # the Neumann zero eigenvalue is compared absolutely
    n = len(ev)
    assert np.all(np.abs(ev - dense[:n]) <= 1e-9 * np.maximum(np.abs(dense[:n]), 1.0))


class TestInertiaSlicing:
    def test_count_matches_dense(self, small_system):
        _, _, K, M, dense, xy = small_system
        # midway between neighbours, and just beside each nonzero eigenvalue;
        # the mesh splits the square's double eigenvalues into close pairs
        gaps = np.diff(dense) > 1e-9 * dense[-1]
        mids = 0.5 * (dense[1:] + dense[:-1])[gaps]
        nonzero = dense[dense > 1e-6 * dense[-1]]
        shifts = np.concatenate([mids, nonzero * (1 - 1e-6), nonzero * (1 + 1e-6)])
        # in the input order and in the dissected order the solver uses
        perm = _dissection_order(xy, K)
        for K, M in ((K, M), (K[perm][:, perm], M[perm][:, perm])):
            for s in shifts:
                assert _factor(K, M, s)[1] == np.count_nonzero(dense < s), s

    def test_square_pairs_are_probed(self):
        mesh = triangulate(UNIT_SQUARE, 0.08)
        K, M = _restrict_dirichlet(*assemble_p1(mesh), mesh.boundary_mask)
        dense = sla.eigh(K.toarray(), M.toarray(), eigvals_only=True)
        # 5 pi^2 is double on the square; on this mesh it is a close pair
        pair = dense[1:3]
        assert np.ptp(pair) < 1e-3 * pair[0]
        assert _factor(K, M, pair.mean())[1] == 2

    def test_lowest_eigenvalues_match_dense(self, small_system):
        poly, bc, K, M, dense, _ = small_system
        n = len(dense) // 2
        ev = lowest_eigenvalues(K, M, n, poly.area, poly.perimeter, bc)
        assert_matches_dense(ev, dense)

    def test_bounds_extended_when_weyl_falls_short(self, small_system, monkeypatch, slices_in_process):
        poly, bc, K, M, dense, _ = small_system
        calls = []
        solve = eigensolver._solve_slice

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(eigensolver, "_solve_slice", counted)
        n = len(dense) // 2
        # a fourfold area puts the Weyl guess for lambda_n near lambda_{n/4}
        ev = lowest_eigenvalues(K, M, n, 4 * poly.area, poly.perimeter, bc)
        assert_matches_dense(ev, dense)
        assert len(calls) > 2  # one slice per added bound; the true area needs two or three

    def test_dropped_ritz_value_is_an_error(self, small_system, monkeypatch, slices_in_process):
        poly, bc, K, M, dense, _ = small_system
        tridiagonal = sla.eigh_tridiagonal

        def drop_nearest(*args, **kwargs):
            # the Ritz value of largest |theta| maps nearest the shift
            theta, s = tridiagonal(*args, **kwargs)
            i = np.argmax(np.abs(theta))
            return np.delete(theta, i), np.delete(s, i, axis=1)

        monkeypatch.setattr(sla, "eigh_tridiagonal", drop_nearest)
        with pytest.raises(ConvergenceError):
            lowest_eigenvalues(K, M, len(dense) // 2, poly.area, poly.perimeter, bc)

    def test_exact_double_eigenvalues(self):
        # two uncoupled copies of the square: every eigenvalue is exactly
        # double, and a one-vector Krylov space reaches the second copy only
        # through rounding
        mesh = triangulate(UNIT_SQUARE, 0.08)
        K, M = _restrict_dirichlet(*assemble_p1(mesh), mesh.boundary_mask)
        K2, M2 = sp.block_diag([K, K], format="csc"), sp.block_diag([M, M], format="csc")
        dense = sla.eigh(K2.toarray(), M2.toarray(), eigvals_only=True)
        ev = lowest_eigenvalues(K2, M2, 40, 2 * UNIT_SQUARE.area, 2 * UNIT_SQUARE.perimeter, DIRICHLET)
        assert_matches_dense(ev, dense)
        assert np.all(np.abs(ev[0::2] - ev[1::2]) <= 1e-9 * ev[1::2])

    @pytest.mark.parametrize("levels", [1, 2], ids=["coarse", "fine"])
    def test_flagship_levels_take_fewest_slices(self, flagship_trapezoid, levels, monkeypatch, slices_in_process):
        # the flagship's level_eigenvalues(n=800, mesh_size=0.012, refine_levels=2)
        poly = vertices(flagship_trapezoid)
        mesh = triangulate(poly, 0.024)
        for _ in range(levels - 1):
            mesh = refine_uniform(mesh)
        K, M = _restrict_dirichlet(*assemble_p1(mesh), mesh.boundary_mask)
        perm = _dissection_order(mesh.nodes[~mesh.boundary_mask], K)  # the order it is solved in
        K, M = K[perm][:, perm], M[perm][:, perm]
        wants = []

        def planned(K, M, lo, hi, want, v0):
            wants.append(want)
            return np.linspace(lo, hi, want, endpoint=False)

        monkeypatch.setattr(eigensolver, "_solve_slice", planned)
        n = 800
        lowest_eigenvalues(K, M, n, poly.area, poly.perimeter, DIRICHLET)
        assert len(wants) == math.ceil(n / _SLICE_SIZE)
        assert n <= sum(wants) <= n + 8


def ladder(poly, h, levels):
    """The meshes of a refinement ladder from a triangulation at h, coarsest first."""
    meshes = [triangulate(poly, h)]
    for _ in range(levels - 1):
        meshes.append(refine_uniform(meshes[-1]))
    return meshes


def default_ordered_factor(K, M, s):
    """SuperLU's LU of K - s M in its default (COLAMD) column order, diagonal pivots."""
    return spla.splu((K - s * M).tocsc(), diag_pivot_thresh=0.0, options={"SymmetricMode": True})


class TestDissectionOrder:
    @pytest.mark.parametrize(
        "shape, bc, h, levels",
        [
            ("square", DIRICHLET, 1 / 4, 4),
            ("triangle", DIRICHLET, 1 / 4, 4),
            ("flagship", DIRICHLET, 0.048, 3),
            ("flagship", NEUMANN, 0.048, 3),
        ],
        ids=["square-D", "triangle-D", "flagship-D", "flagship-N"],
    )
    def test_permutes_the_dofs_on_every_level(self, shape, bc, h, levels, flagship_trapezoid):
        polygons = {"square": UNIT_SQUARE, "triangle": RIGHT_ISO_TRIANGLE, "flagship": vertices(flagship_trapezoid)}
        for mesh in ladder(polygons[shape], h, levels):
            K, M = assemble_p1(mesh)
            xy = mesh.nodes
            if bc == DIRICHLET:
                K, M = _restrict_dirichlet(K, M, mesh.boundary_mask)
                xy = xy[~mesh.boundary_mask]
            perm = _dissection_order(xy, K)
            assert np.array_equal(np.sort(perm), np.arange(K.shape[0]))

    def test_flagship_counts_match_default_order(self, flagship_trapezoid, monkeypatch, slices_in_process):
        # every count the flagship's level_eigenvalues(n=800, mesh_size=0.012,
        # refine_levels=2) plans its slices with
        poly = vertices(flagship_trapezoid)
        counted = []  # (dof, shift, eigenvalues below it)
        factor = eigensolver._factor

        def recorded(K, M, s):
            lu, below = factor(K, M, s)
            counted.append((K.shape[0], s, below))
            return lu, below

        monkeypatch.setattr(eigensolver, "_factor", recorded)
        monkeypatch.setattr(
            eigensolver, "_solve_slice", lambda K, M, lo, hi, want, v0: np.linspace(lo, hi, want, endpoint=False)
        )
        level_eigenvalues(poly, DIRICHLET, 800, 0.012, 2)
        for mesh in ladder(poly, 0.024, 2):
            K, M = _restrict_dirichlet(*assemble_p1(mesh), mesh.boundary_mask)
            shifts = [(s, below) for dof, s, below in counted if dof == K.shape[0]]
            assert len(shifts) >= math.ceil(800 / _SLICE_SIZE)
            for s, below in shifts:
                assert below == np.count_nonzero(default_ordered_factor(K, M, s).U.diagonal() < 0), s

    def test_flagship_fine_level_fill(self, flagship_trapezoid, monkeypatch):
        # counts structure only: L + U of the system the solver is handed
        # against the default-ordered LU of the restricted system
        poly = vertices(flagship_trapezoid)
        handed = []
        monkeypatch.setattr(eigensolver, "_solve_levels", lambda systems, *args: handed.extend(systems) or [])
        level_eigenvalues(poly, DIRICHLET, 800, 0.012, 2)
        K, M = handed[-1]
        mesh = ladder(poly, 0.024, 2)[-1]
        K0, M0 = _restrict_dirichlet(*assemble_p1(mesh), mesh.boundary_mask)
        assert K.shape == K0.shape
        s = 6000.0
        lu, default = _factor(K, M, s)[0], default_ordered_factor(K0, M0, s)
        assert lu.L.nnz + lu.U.nnz <= 0.8 * (default.L.nnz + default.U.nnz)


class TestLevelRun:
    """level_eigenvalues solves every level's slices in one run, finest level first."""

    @pytest.mark.parametrize("levels", [2, 3])
    def test_finest_level_first_planned_slices(self, levels, monkeypatch, slices_in_process):
        # small slices keep three levels cheap: 49, 225 and 961 interior nodes
        size, n = 12, 30
        monkeypatch.setattr(eigensolver, "_SLICE_SIZE", size)
        calls = []
        solve = eigensolver._solve_slice

        def recorded(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(eigensolver, "_solve_slice", recorded)
        out = level_eigenvalues(UNIT_SQUARE, DIRICHLET, n, 1 / 32, levels)
        dofs = [K.shape[0] for K, *_ in calls]
        assert dofs == sorted(dofs, reverse=True)  # every finer level before any coarser
        systems = {}  # level dofs -> (K, M), finest first
        for K, M, *_ in calls:
            systems.setdefault(K.shape[0], (K, M))
        assert len(systems) == len(out) == levels
        assert all(dofs.count(d) == math.ceil(n / size) for d in systems)
        for ev, (K, M) in zip(out, reversed(systems.values())):
            alone = lowest_eigenvalues(K, M, n, UNIT_SQUARE.area, UNIT_SQUARE.perimeter, DIRICHLET)
            assert np.array_equal(ev, alone)


    @pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN])
    def test_compute_spectrum_solves_two_finest_levels(self, bc, monkeypatch, slices_in_process):
        size, n = 12, 30
        monkeypatch.setattr(eigensolver, "_SLICE_SIZE", size)
        calls = []
        solve = eigensolver._solve_slice

        def recorded(*args):
            calls.append(args[0].shape[0])
            return solve(*args)

        monkeypatch.setattr(eigensolver, "_solve_slice", recorded)
        s = compute_spectrum(UNIT_SQUARE, bc, n, 1 / 32, 3)
        solved = sorted(set(calls))
        calls.clear()
        coarse, fine = level_eigenvalues(UNIT_SQUARE, bc, n, 1 / 32, 3)[-2:]
        assert solved == sorted(set(calls))[-2:]  # the coarsest level is not solved
        extrap = fine + (fine - coarse) / 3.0
        acc = np.abs(extrap - fine) / np.maximum(np.abs(fine), 1e-30)
        if bc == NEUMANN:  # the zero mode is exactly 0, with accuracy 0
            assert abs(extrap[0]) < 1e-6 * extrap[-1]
            extrap[0] = acc[0] = 0.0
        order = np.argsort(extrap, kind="stable")
        assert np.array_equal(s.eigenvalues, extrap[order])
        assert np.array_equal(s.accuracy, acc[order])


class TestWeylBound:
    @pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN])
    @pytest.mark.parametrize("shape", ["square", "flagship"])
    def test_root_of_two_term_weyl(self, shape, bc, flagship_trapezoid):
        poly = UNIT_SQUARE if shape == "square" else vertices(flagship_trapezoid)
        area, perimeter = poly.area, poly.perimeter
        sgn = 1.0 if bc == DIRICHLET else -1.0
        for j in (0.0, 0.5, 1.0, 2.0, 7.3, 158.0, 1000.0, 5000.0):
            lam = eigensolver._weyl_lambda(j, area, perimeter, bc)
            rhs = (4 * math.pi / area) * (max(j, 1.0) + sgn * perimeter * math.sqrt(lam) / (4 * math.pi))
            assert lam > 0
            assert abs(lam - rhs) <= 1e-12 * lam, j


# 961 interior nodes; n = 300 needs two slices of at most _SLICE_SIZE eigenvalues
SQUARE_H = 1 / 32
SQUARE_N = 300


@pytest.fixture(scope="module")
def square_system():
    """(K, M, dense eigenvalues) of the Dirichlet unit square on an h = 1/32 mesh."""
    mesh = triangulate(UNIT_SQUARE, SQUARE_H)
    K, M = _restrict_dirichlet(*assemble_p1(mesh), mesh.boundary_mask)
    return K, M, sla.eigh(K.toarray(), M.toarray(), eigvals_only=True)


@pytest.fixture(scope="module")
def pool():
    pool = workers.WorkerPool(2)
    yield pool
    pool.close()


class TestWorkerPool:
    def test_pool_matches_in_process(self, square_system, pool, monkeypatch):
        K, M, dense = square_system

        def solve(run):
            monkeypatch.setattr(workers, "executor", lambda tasks: run)
            return lowest_eigenvalues(K, M, SQUARE_N, UNIT_SQUARE.area, UNIT_SQUARE.perimeter, DIRICHLET)

        here = solve(workers.in_process)
        first, second = solve(pool.run), solve(pool.run)
        assert_matches_dense(here, dense)
        assert_matches_dense(first, dense)
        assert np.all(np.abs(first - here) <= 1e-9 * here)
        assert np.array_equal(first, second)

    def test_levels_on_pool_match_in_process(self, pool, monkeypatch):
        def solve(run):
            monkeypatch.setattr(workers, "executor", lambda tasks: run)
            return level_eigenvalues(UNIT_SQUARE, DIRICHLET, SQUARE_N, SQUARE_H / 2, 2)

        here = solve(workers.in_process)
        first, second = solve(pool.run), solve(pool.run)
        assert len(here) == len(first) == 2
        for a, b, c in zip(here, first, second):
            assert np.all(np.abs(b - a) <= 1e-9 * a)
            assert np.array_equal(b, c)

    def test_single_slice_levels_start_no_pool(self, monkeypatch):
        def no_pool(size):
            raise AssertionError(f"a pool of {size} was started for one slice per level")

        monkeypatch.setattr(workers, "cores", lambda: 4)
        monkeypatch.setattr(workers, "_shared_pool", no_pool)
        s = compute_spectrum(UNIT_SQUARE, n=20, mesh_size=1 / 16, refine_levels=2)
        assert s.count == 20

    def test_worker_error_reaches_caller(self, square_system, pool):
        K, M, dense = square_system
        lo, hi = -1.0, 0.5 * (dense[9] + dense[10])
        v0 = np.random.default_rng(_LANCZOS_SEED).standard_normal(K.shape[0])
        call = (_solve_slice, (K, M, lo, hi, 11, v0))  # the slice holds 10
        with pytest.raises(ConvergenceError) as here:
            workers.in_process([call])
        with pytest.raises(ConvergenceError) as there:
            pool.run([call])
        assert type(there.value) is ConvergenceError
        assert str(there.value) == str(here.value)
        # the pool still serves calls after a failed one
        assert_matches_dense(pool.run([(_solve_slice, (K, M, lo, hi, 10, v0))])[0], dense)

    def test_concurrent_runs_keep_call_order(self):
        # more workers than cores and calls of uneven length, so replies
        # arrive out of order; three threads share the pool
        pool = workers.WorkerPool(workers.cores() + 1)
        batches = [[(3001 * (i + t)) % 4000 for i in range(40)] for t in range(3)]
        got = {}

        def run(t):
            got[t] = pool.run((math.factorial, (k,)) for k in batches[t])

        threads = [threading.Thread(target=run, args=(t,)) for t in range(3)]
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
            assert not any(th.is_alive() for th in threads)
        finally:
            pool.close()
        for t, batch in enumerate(batches):
            assert got[t] == [math.factorial(k) for k in batch]

    def test_workers_use_one_blas_thread(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        pool = workers.WorkerPool(1)
        try:
            assert pool.run([(os.getenv, ("OPENBLAS_NUM_THREADS",))]) == ["1"]
        finally:
            pool.close()
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"

    def test_unguarded_script_runs_once(self, tmp_path, slices_in_process):
        script = tmp_path / "script.py"
        script.write_text(textwrap.dedent(f"""\
            import numpy as np
            from trapspec.eigensolver import compute_spectrum
            from trapspec.geometry import Polygon

            with open("runs.txt", "a") as f:
                f.write("top level\\n")
            square = Polygon(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float))
            ev = compute_spectrum(square, n={SQUARE_N}, mesh_size={SQUARE_H}, refine_levels=1).eigenvalues
            np.save("ev.npy", ev)
        """))
        src = str(Path(trapspec.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "script.py"], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "runs.txt").read_text().splitlines() == ["top level"]
        ev = np.load(tmp_path / "ev.npy")
        here = compute_spectrum(UNIT_SQUARE, n=SQUARE_N, mesh_size=SQUARE_H, refine_levels=1).eigenvalues
        assert np.all(np.abs(ev - here) <= 1e-9 * here)


class TestMesh:
    def test_refinement_quadruples_triangles(self):
        m = triangulate(UNIT_SQUARE, 0.25)
        m2 = refine_uniform(m)
        assert len(m2.triangles) == 4 * len(m.triangles)

    def test_covers_area(self):
        m = triangulate(RIGHT_ISO_TRIANGLE, 0.1)
        p = m.nodes[m.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        assert np.all(areas > 0)  # CCW
        assert np.sum(areas) == pytest.approx(0.5, rel=1e-12)

    def test_boundary_mask(self):
        m = triangulate(UNIT_SQUARE, 0.2)
        on = m.nodes[m.boundary_mask]
        d = np.minimum.reduce(
            [on[:, 0], on[:, 1], 1 - on[:, 0], 1 - on[:, 1]]
        )
        assert np.max(np.abs(d)) < 1e-9


class TestSpectrumIO:
    def test_csv_round_trip(self):
        s = exact_rectangle_spectrum(1, 2, 30)
        s2 = Spectrum.from_csv(s.to_csv())
        assert np.array_equal(s.eigenvalues, s2.eigenvalues)
        assert s2.boundary_condition == DIRICHLET
        assert np.allclose(s2.source_domain.vertices, s.source_domain.vertices)

    def test_sorted_enforced(self):
        with pytest.raises(DomainError):
            Spectrum(eigenvalues=np.array([3.0, 1.0]), boundary_condition=DIRICHLET)

    def test_resort_keeps_accuracy_with_eigenvalue(self):
        s = Spectrum(np.array([1.0, 2.0, 2.0 - 1e-12]), DIRICHLET, accuracy=np.array([0.1, 0.2, 0.3]))
        assert np.array_equal(s.eigenvalues, [1.0, 2.0 - 1e-12, 2.0])
        assert np.array_equal(s.accuracy, [0.1, 0.3, 0.2])
        with pytest.raises(DomainError):
            Spectrum(np.array([1.0, 2.0]), DIRICHLET, accuracy=np.array([0.1, 0.2, 0.3]))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_eigenvalue_rejected(self, bad):
        s = exact_rectangle_spectrum(1, 1.3, 20)
        ev = s.eigenvalues.copy()
        ev[4] = bad
        with pytest.raises(DomainError, match="eigenvalue 4 is .*must be finite"):
            Spectrum(ev, DIRICHLET)
        lines = s.to_csv().splitlines()
        lines[5] = str(bad)
        with pytest.raises(DomainError, match="must be finite"):
            Spectrum.from_csv("\n".join(lines))
        # an unknown accuracy stays allowed: a one-level spectrum has none
        unknown = Spectrum(s.eigenvalues, DIRICHLET, accuracy=np.full(20, np.nan))
        assert np.all(np.isnan(unknown.accuracy))

    @pytest.mark.parametrize(
        "bc, ev, sign",
        [
            (DIRICHLET, [-5.0, 10.0], "positive"),
            (DIRICHLET, [0.0, 10.0], "positive"),
            (DIRICHLET, [-0.0, 10.0], "positive"),
            (NEUMANN, [-1e-12, 0.0, 10.0], "non-negative"),
        ],
    )
    def test_negative_or_dirichlet_zero_eigenvalue_rejected(self, bc, ev, sign):
        match = f"eigenvalue 0 is .*{bc} eigenvalues must be {sign}"
        with pytest.raises(DomainError, match=match):
            Spectrum(np.array(ev), bc)
        tag = "D" if bc == DIRICHLET else "N"
        with pytest.raises(DomainError, match=match):
            Spectrum.from_csv("\n".join([f"# bc={tag} domain=null accuracy="] + [str(v) for v in ev]))

    def test_neumann_zero_mode_accepted(self):
        s = Spectrum(np.array([0.0, 0.0, 10.0]), NEUMANN)
        assert s.eigenvalues.tolist() == [0.0, 0.0, 10.0]
        assert Spectrum.from_csv(s.to_csv()).eigenvalues[0] == 0.0
