"""Laplace eigenvalues of convex polygons: exact rectangles and P1 finite elements.

The FEM path assembles stiffness/mass matrices on uniformly refined meshes,
solves the generalized symmetric eigenproblem in inertia-certified spectrum
slices (a Sylvester inertia count fixes how many eigenvalues each slice must
return), and Richardson-extrapolates across refinement levels assuming
second-order eigenvalue convergence. Each slice is solved by a shift-invert
Lanczos of its own (one full Gram-Schmidt pass per step, no restarts and no
ARPACK) that stops as soon as exactly the counted number of converged Ritz
values lies inside the slice (Grimes, Lewis & Simon, SIAM J. Matrix Anal.
Appl. 15 (1994); Campos & Roman, Numer. Algorithms 60 (2012)).

Every count and every slice factors K - s M by SuperLU with diagonal pivots,
in one order per level: a geometric nested dissection of the level's degrees
of freedom (George, SIAM J. Numer. Anal. 10 (1973); Lipton, Rose & Tarjan,
SIAM J. Numer. Anal. 16 (1979)), computed once from their coordinates, with
SuperLU told to keep it (NATURAL). On the flagship's finer level (12,723
degrees of freedom) L + U hold 0.79M nonzeros against COLAMD's 1.13M, and a
factorization takes about half as long. The order is a symmetric
permutation and no row is pivoted, so U's diagonal still carries the
inertia of K - s M that certifies each slice.

The counts make the slices independent, so every level's slices are solved
in one run of the `workers` process pool, the finest level's first: one
worker per core in the affinity mask, each with one BLAS thread, started on
the first solve whose levels take more than one slice each and kept for the
life of the process (about 127 MB per worker after a flagship solve at
12,700 degrees of freedom). A one-core mask (`taskset -c 0`) solves
in-process.
"""

from __future__ import annotations

import heapq
import io
import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import workers
from .errors import ConvergenceError, DomainError, MeshError
from .geometry import Polygon
from .mesh import Mesh, refine_uniform, triangulate

DIRICHLET = "Dirichlet"
NEUMANN = "Neumann"

# desk-scale caps
MAX_EIGENVALUES = 5000
_LANCZOS_SEED = 20240901
_SLICE_SIZE = 160  # a level of n eigenvalues takes ceil(n / _SLICE_SIZE) slices
_LANCZOS_ROWS = 21  # first basis: 2 want + 21 rows, ARPACK's ncv for want + 10 values
_LANCZOS_CAP = 4  # step cap: this many first bases
_RITZ_CHECK = 10  # Lanczos steps between Ritz convergence checks
_RITZ_TOL = 1e-10  # converged: residual bound below this times |theta|
_DISSECTION_LEAF = 16  # a part of at most this many nodes is not bisected


@dataclass
class Spectrum:
    """Ascending, finite, non-negative Laplace eigenvalues with boundary condition and accuracy."""

    eigenvalues: np.ndarray
    boundary_condition: str
    accuracy: np.ndarray | None = None  # estimated relative error per eigenvalue
    source_domain: Polygon | None = None

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        if len(ev) == 0:
            raise DomainError("a spectrum needs at least one eigenvalue")
        bad = np.flatnonzero(~np.isfinite(ev))
        if len(bad):
            raise DomainError(f"eigenvalue {bad[0]} is {ev[bad[0]]}; eigenvalues must be finite")
        if np.any(np.diff(ev) < -1e-9 * max(1.0, abs(ev[-1]))):
            raise DomainError("eigenvalues must be sorted ascending")
        order = np.argsort(ev, kind="stable")  # each accuracy stays with its eigenvalue
        self.eigenvalues = ev[order]
        if self.boundary_condition not in (DIRICHLET, NEUMANN):
            raise DomainError(f"unknown boundary condition {self.boundary_condition!r}")
        # the Laplacian is non-negative, and only Neumann's constant mode reaches 0
        dirichlet = self.boundary_condition == DIRICHLET
        bad = np.flatnonzero(ev <= 0 if dirichlet else ev < 0)
        if len(bad):
            sign = "positive" if dirichlet else "non-negative"
            raise DomainError(
                f"eigenvalue {bad[0]} is {ev[bad[0]]}; "
                f"{self.boundary_condition} eigenvalues must be {sign}"
            )
        if self.accuracy is not None:
            acc = np.asarray(self.accuracy, dtype=float)
            if acc.shape != ev.shape:
                raise DomainError("accuracy must hold one entry per eigenvalue")
            self.accuracy = acc[order]

    @property
    def count(self) -> int:
        return len(self.eigenvalues)

    # ---- persistence -----------------------------------------------------

    def to_csv(self) -> str:
        dom = (
            json.dumps(self.source_domain.vertices.tolist())
            if self.source_domain is not None
            else "null"
        )
        acc = float(np.max(self.accuracy)) if self.accuracy is not None else ""
        bc = "D" if self.boundary_condition == DIRICHLET else "N"
        buf = io.StringIO()
        buf.write(f"# bc={bc} domain={dom} accuracy={acc}\n")
        for lam in self.eigenvalues:
            buf.write(f"{lam:.17g}\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "Spectrum":
        lines = text.strip().splitlines()
        header = lines[0] if lines else ""
        if not header.startswith("# bc="):
            raise DomainError("missing spectrum header line")
        bc_tag = header[len("# bc="):].split(" ", 1)[0]
        if bc_tag not in ("D", "N"):
            raise DomainError(f"unknown boundary condition tag bc={bc_tag}")
        bc = DIRICHLET if bc_tag == "D" else NEUMANN
        if " domain=" not in header:
            raise DomainError("spectrum header line has no domain= field")
        dom_text = header.split("domain=")[1].rsplit(" accuracy=", 1)[0]
        dom = None
        if dom_text != "null":
            dom = Polygon(np.array(json.loads(dom_text)))
        ev = np.array(
            [float(s) for s in lines[1:] if s.strip() and not s.startswith("#")]
        )
        return cls(eigenvalues=ev, boundary_condition=bc, source_domain=dom)


def exact_rectangle_spectrum(a: float, c: float, n: int, bc: str = DIRICHLET) -> Spectrum:
    """Lowest n eigenvalues of an a-by-c rectangle, with multiplicity, exact.

    Dirichlet: pi^2 (m^2/a^2 + k^2/c^2), m, k >= 1; Neumann allows m, k >= 0.
    n is capped at MAX_EIGENVALUES, as in compute_spectrum.
    """
    if a <= 0 or c <= 0 or n < 1:
        raise DomainError("need positive sides and n >= 1")
    if n > MAX_EIGENVALUES:
        raise DomainError(f"n must lie in [1, {MAX_EIGENVALUES}], got {n}")
    start = 1 if bc == DIRICHLET else 0
    # lazily expand a lattice heap until n values are popped
    fa, fc = (math.pi / a) ** 2, (math.pi / c) ** 2

    def lam(m, k):
        return fa * m * m + fc * k * k

    heap = [(lam(start, start), start, start)]
    seen = {(start, start)}
    out = []
    while len(out) < n:
        val, m, k = heapq.heappop(heap)
        out.append(val)
        for m2, k2 in ((m + 1, k), (m, k + 1)):
            if (m2, k2) not in seen:
                seen.add((m2, k2))
                heapq.heappush(heap, (lam(m2, k2), m2, k2))
    ev = np.array(out)
    return Spectrum(
        eigenvalues=ev,
        boundary_condition=bc,
        accuracy=np.zeros(n),
        source_domain=Polygon(np.array([[0, 0], [a, 0], [a, c], [0, c]], dtype=float)),
    )


# ---- P1 assembly ---------------------------------------------------------


def assemble_p1(mesh: Mesh) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Stiffness and consistent mass matrices for piecewise-linear elements."""
    nodes, tris = mesh.nodes, mesh.triangles
    p = nodes[tris]  # (m, 3, 2)
    v1 = p[:, 1] - p[:, 0]
    v2 = p[:, 2] - p[:, 0]
    det = v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0]
    area = 0.5 * np.abs(det)
    if np.any(area <= 0):
        raise MeshError("degenerate triangle in mesh")

    # gradients of the three barycentric basis functions
    b = np.stack(
        [p[:, 1, 1] - p[:, 2, 1], p[:, 2, 1] - p[:, 0, 1], p[:, 0, 1] - p[:, 1, 1]], axis=1
    )
    cc = np.stack(
        [p[:, 2, 0] - p[:, 1, 0], p[:, 0, 0] - p[:, 2, 0], p[:, 1, 0] - p[:, 0, 0]], axis=1
    )
    ke = (b[:, :, None] * b[:, None, :] + cc[:, :, None] * cc[:, None, :]) / (
        4.0 * area[:, None, None]
    )
    me_ref = (np.ones((3, 3)) + np.eye(3)) / 12.0
    me = area[:, None, None] * me_ref[None, :, :]

    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    n = len(nodes)
    K = sp.coo_matrix((ke.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    M = sp.coo_matrix((me.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    return K, M


def _restrict_dirichlet(K, M, boundary_mask):
    keep = np.flatnonzero(~boundary_mask)
    return K[np.ix_(keep, keep)].tocsc(), M[np.ix_(keep, keep)].tocsc()


# ---- nested-dissection order ------------------------------------------------


def _group_rank(groups: np.ndarray, key: np.ndarray | None = None) -> np.ndarray:
    """Rank of each entry among the entries of its group, by key, ties in input order."""
    order = np.lexsort((key, groups)) if key is not None else np.argsort(groups, kind="stable")
    count = np.bincount(groups)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order)) - np.repeat(np.cumsum(count) - count, count)
    return rank


def _dissection_order(xy: np.ndarray, K: sp.spmatrix) -> np.ndarray:
    """A nested-dissection permutation of the nodes at xy, joined by K's pattern.

    Each part is bisected at the median coordinate along the longer side of
    its bounding box. The upper-half endpoint of every edge of K's
    off-diagonal pattern that the split cuts goes to the separator, which
    leaves the two halves unconnected and is numbered after both of them
    (George, SIAM J. Numer. Anal. 10 (1973)). A part of at most
    _DISSECTION_LEAF nodes keeps its input order. Every part of one
    bisection depth is split at once. Returns perm: new index k is node
    perm[k], so K[perm][:, perm] is K in the new order.
    """
    n = len(xy)
    K = K.tocsc()
    ei = K.indices
    ej = np.repeat(np.arange(n), np.diff(K.indptr))
    ei, ej = ei[ei < ej], ej[ei < ej]
    part = np.zeros(n, dtype=np.intp)  # the part of each node, -1 once it has a position
    first = np.zeros(1, dtype=np.intp)  # each part's first position
    pos = np.empty(n, dtype=np.intp)
    upper = np.zeros(n, dtype=bool)
    while (live := np.flatnonzero(part >= 0)).size:
        p = part[live]
        size = np.bincount(p, minlength=len(first))
        leaf = size[p] <= _DISSECTION_LEAF
        pos[live[leaf]] = first[p[leaf]] + _group_rank(p[leaf])
        part[live[leaf]] = -1
        live, p = live[~leaf], p[~leaf]
        extent = []  # of each part's bounding box, along x and along y
        for c in xy[live].T:
            lo, hi = np.full(len(first), np.inf), np.full(len(first), -np.inf)
            np.minimum.at(lo, p, c)
            np.maximum.at(hi, p, c)
            extent.append(hi - lo)
        axis = np.argmax(extent, axis=0)[p]
        upper[live] = _group_rank(p, xy[live, axis]) >= size[p] // 2
        same = (part[ei] == part[ej]) & (part[ei] >= 0)  # edges inside one part
        ei, ej = ei[same], ej[same]
        cut = upper[ei] != upper[ej]
        sep = np.zeros(n, dtype=bool)
        sep[np.where(upper[ei], ei, ej)[cut]] = True
        on = sep[live]
        # the separator takes the last positions of its part
        ps = p[on]
        sep_size = np.bincount(ps, minlength=len(first))
        pos[live[on]] = first[ps] + size[ps] - sep_size[ps] + _group_rank(ps)
        part[live[on]] = -1
        # part k's lower half becomes part 2k, its upper half less the separator 2k + 1
        part[live[~on]] = 2 * p[~on] + upper[live[~on]]
        first = np.stack([first, first + size // 2], axis=1).ravel()
    perm = np.empty(n, dtype=np.intp)
    perm[pos] = np.arange(n)
    return perm


# ---- sliced shift-invert eigensolve ---------------------------------------


def _weyl_lambda(j: float, area: float, perimeter: float, bc: str) -> float:
    """Two-term Weyl estimate for the j-th eigenvalue.

    The positive root of lam = (4 pi / A)(max(j, 1) +- L sqrt(lam) / (4 pi)),
    a quadratic in sqrt(lam); plus for Dirichlet, minus for Neumann.
    """
    r = perimeter / area if bc == DIRICHLET else -perimeter / area
    x = 0.5 * (r + math.sqrt(r * r + 16 * math.pi * max(j, 1.0) / area))
    return x * x


def _factor(K: sp.spmatrix, M: sp.spmatrix, s: float):
    """LU of K - s M and the exact number of eigenvalues of (K, M) below s.

    (K, M) is factored in the order it comes in, which `_solve_meshes` has
    made a nested dissection: SuperLU's NATURAL column order skips its own
    COLAMD, which fills these planar matrices about 1.4 times as much.
    Diagonal pivots then permute no row either, so the factors are those of
    a symmetric LDL^T and the signs of U's diagonal are the inertia of
    K - s M (Sylvester's law of inertia), whatever the order.
    """
    lu = spla.splu(
        (K - s * M).tocsc(),
        permc_spec="NATURAL",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    return lu, int(np.count_nonzero(lu.U.diagonal() < 0))


def _solve_slice(K, M, lo: float, hi: float, want: int, v0: np.ndarray) -> np.ndarray:
    """The `want` eigenvalues of (K, M) in [lo, hi), ascending.

    Lanczos on (K - sigma M)^-1 M in the M inner product, sigma the midpoint,
    with its LU as the inverse: the eigenvalues inside are the Ritz values
    theta with sigma + 1/theta in [lo, hi). Each step runs the three-term
    recurrence and then one full Gram-Schmidt pass against the basis. The
    loop stops once exactly `want` converged Ritz values lie inside and no
    unconverged one does; a Ritz value is converged when its residual bound
    |beta_m s_m| is below _RITZ_TOL |theta|. More than `want` converged
    inside, or no stop within the step cap, is a ConvergenceError.
    """
    sigma = 0.5 * (lo + hi)
    lu, _ = _factor(K, M, sigma)
    ndof = K.shape[0]
    rows = min(ndof, 2 * want + _LANCZOS_ROWS)  # grown on demand up to the cap
    cap = min(ndof, _LANCZOS_CAP * rows)
    basis = np.empty((rows, ndof))
    alpha, beta = np.empty(cap), np.empty(cap)
    mv = M @ v0
    norm = math.sqrt(v0 @ mv)
    v, mv = v0 / norm, mv / norm
    found, stopped = 0, False
    for m in range(cap):
        if m == len(basis):
            basis = np.concatenate([basis, np.empty((min(rows, cap - m), ndof))])
        basis[m] = v
        w = lu.solve(mv)
        alpha[m] = w @ mv
        w -= alpha[m] * v
        if m:
            w -= beta[m - 1] * basis[m - 1]
        w -= (basis[: m + 1] @ (M @ w)) @ basis[: m + 1]
        mv = M @ w
        beta[m] = math.sqrt(w @ mv)
        if m + 1 >= want and ((m + 1 - want) % _RITZ_CHECK == 0 or m + 1 == cap):
            theta, s = sla.eigh_tridiagonal(alpha[: m + 1], beta[:m])
            converged = np.abs(beta[m] * s[-1]) <= _RITZ_TOL * np.abs(theta)
            with np.errstate(divide="ignore"):
                lam = sigma + 1.0 / theta
            inside = (lam >= lo) & (lam < hi)
            found = int(np.count_nonzero(inside & converged))
            stopped = found == want and bool(np.all(converged[inside]))
            if stopped or found > want:
                break
        v, mv = w / beta[m], mv / beta[m]
    if not stopped:
        raise ConvergenceError(
            f"slice [{lo:.6g}, {hi:.6g}) holds {want} eigenvalues, Lanczos found {found}"
        )
    return np.sort(lam[inside])


def _slice_calls(K, M, n: int, area: float, perimeter: float, bc: str):
    """The `_solve_slice` calls that return the lowest n eigenvalues of (K, M).

    Slice bounds are Weyl estimates, added until an inertia count shows n
    eigenvalues below the last one. A level is planned as ceil(n /
    _SLICE_SIZE) slices: each bound aims at an even share of the eigenvalues
    still missing over the planned slices still to come, so the remaining
    shares absorb an aim that falls short or long. Only when the last
    planned slice falls short by a quarter of its share or more is another
    added. The counts are taken here, as the calls are drawn, so counting
    overlaps solving on the pool.
    """
    v0 = np.random.default_rng(_LANCZOS_SEED).standard_normal(K.shape[0])
    # each aim follows the secant through the last two (Weyl index, count)
    # points, and a Weyl step at most doubles from one bound to the next.
    # No eigenvalue lies below -1
    lo, count, j, step, slope = -1.0, 0, 0.0, math.inf, 1.0
    left = math.ceil(n / _SLICE_SIZE)  # planned slices still to come
    while count < n:
        share = (n - count) / max(left, 1)
        step = min(share / slope, 2 * step)
        while True:
            hi = _weyl_lambda(j + step, area, perimeter, bc)
            above = _factor(K, M, hi)[1]
            if above > count:
                slope = (above - count) / step
            if not 0 < n - above < share / 4:
                break
            # move this bound past n rather than leave a small last slice,
            # aiming a little past the secant so that one push nearly always
            # suffices without solving many values beyond n
            step += 1.15 * (n - above + 1) / slope
        if above > count:
            yield _solve_slice, (K, M, lo, hi, above - count, v0)
            left -= 1
        lo, count, j = hi, above, j + step


def _solve_levels(systems, n: int, area: float, perimeter: float, bc: str) -> list[np.ndarray]:
    """Lowest n generalized eigenvalues of each (K, M) in systems, in one run.

    Every system's slices go through one `workers` run, the last system's
    (the finest level's, whose slices take longest) first, so no worker
    waits at a barrier between levels. The pool is asked for the per-system
    slice count, so when each system fits in one slice nothing starts a
    pool. Results are collected in slice order and do not depend on
    scheduling.
    """
    for K, _ in systems:
        if n > K.shape[0]:
            raise ConvergenceError(f"requested {n} eigenvalues but only {K.shape[0]} dofs")
    taken = []  # slice calls drawn from each system, last system first

    def calls():
        for K, M in reversed(systems):
            taken.append(0)
            for call in _slice_calls(K, M, n, area, perimeter, bc):
                taken[-1] += 1
                yield call

    results = workers.executor(math.ceil(n / _SLICE_SIZE))(calls())
    out, start = [], 0
    for size in taken:
        out.append(np.concatenate(results[start : start + size])[:n])
        start += size
    return out[::-1]


def lowest_eigenvalues(
    K: sp.spmatrix,
    M: sp.spmatrix,
    n: int,
    area: float,
    perimeter: float,
    bc: str,
) -> np.ndarray:
    """Lowest n generalized eigenvalues of (K, M) via inertia-certified slices.

    Each slice's bounds come from `_slice_calls`, and each slice is solved
    by `_solve_slice`, which must find exactly its counted eigenvalues,
    else ConvergenceError. The slices go to the `workers` pool (one worker
    per core in the affinity mask, each with one BLAS thread) as soon as
    their upper counts are known; with one core, or one slice, they are
    solved in this process. This is the one-level case of `_solve_levels`.
    (K, M) is factored in the order given (see `_factor`); `_dissection_order`
    gives a fill-reducing one. A system left in mesh order pays about 40
    times as much: on the flagship's fine level (12,723 degrees of freedom),
    with the slice solves stubbed, it took 25.4 s against 0.66 s in
    dissection order. `compute_spectrum` and `level_eigenvalues` put each
    system in that order first.
    """
    return _solve_levels([(K, M)], n, area, perimeter, bc)[0]


# ---- public FEM driver -----------------------------------------------------


def compute_spectrum(
    polygon: Polygon,
    bc: str = DIRICHLET,
    n: int = 100,
    mesh_size: float | None = None,
    refine_levels: int = 3,
) -> Spectrum:
    """Lowest n eigenvalues of a convex polygon by P1 FEM with extrapolation.

    mesh_size is the target element size of the FINEST level. Eigenvalues are
    Richardson-extrapolated from the two finest levels (lam_f + (lam_f -
    lam_c)/3 for an exact mesh halving); the per-eigenvalue accuracy field is
    the relative size of that correction. Levels too coarse to represent n
    modes are dropped automatically, and only the two finest usable levels
    are assembled and solved. With refine_levels >= 2, fewer than two usable
    levels leave nothing to extrapolate and raise MeshError; refine_levels=1
    solves the one level and leaves accuracy NaN. A Neumann first eigenvalue
    below 1e-6 times the top one in size is the zero mode, an exact P1
    eigenvector (the constant function), and is returned as exactly 0 with
    accuracy 0.
    """
    meshes = _usable_meshes(polygon, bc, n, mesh_size, refine_levels)
    if refine_levels >= 2 and len(meshes) < 2:
        raise MeshError(
            f"only the finest of {refine_levels} levels has the degrees of freedom for"
            f" n = {n}, so nothing can be extrapolated; refine mesh_size or ask for"
            " refine_levels=1"
        )
    *coarse, fine = _solve_meshes(meshes[-2:], polygon, bc, n)
    if coarse:
        ev = fine + (fine - coarse[0]) / 3.0
        acc = np.abs(ev - fine) / np.maximum(np.abs(fine), 1e-30)
    else:
        ev, acc = fine, np.full(n, np.nan)

    if bc == NEUMANN and abs(ev[0]) < 1e-6 * max(ev[-1], 1.0):
        # the zero mode's computed value and its correction are rounding
        ev[0] = acc[0] = 0.0

    # extrapolation pairs modes by index, which can leave them out of order
    order = np.argsort(ev, kind="stable")
    return Spectrum(
        eigenvalues=ev[order],
        boundary_condition=bc,
        accuracy=acc[order],
        source_domain=polygon,
    )


def level_eigenvalues(
    polygon: Polygon,
    bc: str,
    n: int,
    mesh_size: float | None,
    refine_levels: int,
) -> list[np.ndarray]:
    """Raw eigenvalues of each usable refinement level, coarsest first.

    The levels are those of `_usable_meshes`, solved in one `workers` run.
    """
    return _solve_meshes(_usable_meshes(polygon, bc, n, mesh_size, refine_levels), polygon, bc, n)


def _usable_meshes(
    polygon: Polygon,
    bc: str,
    n: int,
    mesh_size: float | None,
    refine_levels: int,
) -> list[Mesh]:
    """The refinement ladder's meshes with enough degrees of freedom, coarsest first.

    Triangulates at mesh_size * 2**(refine_levels - 1) and refines uniformly
    down to mesh_size (default: a shortest-edge / 8 element). Levels with too
    few degrees of freedom (interior nodes for Dirichlet, all nodes for
    Neumann) to represent n modes are skipped; MeshError when none is left.
    mesh_size must be positive and finite, and the coarsest element no
    longer than the shortest edge, else MeshError before any meshing.
    """
    if not polygon.is_convex():
        raise DomainError("polygon must be convex")
    if bc not in (DIRICHLET, NEUMANN):
        raise DomainError(f"unknown boundary condition {bc!r}")
    if not 1 <= n <= MAX_EIGENVALUES:
        raise DomainError(f"n must lie in [1, {MAX_EIGENVALUES}], got {n}")
    edges = polygon.edges()
    shortest = float(np.min(np.linalg.norm(edges[:, 1] - edges[:, 0], axis=1)))
    if mesh_size is None:
        mesh_size = shortest / 8.0
    if not (math.isfinite(mesh_size) and mesh_size > 0):
        raise MeshError(f"mesh_size must be positive and finite, got {mesh_size}")
    if mesh_size > shortest / 8.0 + 1e-12:
        raise MeshError("mesh_size must resolve the shortest edge by >= 8 elements")
    if refine_levels < 1:
        raise DomainError("refine_levels must be >= 1")
    # compared in halvings, so a huge refine_levels cannot overflow
    if refine_levels - 1 > math.log2(shortest / mesh_size) + 1e-9:
        raise MeshError(
            f"the coarsest element, mesh_size * 2**{refine_levels - 1}, must be no longer"
            f" than the shortest edge {shortest:.6g}"
        )

    meshes = [triangulate(polygon, mesh_size * 2 ** (refine_levels - 1))]
    for _ in range(refine_levels - 1):
        meshes.append(refine_uniform(meshes[-1]))
    dofs = [m.n_nodes if bc == NEUMANN else int(np.count_nonzero(~m.boundary_mask)) for m in meshes]
    usable = [m for m, d in zip(meshes, dofs) if d >= int(1.25 * n) + 5]
    if not usable:
        raise MeshError("no refinement level had enough degrees of freedom")
    return usable


def _solve_meshes(meshes: list[Mesh], polygon: Polygon, bc: str, n: int) -> list[np.ndarray]:
    """Lowest n eigenvalues on each mesh (Dirichlet: interior nodes only), in one run.

    Each level's (K, M) is put into nested-dissection order once, from its
    degrees of freedom's coordinates, and every factorization of that level
    (the counts here and each worker's slice) uses that order.
    """
    systems = [assemble_p1(m) for m in meshes]
    if bc == DIRICHLET:
        systems = [_restrict_dirichlet(K, M, m.boundary_mask) for (K, M), m in zip(systems, meshes)]
        dof_nodes = [m.nodes[~m.boundary_mask] for m in meshes]
    else:
        systems = [(K.tocsc(), M.tocsc()) for K, M in systems]
        dof_nodes = [m.nodes for m in meshes]
    ordered = []
    for (K, M), xy in zip(systems, dof_nodes):
        perm = _dissection_order(xy, K)
        ordered.append((K[perm][:, perm], M[perm][:, perm]))
    return _solve_levels(ordered, n, polygon.area, polygon.perimeter, bc)
