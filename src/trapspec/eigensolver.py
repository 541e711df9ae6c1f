"""Laplace eigenvalues of convex polygons: exact rectangles and P1 finite elements.

The FEM path assembles stiffness/mass matrices on uniformly refined meshes,
solves the generalized symmetric eigenproblem by shift-invert Lanczos in
inertia-certified spectrum slices (a Sylvester inertia count fixes how many
eigenvalues each slice must return), and Richardson-extrapolates across
refinement levels assuming second-order eigenvalue convergence.

The counts make the slices independent, so they are solved in parallel by
the `workers` process pool: one worker per core in the affinity mask, each
with one BLAS thread, started on the first multi-slice solve and kept for
the life of the process (about 170 MB per worker at the flagship's 12,700
degrees of freedom). A one-core mask (`taskset -c 0`) solves in-process.
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
_EIGSH_SEED = 20240901
_SLICE_SIZE = 250  # eigenvalues per spectrum slice
_RITZ_MARGIN = 10  # Ritz values requested beyond a slice's inertia count


@dataclass
class Spectrum:
    """Ascending Laplace eigenvalues with boundary condition and accuracy."""

    eigenvalues: np.ndarray
    boundary_condition: str
    accuracy: np.ndarray | None = None  # estimated relative error per eigenvalue
    source_domain: Polygon | None = None

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        if np.any(np.diff(ev) < -1e-9 * max(1.0, abs(ev[-1]) if len(ev) else 1.0)):
            raise DomainError("eigenvalues must be sorted ascending")
        order = np.argsort(ev, kind="stable")  # each accuracy stays with its eigenvalue
        self.eigenvalues = ev[order]
        if self.boundary_condition not in (DIRICHLET, NEUMANN):
            raise DomainError(f"unknown boundary condition {self.boundary_condition!r}")
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
        acc = (
            float(np.max(self.accuracy)) if self.accuracy is not None and len(self.accuracy) else ""
        )
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
        if len(ev) == 0:
            raise DomainError("spectrum file lists no eigenvalues")
        return cls(eigenvalues=ev, boundary_condition=bc, source_domain=dom)

    def to_json(self) -> str:
        return json.dumps(
            {
                "bc": self.boundary_condition,
                "eigenvalues": self.eigenvalues.tolist(),
                "accuracy": self.accuracy.tolist() if self.accuracy is not None else None,
                "domain": self.source_domain.vertices.tolist()
                if self.source_domain is not None
                else None,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Spectrum":
        d = json.loads(text)
        return cls(
            eigenvalues=np.array(d["eigenvalues"]),
            boundary_condition=d["bc"],
            accuracy=np.array(d["accuracy"]) if d.get("accuracy") is not None else None,
            source_domain=Polygon(np.array(d["domain"])) if d.get("domain") else None,
        )


def exact_rectangle_spectrum(a: float, c: float, n: int, bc: str = DIRICHLET) -> Spectrum:
    """Lowest n eigenvalues of an a-by-c rectangle, with multiplicity, exact.

    Dirichlet: pi^2 (m^2/a^2 + k^2/c^2), m, k >= 1; Neumann allows m, k >= 0.
    """
    if a <= 0 or c <= 0 or n < 1:
        raise DomainError("need positive sides and n >= 1")
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


# ---- sliced shift-invert eigensolve ---------------------------------------


def _weyl_lambda(j: float, area: float, perimeter: float, bc: str) -> float:
    """Two-term Weyl estimate for the j-th eigenvalue."""
    sgn = 1.0 if bc == DIRICHLET else -1.0
    lam = 4 * math.pi * max(j, 1.0) / area
    for _ in range(8):
        lam = (4 * math.pi / area) * (max(j, 1.0) + sgn * perimeter * math.sqrt(max(lam, 0)) / (4 * math.pi))
    return lam


def _factor(K: sp.spmatrix, M: sp.spmatrix, s: float):
    """LU of K - s M and the exact number of eigenvalues of (K, M) below s.

    Diagonal pivots keep the permutation symmetric, so the signs of U's
    diagonal are the inertia of K - s M (Sylvester's law of inertia).
    """
    lu = spla.splu((K - s * M).tocsc(), diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    return lu, int(np.count_nonzero(lu.U.diagonal() < 0))


def _solve_slice(K, M, lo: float, hi: float, want: int, v0: np.ndarray) -> np.ndarray:
    """The `want` eigenvalues of (K, M) in [lo, hi), ascending.

    Shift-invert Lanczos about the midpoint, with its LU as the inverse: the
    `want` eigenvalues nearest the midpoint are exactly those inside, and
    finding any other number is a ConvergenceError.
    """
    sigma = 0.5 * (lo + hi)
    lu, _ = _factor(K, M, sigma)
    op = spla.LinearOperator(K.shape, matvec=lu.solve, dtype=float)
    vals = spla.eigsh(
        K, k=want + _RITZ_MARGIN, M=M, sigma=sigma, which="LM", OPinv=op,
        v0=v0, return_eigenvectors=False, maxiter=5000,
    )
    inside = np.sort(vals[(vals >= lo) & (vals < hi)])
    if len(inside) != want:
        raise ConvergenceError(
            f"slice [{lo:.6g}, {hi:.6g}) holds {want} eigenvalues, Lanczos found {len(inside)}"
        )
    return inside


def lowest_eigenvalues(
    K: sp.spmatrix,
    M: sp.spmatrix,
    n: int,
    area: float,
    perimeter: float,
    bc: str,
) -> np.ndarray:
    """Lowest n generalized eigenvalues of (K, M) via inertia-certified slices.

    Slice bounds are Weyl estimates, added until an inertia count shows n
    eigenvalues below the last one. Each slice is solved by `_solve_slice`,
    which must find exactly its counted eigenvalues, else ConvergenceError.
    The counts stay here; each slice goes to the `workers` pool (one worker
    per core in the affinity mask, each with one BLAS thread) as soon as its
    upper count is known, so counting overlaps solving. With one core, or
    one slice, the slices are solved in this process. Results are collected
    in slice order and do not depend on scheduling.
    """
    ndof = K.shape[0]
    if n > ndof:
        raise ConvergenceError(f"requested {n} eigenvalues but only {ndof} dofs")
    if n + _RITZ_MARGIN >= ndof:
        return sla.eigh(K.toarray(), M.toarray(), eigvals_only=True)[:n]
    v0 = np.random.default_rng(_EIGSH_SEED).standard_normal(ndof)
    slices = math.ceil(n / _SLICE_SIZE)

    def slice_calls():
        # Weyl index steps of at most _SLICE_SIZE, shortened near n to twice
        # the shortfall; no eigenvalue lies below -1
        lo, count, j = -1.0, 0, 0.0
        while count < n:
            j += min(n / slices, 2 * (n - count))
            hi = _weyl_lambda(j, area, perimeter, bc)
            want = _factor(K, M, hi)[1] - count
            if want:
                yield _solve_slice, (K, M, lo, hi, want, v0)
            lo, count = hi, count + want

    run = workers.executor(slices)
    return np.concatenate(run(slice_calls()))[:n]


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
    modes are dropped automatically.
    """
    per_level = level_eigenvalues(polygon, bc, n, mesh_size, refine_levels)
    fine = per_level[-1]
    if len(per_level) >= 2:
        coarse = per_level[-2]
        extrap = fine + (fine - coarse) / 3.0
        denom = np.maximum(np.abs(fine), 1e-30)
        acc = np.abs(extrap - fine) / denom
        ev = extrap
    else:
        ev = fine
        acc = np.full(n, np.nan)

    if bc == NEUMANN:
        ev = ev.copy()
        ev[0] = max(ev[0], 0.0) if abs(ev[0]) < 1e-6 * max(ev[-1], 1.0) else ev[0]

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

    Triangulates at mesh_size * 2**(refine_levels - 1), refines uniformly
    down to mesh_size (default: a shortest-edge / 8 element), then assembles,
    restricts and solves every level. Levels with too few degrees of freedom
    to represent n modes are skipped; MeshError when none is left.
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
    if mesh_size > shortest / 8.0 + 1e-12:
        raise MeshError("mesh_size must resolve the shortest edge by >= 8 elements")
    if refine_levels < 1:
        raise DomainError("refine_levels must be >= 1")

    coarse_h = mesh_size * 2 ** (refine_levels - 1)
    mesh = triangulate(polygon, coarse_h)
    meshes = [mesh]
    for _ in range(refine_levels - 1):
        mesh = refine_uniform(mesh, polygon)
        meshes.append(mesh)

    out = []
    for m in meshes:
        K, M = assemble_p1(m)
        if bc == DIRICHLET:
            K, M = _restrict_dirichlet(K, M, m.boundary_mask)
        else:
            K, M = K.tocsc(), M.tocsc()
        if K.shape[0] < int(1.25 * n) + 5:
            continue  # too coarse to represent n modes
        out.append(lowest_eigenvalues(K, M, n, polygon.area, polygon.perimeter, bc))
    if not out:
        raise MeshError("no refinement level had enough degrees of freedom")
    return out
