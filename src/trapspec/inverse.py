"""Reconstruction of a non-obtuse trapezoid (or rectangle) from its spectrum.

The pipeline turns the uniqueness proof into a procedure: extract the heat
invariants (A, L, q), decide rectangle vs trapezoid from q, then walk the
wave-trace singularities in order of length. One reading step serves the
whole walk: it classifies candidates in order and stops at the first whose
label is not the one its pass skips. The first pass skips diffractive
(2mb-type) lengths: order +1/2 there pins down 2h, order 0 pins down the
Fagnano length l_F. The window pass over (l_F, 2 l_F) skips unrelated
isolated orbits and shows 2h (order +1/2), 2h_alpha (order -1/2), or
nothing, which forces alpha = pi/2. An ambiguous reading runs both branches
of its pass.

Each height-based branch closes with one angle equation on the level set
F(alpha) + F(beta) = q, and all of them share one root rule: scan alpha on
[F^-1(q/2), pi/2] for roots, drop those whose trapezoid is invalid, and let
a supplied perimeter pick among the rest; without one, two survivors are
not unique.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .billiards import length_spectrum
from .errors import (
    AmbiguousClassification,
    BudgetExceeded,
    DomainError,
    InconsistentInvariants,
    InvariantMismatch,
    NoiseFloor,
    NonUniqueSolution,
    NoSolution,
)
from .eigensolver import Spectrum
from .geometry import (
    Q_RECTANGLE,
    Trapezoid,
    angle_invariant,
    corner_f,
    corner_f_inverse,
    new_trapezoid,
    orbit_catalog,
)
from .heat_trace import fit_invariants
from .wave_trace import (
    DEFAULT_SIGMA,
    PEAK_THRESHOLD,
    SingularityCandidate,
    classify_candidate,
    estimate_order,
    scan_peaks,
)

F_MIN = 4.0 / math.pi**2  # minimum of F(x) = 1/(x(pi-x)) on (0, pi/2]


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned rectangle with sides a <= c."""

    a: float
    c: float

    def __post_init__(self):
        if not (0 < self.a <= self.c):
            raise DomainError("rectangle sides must satisfy 0 < a <= c")

    @property
    def area(self) -> float:
        return self.a * self.c

    @property
    def perimeter(self) -> float:
        return 2 * (self.a + self.c)


def reconstruct_rectangle(lambda1: float, area: float, slack: float = 1e-9) -> Rectangle:
    """Rectangle sides from the first Dirichlet eigenvalue and the area.

    Solves lambda1 = pi^2 (1/a^2 + 1/c^2) with a c = area: the squared sides
    are the roots of z^2 - (lambda1 area^2 / pi^2) z + area^2 = 0. The slack
    loosens the feasibility gate lambda1 >= 2 pi^2/area for fitted inputs;
    a slightly infeasible pair snaps to the square.
    """
    if lambda1 <= 0 or area <= 0:
        raise DomainError("lambda1 and area must be positive")
    lam_min = 2 * math.pi**2 / area
    if lambda1 < lam_min * (1 - slack):
        raise NoSolution(
            f"lambda1 = {lambda1} below the square's minimum {lam_min} at area {area}"
        )
    s = lambda1 * area**2 / math.pi**2  # a^2 + c^2
    disc = max(s * s - 4 * area**2, 0.0)
    a2 = 0.5 * (s - math.sqrt(disc))
    a = math.sqrt(a2)
    return Rectangle(a=a, c=area / a)


def _beta_from_q(alpha: float, q: float) -> float:
    """The unique beta <= pi/2 with F(alpha) + F(beta) = q."""
    v = q - corner_f(alpha)
    if v < F_MIN - 1e-13:
        raise NoSolution(f"q = {q} leaves no admissible beta at alpha = {alpha}")
    return corner_f_inverse(v)


_ANGLE_XTOL = 1e-12  # angle resolution of every refinement, radians


def _min_residual(residual, a_lo: float, a_hi: float) -> float:
    """The alpha in [a_lo, a_hi] that minimizes the squared residual."""
    r = minimize_scalar(
        lambda a: residual(a) ** 2,
        bounds=(a_lo, a_hi),
        method="bounded",
        options={"xatol": _ANGLE_XTOL},
    )
    return float(r.x)


def _angle_roots(residual, grid: np.ndarray, vals: list[float], scale: float) -> list[float]:
    """Distinct roots of an angle residual, given its values on a scan grid.

    The residuals that arise here are not monotone in alpha: they have a
    critical point at the isosceles endpoint and can graze zero tangentially.
    Group near-zero stretches and sign changes of the scan into root
    clusters, and refine each.
    """
    tol_res = 1e-10 * max(scale, 1.0)
    # a vanishing left endpoint is the isosceles solution, exact in closed form
    if abs(vals[0]) <= 1e-13 * max(scale, 1.0):
        return [float(grid[0])]
    flags = [abs(v) <= tol_res for v in vals]
    n = len(grid)
    roots = []
    i = 0
    while i < n:
        if flags[i]:
            j = i
            while j + 1 < n and flags[j + 1]:
                j += 1
            a_lo, a_hi = grid[max(i - 1, 0)], grid[min(j + 1, n - 1)]
            if vals[max(i - 1, 0)] * vals[min(j + 1, n - 1)] < 0:
                roots.append(brentq(residual, a_lo, a_hi, xtol=_ANGLE_XTOL))
            else:
                # tangential near-zero: locate the minimum of the squared residual
                roots.append(_min_residual(residual, a_lo, a_hi))
            i = j + 1
        elif i + 1 < n and not flags[i + 1] and vals[i] * vals[i + 1] < 0:
            roots.append(brentq(residual, grid[i], grid[i + 1], xtol=_ANGLE_XTOL))
            i += 1
        else:
            i += 1
    distinct = []
    for r in sorted(roots):
        if not distinct or r - distinct[-1] > 1e-4:
            distinct.append(r)
    return distinct


def _check_q(q: float) -> None:
    """Reject angle invariants outside the genuine-trapezoid range."""
    if q < Q_RECTANGLE - 1e-12:
        raise DomainError("angle invariant below the rectangle minimum")
    if q < Q_RECTANGLE + 1e-12:
        raise NoSolution("rectangle-range angle invariant; use reconstruct_rectangle")


def _solve_alpha(
    residual,
    q: float,
    scale: float,
    A: float,
    h: float,
    l_f: float | None = None,
    l_f_tol: float = 1e-6,
    L: float | None = None,
    L_tol: float = 1e-6,
    near_miss: float = 0.0,
) -> Trapezoid:
    """The one angle elimination behind the three height-based solvers.

    residual(alpha, beta) is scanned along the level set F(alpha) + F(beta)
    = q for alpha in [F^-1(q/2), pi/2]. When the scan finds no root and
    near_miss > 0, the residual-minimizing alpha is taken if its miss is
    within near_miss * max(|scale|, 1). Roots whose trapezoid is invalid
    (b <= 0, bad parameters, or a Fagnano length other than the supplied
    l_f) are dropped; NoSolution carries the last one's reason. With L, the
    candidate nearest that perimeter wins: InconsistentInvariants when even
    it misses by more than L_tol (relative), NonUniqueSolution when the
    runner-up is within 10x its miss. Without L, two candidates are
    NonUniqueSolution.
    """
    def along_q(a):
        return residual(a, _beta_from_q(a, q))

    # scan from the isosceles end of the alpha range
    grid = np.linspace(corner_f_inverse(q / 2.0), math.pi / 2, 257)
    vals = [along_q(a) for a in grid]
    roots = _angle_roots(along_q, grid, vals, scale)
    if not roots and near_miss > 0:
        # the minimum of |residual|, bracketed by the grid points around its smallest sample
        k = int(np.argmin(np.abs(vals)))
        best = _min_residual(along_q, grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)])
        if abs(along_q(best)) <= near_miss * max(abs(scale), 1.0):
            roots = [best]
    cands = []
    reason = f"no base angle in [F^-1(q/2), pi/2] zeroes the residual at q = {q}"
    for alpha in roots:
        try:
            cands.append(
                _trapezoid_from_angles(A, h, alpha, _beta_from_q(alpha, q), l_f, l_f_tol)
            )
        except NoSolution as exc:
            reason = str(exc)
    if not cands:
        raise NoSolution(reason)
    if L is None:
        if len(cands) > 1:
            raise NonUniqueSolution(f"multiple angle solutions: {roots}")
        return cands[0]
    misses = sorted(((abs(t.perimeter - L), t) for t in cands), key=lambda x: x[0])
    if misses[0][0] > L_tol * max(L, 1.0):
        raise InconsistentInvariants(
            f"recovered perimeter {misses[0][1].perimeter} vs supplied {L}"
        )
    if len(misses) > 1 and misses[1][0] <= 10 * max(misses[0][0], 1e-12 * L):
        raise NonUniqueSolution(
            "two angle solutions reproduce the supplied perimeter equally well"
        )
    return misses[0][1]


def _trapezoid_from_angles(
    A: float, h: float, alpha: float, beta: float, l_f: float | None, l_f_tol: float
) -> Trapezoid:
    """Sides from area, height and the recovered angles."""
    b_plus = 2 * A / h  # B + b
    b_minus = h * (1 / math.tan(alpha) + 1 / math.tan(beta))  # B - b
    B = 0.5 * (b_plus + b_minus)
    b = 0.5 * (b_plus - b_minus)
    if b <= 0:
        raise NoSolution("recovered top side is nonpositive")
    try:
        trap = new_trapezoid(B=B, h=h, alpha=alpha, beta=beta)
    except DomainError as exc:
        raise NoSolution(f"recovered parameters invalid: {exc}") from exc
    if l_f is not None:
        got = 2 * B * math.sin(alpha) * math.sin(beta)
        if abs(got - l_f) > l_f_tol * max(l_f, 1.0):
            raise NoSolution(
                f"recovered Fagnano length {got} contradicts the observed {l_f}"
            )
    return trap


def solve_from_h(
    A: float,
    L: float,
    q: float,
    h: float,
    l_f: float | None = None,
    l_f_tol: float = 1e-6,
    s_slack: float = 0.0,
) -> Trapezoid:
    """Trapezoid from area, perimeter, angle invariant, and height.

    Eliminating B and b leaves csc(alpha) + csc(beta) = (L - 2A/h)/h coupled
    with F(alpha) + F(beta) = q. The csc sum is solved for alpha by a
    cluster-aware scan (it is not monotone); a second well-separated root
    would be flagged, never silently kept.

    Along the level set F(alpha) + F(beta) = q the csc sum varies only at
    second order, so with inexact inputs the target may be unattainable even
    when a nearby trapezoid exists. s_slack > 0 accepts the residual-
    minimizing alpha when the miss is within s_slack (relative to the csc
    target); the default keeps the solver exact.

    When l_f is supplied the recovered trapezoid must reproduce that Fagnano
    length, which turns an over-determined constraint set (as arises when two
    different singularity readings are forced to coexist) into NoSolution.
    """
    if not (A > 0 and L > 0 and h > 0):
        raise DomainError("A, L, h must be positive")
    _check_q(q)
    s_target = (L - 2 * A / h) / h
    if s_target <= 2 + 1e-12 and s_slack <= 0:
        raise NoSolution("csc(alpha) + csc(beta) must exceed 2; no trapezoid fits")
    return _solve_alpha(
        lambda alpha, beta: 1 / math.sin(alpha) + 1 / math.sin(beta) - s_target,
        q, s_target, A, h, l_f=l_f, l_f_tol=l_f_tol, near_miss=s_slack,
    )


def solve_from_h_and_b(
    A: float,
    q: float,
    h: float,
    b: float,
    L: float | None = None,
    L_tol: float = 1e-6,
    l_f: float | None = None,
    l_f_tol: float = 1e-6,
) -> Trapezoid:
    """Trapezoid from area, angle invariant, height, and top side.

    With both parallel sides pinned by B + b = 2A/h and the given b, the
    angles satisfy cot(alpha) + cot(beta) = (B - b)/h coupled with
    F(alpha) + F(beta) = q. Unlike the csc sum used by solve_from_h, the cot
    sum varies at first order along the q-level set, so this system stays
    well conditioned on inexact inputs — the reconstruction pipeline prefers
    it whenever a second orbit length is available to play the role of 2b.

    A supplied perimeter L is a cross-check: the recovered trapezoid must
    reproduce it within L_tol (relative), else InconsistentInvariants.
    """
    if not (A > 0 and h > 0 and b > 0):
        raise DomainError("A, h, b must be positive")
    _check_q(q)
    B = 2 * A / h - b
    if B <= b:
        raise NoSolution("top side at least as long as the base; not a trapezoid")
    c_target = (B - b) / h  # cot(alpha) + cot(beta)
    return _solve_alpha(
        lambda alpha, beta: 1 / math.tan(alpha) + 1 / math.tan(beta) - c_target,
        q, c_target, A, h, l_f=l_f, l_f_tol=l_f_tol, L=L, L_tol=L_tol,
    )


def solve_from_h_and_lf(
    A: float,
    q: float,
    h: float,
    l_f: float,
    L: float | None = None,
    L_tol: float = 1e-6,
) -> Trapezoid:
    """Trapezoid from area, angle invariant, height, and Fagnano length.

    At fixed (A, h, q) the base is a function of alpha alone,
    B = A/h + h (cot(alpha) + cot(beta))/2 with beta pinned by q, so the
    Fagnano length 2B sin(alpha) sin(beta) is a first-order-conditioned
    residual in alpha — like the cot sum of solve_from_h_and_b, and unlike
    the csc sum of solve_from_h, it stays usable on fitted invariants.

    A supplied perimeter L is a cross-check: the recovered trapezoid must
    reproduce it within L_tol (relative), else InconsistentInvariants.
    """
    if not (A > 0 and h > 0 and l_f > 0):
        raise DomainError("A, h, l_f must be positive")
    _check_q(q)

    def residual(alpha: float, beta: float) -> float:
        B = A / h + h * (1 / math.tan(alpha) + 1 / math.tan(beta)) / 2
        return 2 * B * math.sin(alpha) * math.sin(beta) - l_f

    # unlike the cot sum, the Fagnano residual genuinely admits two roots for
    # some shapes; only the perimeter can break the tie
    return _solve_alpha(residual, q, l_f, A, h, L=L, L_tol=L_tol)


def solve_from_lf_halpha(
    L: float,
    q: float,
    l_f: float,
    h_alpha: float,
    area: float | None = None,
    area_tol: float = 1e-6,
) -> Trapezoid:
    """Trapezoid from perimeter, angle invariant, Fagnano length, and altitude.

    l_F = 2 h_alpha sin(alpha) gives alpha directly (with the degenerate
    alpha = pi/2 case at equality), beta follows from q, B = h_alpha/sin(beta),
    and the height comes from L = 2B + h (tan(alpha/2) + tan(beta/2)).
    """
    if not (L > 0 and l_f > 0 and h_alpha > 0):
        raise DomainError("L, l_f, h_alpha must be positive")
    s = l_f / (2 * h_alpha)
    if s > 1 + 1e-12:
        raise NoSolution("l_f exceeds 2 h_alpha; sin(alpha) would exceed 1")
    alpha = math.pi / 2 if s >= 1 - 1e-12 else math.asin(s)
    beta = _beta_from_q(alpha, q)
    if beta > alpha + 1e-12:
        raise NoSolution("angle invariant forces beta > alpha on this branch")
    beta = min(beta, alpha)
    B = h_alpha / math.sin(beta)
    rest = L - 2 * B
    if rest <= 0:
        raise NoSolution("perimeter too small for the recovered base")
    h = rest / (math.tan(alpha / 2) + math.tan(beta / 2))
    try:
        trap = new_trapezoid(B=B, h=h, alpha=alpha, beta=beta)
    except DomainError as exc:
        raise NoSolution(f"recovered parameters invalid: {exc}") from exc
    if area is not None and abs(trap.area - area) > area_tol * max(area, 1.0):
        raise InconsistentInvariants(
            f"recovered area {trap.area} vs supplied {area}"
        )
    return trap


def solve_alpha_right(A: float, L: float, q: float) -> list[Trapezoid]:
    """Right-angled-at-alpha candidates from (A, L, q) alone.

    With alpha = pi/2 and beta fixed by q, eliminating B against A and L
    leaves (1 + tan(beta/2) + cot(beta)) h^2 - L h + 2A = 0; both quadratic
    roots can yield valid trapezoids, so all survivors are returned for the
    caller to discriminate against observed orbit lengths.
    """
    if not (A > 0 and L > 0):
        raise DomainError("A and L must be positive")
    beta = _beta_from_q(math.pi / 2, q)
    c = 1 + math.tan(beta / 2) + 1 / math.tan(beta)
    disc = L * L - 8 * A * c
    if disc < 0:
        raise NoSolution("no right-angled trapezoid matches A, L, q")
    out = []
    for sign in (-1.0, 1.0):
        h = (L + sign * math.sqrt(disc)) / (2 * c)
        if h <= 0:
            continue
        B = 0.5 * (L - h * (1 + math.tan(beta / 2)))
        try:
            out.append(new_trapezoid(B=B, h=h, alpha=math.pi / 2, beta=beta))
        except DomainError:
            continue
    if not out:
        raise NoSolution("quadratic roots yield no valid trapezoid")
    return out


# ---------------------------------------------------------------------------
# scan-classify-reconstruct pipeline


# wave-trace scan of the pipeline: peaks above PEAK_THRESHOLD x background on
# [SCAN_T_START, fitted perimeter], cross-validated against orbits of period
# at most ORBIT_PERIOD_MAX
SCAN_T_START = 0.3
ORBIT_PERIOD_MAX = 12


@dataclass
class ReconstructConfig:
    min_eigenvalues: int = 800
    rectangle_q_tol: float = 1e-2
    sigma: float | None = None
    # late fit window: FEM spectra are unreliable in their top modes, and by
    # t ~ 0.01 only the well-resolved low modes contribute to the heat trace
    fit_t_window: tuple[float, float] | None = (0.01, 0.04)
    invariant_rel_tol: float = 0.05

    def to_dict(self) -> dict:
        return {
            "minEigenvalues": self.min_eigenvalues,
            "rectangleQTol": self.rectangle_q_tol,
            "sigma": self.sigma,
            "threshold": PEAK_THRESHOLD,
            "tStart": SCAN_T_START,
            "tMax": None,  # the scan ends at the fitted perimeter
            "fitTWindow": self.fit_t_window,
            "invariantRelTol": self.invariant_rel_tol,
            "orbitPeriodMax": ORBIT_PERIOD_MAX,
        }


@dataclass
class ReconstructionReport:
    trapezoid: Trapezoid | Rectangle
    branch: str  # Rectangle | FirstOrderHalfIs2h | LFThen2hAlpha | LFThen2h | AlphaRightAngle
    evidence: list[SingularityCandidate] = field(default_factory=list)
    invariants: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    ambiguous: bool = False
    alternatives: list = field(default_factory=list)  # (branch, trapezoid, residuals)
    config: dict = field(default_factory=dict)

    def to_json(self) -> str:
        def shape_dict(s):
            if isinstance(s, Rectangle):
                return {"kind": "rectangle", "a": s.a, "c": s.c}
            return {
                "kind": "trapezoid",
                "B": s.B,
                "h": s.h,
                "alpha": s.alpha,
                "beta": s.beta,
            }

        return json.dumps(
            {
                "shape": shape_dict(self.trapezoid),
                "branch": self.branch,
                "evidence": [c.to_dict() for c in self.evidence],
                "invariants": self.invariants,
                "residuals": self.residuals,
                "ambiguous": self.ambiguous,
                "alternatives": [
                    {"branch": br, "shape": shape_dict(s), "residuals": r}
                    for br, s, r in self.alternatives
                ],
                "config": self.config,
            }
        )


def _invariant_residuals(trap: Trapezoid, A: float, L: float, q: float) -> dict:
    return {
        "areaRel": abs(trap.area - A) / A,
        "perimeterRel": abs(trap.perimeter - L) / L,
        "qRel": abs(angle_invariant(trap).q - q) / q,
    }


def _unmatched_peaks(trap: Trapezoid, peaks, lmax: float, tol: float, period_max: int):
    """Observed peak times with no enumerated orbit length within tol.

    When the enumeration exhausts its budget, peaks are scored against the
    orbits it found before stopping.
    """
    try:
        lengths = length_spectrum(trap, lmax + tol, period_max=period_max).lengths
    except BudgetExceeded as exc:
        lengths = np.array([o.length for o in exc.partial])
    out = []
    for c in peaks:
        if len(lengths) == 0 or np.min(np.abs(lengths - c.t0)) > tol:
            out.append(c.t0)
    return out


def _classified(spectrum, cand: SingularityCandidate, sigma: float):
    """Attach an order estimate and label to a scan candidate, if possible."""
    try:
        a, ci = estimate_order(spectrum, cand.t0, sigma)
    except NoiseFloor:
        return None
    cand.estimated_order = a
    cand.order_ci = ci
    return classify_candidate(cand)


def scan_and_reconstruct(
    spectrum: Spectrum, config: ReconstructConfig | None = None
) -> ReconstructionReport:
    """Full decision procedure: invariants, rectangle test, singularity walk.

    Ambiguous order estimates never force a choice: every branch consistent
    with the reading is attempted and the survivors (those whose recomputed
    invariants and enumerated orbit lengths match the observations) are all
    reported, with the best-residual one as the primary shape.
    """
    cfg = config or ReconstructConfig()
    if spectrum.count < cfg.min_eigenvalues:
        raise DomainError(
            f"need at least {cfg.min_eigenvalues} eigenvalues, got {spectrum.count}"
        )
    inv = fit_invariants(spectrum, t_window=cfg.fit_t_window)
    A, L, q = inv.area, inv.perimeter, inv.q_estimate
    invariants = {"A": A, "L": L, "q": q}

    if q < Q_RECTANGLE or abs(q - Q_RECTANGLE) < cfg.rectangle_q_tol:
        rect = reconstruct_rectangle(
            float(spectrum.eigenvalues[0]), A, slack=cfg.invariant_rel_tol
        )
        return ReconstructionReport(
            trapezoid=rect,
            branch="Rectangle",
            invariants=invariants,
            residuals={
                "areaRel": abs(rect.area - A) / A,
                "perimeterRel": abs(rect.perimeter - L) / L,
            },
            config=cfg.to_dict(),
        )

    sigma = cfg.sigma if cfg.sigma is not None else DEFAULT_SIGMA
    peaks = scan_peaks(spectrum, (SCAN_T_START, L), sigma)
    peaks.sort(key=lambda c: c.t0)
    evidence: list[SingularityCandidate] = []
    match_tol = 2 * sigma

    # hypotheses: (branch name, thunk building the trapezoid)
    hypotheses: list[tuple[str, Trapezoid]] = []

    def try_branch(branch: str, builder) -> bool:
        try:
            hypotheses.append((branch, builder()))
            return True
        except (NoSolution, NonUniqueSolution, InconsistentInvariants, DomainError):
            return False

    def band_hypotheses(branch: str, t0: float, lf: float | None = None):
        """All reconstructions consistent with a first-order band at t0 = 2h.

        The exact csc-sum solve is attempted first. Because that system is
        ill conditioned on fitted invariants, every other observed peak is
        also tried in the role of 2b, which pins the angles through the well
        conditioned cot sum; the perimeter check and the later cross-
        validation discard the wrong peak assignments. If nothing else works,
        the csc solve is retried accepting a near-miss within the invariant
        tolerance.
        """
        lf_tol = match_tol / max(lf, 1.0) if lf is not None else 1e-6
        got = try_branch(
            branch, lambda: solve_from_h(A, L, q, t0 / 2, l_f=lf, l_f_tol=lf_tol)
        )
        if lf is not None:
            got |= try_branch(
                branch,
                lambda: solve_from_h_and_lf(
                    A, q, t0 / 2, lf, L=L, L_tol=cfg.invariant_rel_tol
                ),
            )
        for other in peaks:
            if abs(other.t0 - t0) < 1e-9 or (lf is not None and abs(other.t0 - lf) < 1e-9):
                continue
            got |= try_branch(
                branch,
                lambda t2=other.t0: solve_from_h_and_b(
                    A, q, t0 / 2, t2 / 2, L=L, L_tol=cfg.invariant_rel_tol,
                    l_f=lf, l_f_tol=lf_tol,
                ),
            )
            if lf is None:
                # the same peak may instead be the isolated Fagnano length
                got |= try_branch(
                    branch,
                    lambda t2=other.t0: solve_from_h_and_lf(
                        A, q, t0 / 2, t2, L=L, L_tol=cfg.invariant_rel_tol
                    ),
                )
        if not got:
            try_branch(
                branch,
                lambda: solve_from_h(
                    A, L, q, t0 / 2, l_f=lf, l_f_tol=lf_tol,
                    s_slack=cfg.invariant_rel_tol,
                ),
            )

    def first_reading(cands, skip: str):
        """Classify cands in order, each classified one into the evidence, and
        return the first (candidate, label) whose label is not skip."""
        for cand in cands:
            label = _classified(spectrum, cand, sigma)
            if label is None:
                continue
            evidence.append(cand)
            if label != skip:
                return cand, label
        return None, None

    # first pass: diffractive 2mb-type lengths are jumped over
    cand, label = first_reading(peaks, "diffractive")
    ambiguous = label == "ambiguous"
    if label in ("band", "ambiguous"):
        band_hypotheses("FirstOrderHalfIs2h", cand.t0)
    if label in ("isolated", "ambiguous"):
        # window pass over (l_F, 2 l_F): unrelated isolated odd orbits are skipped
        l_f = cand.t0
        window = [c for c in peaks if l_f * (1 + 1e-9) < c.t0 < 2 * l_f]
        cand, label = first_reading(window, "isolated")
        ambiguous |= label == "ambiguous"
        if label in ("band", "ambiguous"):
            band_hypotheses("LFThen2h", cand.t0, lf=l_f)
        if label in ("diffractive", "ambiguous"):
            try_branch(
                "LFThen2hAlpha",
                lambda: solve_from_lf_halpha(
                    L, q, l_f, cand.t0 / 2, area=A, area_tol=cfg.invariant_rel_tol
                ),
            )
        if label is None:
            try:
                for trap in solve_alpha_right(A, L, q):
                    hypotheses.append(("AlphaRightAngle", trap))
            except NoSolution:
                pass

    if not hypotheses:
        raise AmbiguousClassification(
            "no branch of the decision procedure produced a trapezoid; "
            f"evidence: {[c.to_dict() for c in evidence]}"
        )

    # cross-validate every survivor against the invariants and observed peaks
    scored = []
    for branch, trap in hypotheses:
        res = _invariant_residuals(trap, A, L, q)
        res["unmatchedPeaks"] = _unmatched_peaks(trap, peaks, L, match_tol, ORBIT_PERIOD_MAX)
        ok = (
            res["areaRel"] <= cfg.invariant_rel_tol
            and res["perimeterRel"] <= cfg.invariant_rel_tol
            and res["qRel"] <= cfg.invariant_rel_tol
            and not res["unmatchedPeaks"]
        )
        scored.append((branch, trap, res, ok))

    survivors = [s for s in scored if s[3]] or scored
    if not any(s[3] for s in scored) and not ambiguous:
        branch, trap, res, _ = scored[0]
        raise InvariantMismatch(
            f"reconstructed trapezoid on branch {branch} fails cross-validation: {res}"
        )
    survivors.sort(key=lambda s: s[2]["areaRel"] + s[2]["perimeterRel"] + s[2]["qRel"])
    # different peak assignments can land on the same shape; keep one copy
    deduped = []
    for s in survivors:
        t = s[1]
        if not any(
            max(
                abs(t.B - u.B), abs(t.h - u.h), abs(t.alpha - u.alpha),
                abs(t.beta - u.beta),
            )
            <= 1e-6 * max(t.B, 1.0)
            for _, u, _, _ in deduped
        ):
            deduped.append(s)
    survivors = deduped
    branch, trap, res, _ = survivors[0]
    return ReconstructionReport(
        trapezoid=trap,
        branch=branch,
        evidence=evidence,
        invariants=invariants,
        residuals=res,
        ambiguous=ambiguous or len(survivors) > 1,
        alternatives=[(b, t, r) for b, t, r, _ in survivors[1:]],
        config=cfg.to_dict(),
    )


# ---------------------------------------------------------------------------
# exact-invariant consistency check


@dataclass
class ConsistencyReport:
    verdict: str  # "congruent" | "distinct-invariants" | "potentially-isospectral"
    separating_invariant: str | None
    values: dict

    def to_json(self) -> str:
        return json.dumps(
            {
                "verdict": self.verdict,
                "separatingInvariant": self.separating_invariant,
                "values": self.values,
            }
        )


def check_isospectral_consistency(t1: Trapezoid, t2: Trapezoid) -> ConsistencyReport:
    """Compare the exact spectral invariants of two trapezoids, relative to 1e-9.

    Non-congruent trapezoids must be separated by some listed invariant;
    "potentially-isospectral" is the fallback verdict that uniqueness says
    can never occur for exact inputs.
    """
    cat1, cat2 = orbit_catalog(t1), orbit_catalog(t2)
    items = [
        ("area", t1.area, t2.area),
        ("perimeter", t1.perimeter, t2.perimeter),
        ("q", angle_invariant(t1).q, angle_invariant(t2).q),
        ("shortestOrbit", min(cat1.two_h, cat1.two_b), min(cat2.two_h, cat2.two_b)),
        ("2h", cat1.two_h, cat2.two_h),
        ("2hAlpha", cat1.two_h_alpha.length, cat2.two_h_alpha.length),
        (
            "fagnanoExists",
            float(cat1.fagnano.exists_inside),
            float(cat2.fagnano.exists_inside),
        ),
        ("fagnanoLength", cat1.fagnano.length, cat2.fagnano.length),
    ]
    values = {name: (a, b) for name, a, b in items}
    rel_tol = 1e-9
    for name, a, b in items:
        if abs(a - b) > rel_tol * max(abs(a), abs(b), 1.0):
            return ConsistencyReport(
                verdict="distinct-invariants", separating_invariant=name, values=values
            )
    params_match = all(
        abs(x - y) <= rel_tol * max(abs(x), abs(y), 1.0)
        for x, y in (
            (t1.B, t2.B),
            (t1.h, t2.h),
            (t1.alpha, t2.alpha),
            (t1.beta, t2.beta),
        )
    )
    if params_match:
        return ConsistencyReport(
            verdict="congruent", separating_invariant=None, values=values
        )
    return ConsistencyReport(
        verdict="potentially-isospectral", separating_invariant=None, values=values
    )
