"""Closed billiard geodesics in convex polygons via mirror unfolding.

Reflection words are unfolded into the plane; a word supports a closed
geodesic when the composed isometry is a pure translation (even parity, a
band of parallel orbits) or a glide reflection whose axis threads every
unfolded mirror (odd parity, an isolated orbit). Conical geodesics — chains
running vertex to vertex, possibly along an edge — are searched separately.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceeded, DerivativeInstability, DomainError
from .geometry import Polygon, Trapezoid, vertices
from .planar import (
    Isometry,
    _hull_pts,
    cross2,
    hulls_separated,
    point_segment_distance,
    seg_dist_pts,
    segments_cross,
)

DEFAULT_PERIOD_MAX = 24
DEFAULT_NODE_BUDGET = 2_000_000
_VERTEX_TOL = 1e-9  # times diameter: "hits a vertex" threshold
_PI_OVER_N_MAX = 64


@dataclass
class ClosedGeodesic:
    word: tuple[int, ...]
    length: float
    kind: str  # "band" | "isolated"
    parity: str  # "even" | "odd"
    basepoint: np.ndarray
    direction: np.ndarray
    diffractive: bool = False
    multiplicity: int = 1  # 1 = prime orbit, m = m-fold traversal
    translation: np.ndarray | None = None  # band only
    width: float = 0.0  # band corridor width
    swept_area: float = 0.0  # band only
    axis_point: np.ndarray | None = None  # isolated only
    axis_direction: np.ndarray | None = None

    @property
    def is_prime(self) -> bool:
        return self.multiplicity == 1

    def to_dict(self) -> dict:
        return {
            "word": list(self.word),
            "length": self.length,
            "kind": self.kind,
            "parity": self.parity,
            "conical": False,  # conical chains are ConicalChain records
            "diffractive": self.diffractive,
            "multiplicity": self.multiplicity,
            "width": self.width,
            "sweptArea": self.swept_area,
        }


@dataclass
class ConicalChain:
    """Straight vertex-to-vertex chain in the unfolding (a generalized diagonal)."""

    vertex_start: int
    vertex_end: int
    word: tuple[int, ...]
    length: float
    closed: bool  # returns to the starting vertex
    on_boundary: bool = False  # runs along an edge (2m|e| orbits)
    diffractive: bool = False

    def to_dict(self) -> dict:
        return {
            "vertexStart": self.vertex_start,
            "vertexEnd": self.vertex_end,
            "word": list(self.word),
            "length": self.length,
            "closed": self.closed,
            "onBoundary": self.on_boundary,
            "diffractive": self.diffractive,
        }


@dataclass
class PoincareData:
    matrix: np.ndarray  # 2x2 Jacobian of the first-return map in (x, cos theta)
    det_i_minus_p: float

    @property
    def det_p(self) -> float:
        return float(np.linalg.det(self.matrix))


@dataclass
class LengthSpectrum:
    entries: list[tuple[float, list]] = field(default_factory=list)
    tolerance: float = 1e-9  # relative merge tolerance

    @property
    def lengths(self) -> np.ndarray:
        return np.array([e[0] for e in self.entries])

    def to_json_lines(self) -> str:
        out = []
        for length, orbits in self.entries:
            out.append(
                json.dumps({"length": length, "orbits": [o.to_dict() for o in orbits]})
            )
        return "\n".join(out) + ("\n" if out else "")


def compose_word(polygon: Polygon, word) -> Isometry:
    """Composition of edge-line reflections, first listed edge applied first.

    The parity of the result is (-1)^len(word); an even word with trivial
    rotation part is the translation that advances a closed orbit by one
    period.
    """
    word = tuple(int(w) for w in word)
    n_edges = len(polygon.vertices)
    if not word:
        raise DomainError("word must be nonempty")
    for a, b in zip(word, word[1:]):
        if a == b:
            raise DomainError("consecutive word entries must differ")
    if any(w < 0 or w >= n_edges for w in word):
        raise DomainError("edge index out of range")
    edges = polygon.edges()
    m = Isometry.identity()
    for w in word:
        m = Isometry.reflection(edges[w, 0], edges[w, 1]).compose(m)
    return m


def _canonical_word(word: tuple[int, ...]) -> tuple[int, ...]:
    """Representative of the word's class under cyclic rotation and reversal."""
    n = len(word)
    cands = []
    for w in (word, word[::-1]):
        cands.extend(w[i:] + w[:i] for i in range(n))
    return min(cands)


def _word_multiplicity(word: tuple[int, ...]) -> int:
    n = len(word)
    for p in range(1, n):
        if n % p == 0 and word == word[:p] * (n // p):
            return n // p
    return 1


def _line_segment_point(p0, d, a, b):
    """Intersection point of the line p0 + t d with segment [a, b], or None."""
    e = b - a
    denom = cross2(d, e)
    if abs(denom) < 1e-30:
        return None
    s = cross2(a - p0, d) / denom  # parameter along the segment
    if -1e-9 <= s <= 1 + 1e-9:
        return a + s * e
    return None


def _pi_over_n(angle: float, diameter_tol: float = 1e-7) -> bool:
    for n in range(1, _PI_OVER_N_MAX + 1):
        if abs(angle - math.pi / n) < diameter_tol:
            return True
    return False


class _Enumerator:
    """Depth-first search over reflection words with corridor-beam pruning."""

    def __init__(self, polygon: Polygon, lmax: float, period_max: int, node_budget: int):
        self.polygon = polygon
        self.lmax = lmax
        self.period_max = period_max
        self.node_budget = node_budget
        self.nodes = 0
        self.edges = polygon.edges()
        self.n_edges = len(self.edges)
        self.reflections = [
            Isometry.reflection(self.edges[k, 0], self.edges[k, 1])
            for k in range(self.n_edges)
        ]
        self.scale = polygon.diameter
        self.found: dict[tuple, ClosedGeodesic] = {}
        self.complete = True

    def run(self) -> list[ClosedGeodesic]:
        for first in range(self.n_edges):
            seg = self.edges[first]
            self._s1 = (seg[0][0], seg[0][1], seg[1][0], seg[1][1])
            self._dfs(
                word=(first,),
                m=self.reflections[first],
                # identity copy is CCW: interior left of v0->v1
                lhull=[(seg[1][0], seg[1][1])],
                rhull=[(seg[0][0], seg[0][1])],
            )
        orbits = sorted(self.found.values(), key=lambda g: (g.length, g.word))
        if not self.complete:
            raise BudgetExceeded(
                f"word-tree budget of {self.node_budget} nodes exhausted", partial=orbits
            )
        return orbits

    def _dfs(self, word, m, lhull, rhull):
        self.nodes += 1
        if self.nodes > self.node_budget:
            self.complete = False
            return
        if len(word) >= 2:
            self._try_close(word, m, lhull, rhull)
        if len(word) >= self.period_max:
            return
        m_prev = m
        sgn = m_prev.parity
        neg_tol = -1e-9 * self.scale
        for j in range(self.n_edges):
            if j == word[-1]:
                continue
            seg = m_prev(self.edges[j])
            if (
                seg_dist_pts(*self._s1, seg[0][0], seg[0][1], seg[1][0], seg[1][1])
                > self.lmax
            ):
                continue
            # crossing orientation flips with the copy's parity
            p0, p1 = (seg[0][0], seg[0][1]), (seg[1][0], seg[1][1])
            lp, rp = (p1, p0) if sgn > 0 else (p0, p1)
            new_lhull = _hull_pts(lhull + [lp])
            new_rhull = _hull_pts(rhull + [rp])
            if not hulls_separated(new_lhull, new_rhull, neg_tol):
                continue  # no directed line threads all mirrors
            self._dfs(
                word + (j,),
                m_prev.compose(self.reflections[j]),
                new_lhull,
                new_rhull,
            )

    def _try_close(self, word, m, lhull, rhull):
        if m.parity > 0:
            self._close_band(word, m, lhull, rhull)
        else:
            self._close_glide(word, m, lhull, rhull)

    def _record(self, geo: ClosedGeodesic):
        key = (_canonical_word(geo.word), round(geo.length / (1e-9 * self.scale)))
        if key not in self.found:
            self.found[key] = geo

    def _close_band(self, word, m, lhull, rhull):
        if np.max(np.abs(m.a - np.eye(2))) > 1e-9:
            return  # a proper rotation has no invariant line
        tau = m.t
        length = float(np.linalg.norm(tau))
        if length < 1e-12 * self.scale or length > self.lmax * (1 + 1e-12):
            return
        d = tau / length
        s_l = min(cross2(d, p) for p in lhull)
        s_r = max(cross2(d, p) for p in rhull)
        width = s_l - s_r
        if width <= 1e-9 * self.scale:
            return  # degenerate corridor; vertex chains handle it
        c = 0.5 * (s_l + s_r)
        n_hat = np.array([-d[1], d[0]])
        base = _line_segment_point(c * n_hat, d, *self.edges[word[0]])
        if base is None:
            return
        self._record(
            ClosedGeodesic(
                word=word,
                length=length,
                kind="band",
                parity="even",
                basepoint=base,
                direction=d,
                multiplicity=_word_multiplicity(word),
                translation=tau.copy(),
                width=float(width),
                swept_area=float(width * length),
            )
        )

    def _close_glide(self, word, m, lhull, rhull):
        # reflection part: mirror direction u; glide vector a*u along the axis
        u = np.array(
            [math.cos(0.5 * math.atan2(m.a[1, 0], m.a[0, 0])),
             math.sin(0.5 * math.atan2(m.a[1, 0], m.a[0, 0]))]
        )
        a = float(m.t @ u)
        if abs(a) < 1e-12 * self.scale or abs(a) > self.lmax * (1 + 1e-12):
            return
        n_hat = np.array([-u[1], u[0]])
        p0 = (0.5 * float(m.t @ n_hat)) * n_hat  # point on the glide axis
        d = u if a > 0 else -u
        tol = _VERTEX_TOL * self.scale
        s_l = min(cross2(d, (p[0] - p0[0], p[1] - p0[1])) for p in lhull)
        s_r = max(cross2(d, (p[0] - p0[0], p[1] - p0[1])) for p in rhull)
        if s_l < tol or s_r > -tol:
            return  # axis misses a mirror or grazes a vertex (conical case)
        base = _line_segment_point(p0, d, *self.edges[word[0]])
        if base is None:
            return
        self._record(
            ClosedGeodesic(
                word=word,
                length=abs(a),
                kind="isolated",
                parity="odd" if len(word) % 2 else "even",
                basepoint=base,
                direction=d,
                multiplicity=_word_multiplicity(word),
                axis_point=p0,
                axis_direction=d,
            )
        )


def enumerate_orbits(
    polygon: Polygon,
    lmax: float,
    period_max: int = DEFAULT_PERIOD_MAX,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list[ClosedGeodesic]:
    """All non-conical closed geodesics of length <= lmax, up to period_max.

    Bands are reported once per cyclic word class with their corridor width
    and swept area; m-fold traversals appear with multiplicity m.
    """
    if lmax <= 0:
        raise DomainError("lmax must be positive")
    if period_max > 64:
        raise DomainError("period_max above the configured cap")
    return _Enumerator(polygon, lmax, period_max, node_budget).run()


# ---- generalized diagonals (conical chains) --------------------------------


def _rel_angle(ref: np.ndarray, v: np.ndarray) -> float:
    return math.atan2(cross2(ref, v), float(ref @ v))


def find_generalized_diagonals(
    polygon: Polygon,
    lmax: float,
    period_max: int = 16,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list[ConicalChain]:
    """Vertex-to-vertex straight chains in the unfolding, plus edge orbits.

    An edge supports the on-edge bouncing orbit (lengths 2m|e|) when both of
    its endpoint angles are at least pi/2; chains that return to their start
    vertex are closed conical geodesics (e.g. the doubled altitude orbits).
    """
    if lmax <= 0:
        raise DomainError("lmax must be positive")
    verts = polygon.vertices
    nv = len(verts)
    edges = polygon.edges()
    angles = polygon.interior_angles()
    scale = polygon.diameter
    tol = _VERTEX_TOL * scale
    chains: dict[tuple, ConicalChain] = {}

    # on-edge orbits
    for k in range(nv):
        a1, a2 = angles[k], angles[(k + 1) % nv]
        if a1 >= math.pi / 2 - 1e-12 and a2 >= math.pi / 2 - 1e-12:
            elen = float(np.linalg.norm(edges[k, 1] - edges[k, 0]))
            diff = not (_pi_over_n(a1) and _pi_over_n(a2))
            m = 1
            while 2 * m * elen <= lmax * (1 + 1e-12):
                chains[("edge", k, m)] = ConicalChain(
                    vertex_start=k,
                    vertex_end=(k + 1) % nv,
                    word=(k,),
                    length=2 * m * elen,
                    closed=True,
                    on_boundary=True,
                    diffractive=diff,
                )
                m += 1

    reflections = [Isometry.reflection(edges[k, 0], edges[k, 1]) for k in range(nv)]
    budget = [node_budget]

    def dfs(vi, p, word, m_iso, segs, lo, hi, ref):
        budget[0] -= 1
        if budget[0] < 0:
            raise BudgetExceeded(
                "diagonal search budget exhausted",
                partial=sorted(chains.values(), key=lambda c: c.length),
            )
        depth = len(word)
        # endpoint candidates: vertices of the current copy
        imgs = m_iso(verts)
        for vj in range(nv):
            q = imgs[vj]
            dq = q - p
            dist = float(np.linalg.norm(dq))
            if dist < tol or dist > lmax * (1 + 1e-12):
                continue
            if ref is not None:
                ang = _rel_angle(ref, dq)
                if ang < lo - 1e-12 or ang > hi + 1e-12:
                    continue
            ok = True
            for seg in segs:
                if segments_cross(p, q, seg[0], seg[1], tol=1e-9) is None:
                    ok = False
                    break
            if not ok:
                continue
            diff = not (_pi_over_n(angles[vi]) and _pi_over_n(angles[vj]))
            key = (
                tuple(sorted((vi, vj))),
                min(word, word[::-1]),
                round(dist / (1e-9 * scale)),
            )
            if key not in chains:
                chains[key] = ConicalChain(
                    vertex_start=vi,
                    vertex_end=vj,
                    word=word,
                    length=dist,
                    closed=(vj == vi),
                    diffractive=diff,
                )
        if depth >= period_max:
            return
        sgn = m_iso.parity
        for j in range(nv):
            if word and j == word[-1]:
                continue
            seg = m_iso(edges[j])
            if point_segment_distance(p, seg[0], seg[1]) > lmax:
                continue
            if (
                np.linalg.norm(seg[0] - p) < tol
                or np.linalg.norm(seg[1] - p) < tol
            ):
                continue  # mirror through the source vertex: no interior crossing
            lp, rp = (seg[1], seg[0]) if sgn > 0 else (seg[0], seg[1])
            if not word:
                new_ref = 0.5 * (seg[0] + seg[1]) - p
                nr = np.linalg.norm(new_ref)
                if nr < tol:
                    continue
                new_ref = new_ref / nr
                new_lo = _rel_angle(new_ref, rp - p)
                new_hi = _rel_angle(new_ref, lp - p)
            else:
                new_ref = ref
                new_lo = max(lo, _rel_angle(ref, rp - p))
                new_hi = min(hi, _rel_angle(ref, lp - p))
            if new_lo > new_hi + 1e-12:
                continue
            dfs(
                vi,
                p,
                word + (j,),
                m_iso.compose(reflections[j]),
                segs + [seg],
                new_lo,
                new_hi,
                new_ref,
            )

    for vi in range(nv):
        dfs(vi, verts[vi], (), Isometry.identity(), [], -math.pi, math.pi, None)

    return sorted(chains.values(), key=lambda c: (c.length, c.vertex_start))


# ---- Poincare map -----------------------------------------------------------


def _next_hit(edges, point, direction, skip_edge):
    best_t, best_k, best_pt = None, None, None
    for k in range(len(edges)):
        if k == skip_edge:
            continue
        a, b = edges[k]
        denom = cross2(direction, b - a)
        if abs(denom) < 1e-30:
            continue
        t = cross2(a - point, b - a) / denom
        s = cross2(a - point, direction) / denom
        if t > 1e-12 and -1e-12 <= s <= 1 + 1e-12 and (best_t is None or t < best_t):
            best_t, best_k, best_pt = t, k, point + t * direction
    if best_k is None:
        raise DomainError("ray escaped the polygon (numerical failure)")
    return best_k, best_pt


def _bounce(edges, state):
    """One step of the billiard section map: (edge, x, r) -> (edge', x', r')."""
    k, x, r = state
    a, b = edges[k]
    tang = (b - a) / np.linalg.norm(b - a)
    n_in = np.array([-tang[1], tang[0]])  # inward normal for CCW polygons
    d = r * tang + math.sqrt(max(1.0 - r * r, 0.0)) * n_in
    k2, pt = _next_hit(edges, a + x * tang, d, k)
    a2, b2 = edges[k2]
    tang2 = (b2 - a2) / np.linalg.norm(b2 - a2)
    n2 = np.array([-tang2[1], tang2[0]])
    d2 = d - 2 * float(d @ n2) * n2
    return (k2, float((pt - a2) @ tang2), float(d2 @ tang2))


def _first_return(edges, e0, x, r, n_steps):
    state = (e0, x, r)
    for _ in range(n_steps):
        state = _bounce(edges, state)
    if state[0] != e0:
        raise DomainError("perturbed trajectory left the orbit's edge sequence")
    return np.array([state[1], state[2]])


def poincare_map(polygon: Polygon, geodesic: ClosedGeodesic) -> PoincareData:
    """Linearized first-return billiard map along a closed orbit.

    Coordinates are (x, cos theta) on the first edge of the word — arclength
    from the edge's start vertex and the cosine of the outgoing angle against
    the edge tangent. Central finite differences at two step sizes must agree
    to 1e-3 or the derivative is rejected.
    """
    edges = polygon.edges()
    e0 = geodesic.word[0]
    a, b = edges[e0]
    tang = (b - a) / np.linalg.norm(b - a)
    # the unfolded line exits through edge e0; fold back for the real direction
    refl = Isometry.reflection(a, b)
    d0 = refl.a @ geodesic.direction
    x0 = float((geodesic.basepoint - a) @ tang)
    r0 = float(d0 @ tang)
    n = len(geodesic.word)
    scale = polygon.diameter

    def jac(step_x, step_r):
        p = np.empty((2, 2))
        fx1 = _first_return(edges, e0, x0 + step_x, r0, n)
        fx2 = _first_return(edges, e0, x0 - step_x, r0, n)
        fr1 = _first_return(edges, e0, x0, r0 + step_r, n)
        fr2 = _first_return(edges, e0, x0, r0 - step_r, n)
        p[:, 0] = (fx1 - fx2) / (2 * step_x)
        p[:, 1] = (fr1 - fr2) / (2 * step_r)
        return p

    h = 1e-6
    p1 = jac(h * scale, h)
    p2 = jac(0.5 * h * scale, 0.5 * h)
    if np.max(np.abs(p1 - p2)) > 1e-3:
        raise DerivativeInstability(
            f"finite-difference Jacobians disagree by {np.max(np.abs(p1 - p2)):.2e}"
        )
    p = p2
    return PoincareData(matrix=p, det_i_minus_p=float(np.linalg.det(np.eye(2) - p)))


# ---- length spectrum and shortest orbit -------------------------------------


def length_spectrum(
    trapezoid_or_polygon,
    lmax: float,
    period_max: int = DEFAULT_PERIOD_MAX,
    merge_tol: float = 1e-9,
) -> LengthSpectrum:
    """Merged, sorted lengths of all closed geodesics (conical included)."""
    poly = (
        vertices(trapezoid_or_polygon)
        if isinstance(trapezoid_or_polygon, Trapezoid)
        else trapezoid_or_polygon
    )
    orbits = list(enumerate_orbits(poly, lmax, period_max=period_max))
    orbits += [c for c in find_generalized_diagonals(poly, lmax) if c.closed]
    orbits.sort(key=lambda o: o.length)
    spec = LengthSpectrum(tolerance=merge_tol)
    for o in orbits:
        if spec.entries and abs(o.length - spec.entries[-1][0]) <= merge_tol * max(
            o.length, 1.0
        ):
            spec.entries[-1][1].append(o)
        else:
            spec.entries.append((o.length, [o]))
    return spec


def shortest_orbit(trapezoid: Trapezoid, lcap: float | None = None) -> tuple[float, str]:
    """Shortest closed geodesic of a trapezoid: always 2h or 2b."""
    floor = min(2 * trapezoid.h, 2 * trapezoid.b)
    if lcap is None:
        lcap = 1.05 * floor
    if lcap < floor:
        raise DomainError("lcap below the shortest catalog length")
    spec = length_spectrum(trapezoid, lcap, period_max=8)
    if not spec.entries:
        raise DomainError("no orbit found below lcap")
    length, orbits = spec.entries[0]
    o = orbits[0]
    if abs(length - 2 * trapezoid.h) < 1e-9 * max(length, 1.0):
        label = "2h"
    elif abs(length - 2 * trapezoid.b) < 1e-9 * max(length, 1.0):
        label = "2b"
    elif isinstance(o, ConicalChain):
        label = "conical"
    else:
        label = o.kind
    return (length, label)


# ---- export ------------------------------------------------------------------


def orbits_json_lines(orbits) -> str:
    return "\n".join(json.dumps(o.to_dict()) for o in orbits) + ("\n" if orbits else "")


def render_svg(polygon: Polygon, orbits, size: int = 400) -> str:
    """Static SVG of the polygon with closed-orbit base segments overlaid."""
    v = polygon.vertices
    lo = v.min(axis=0)
    hi = v.max(axis=0)
    span = max(hi - lo)
    pad = 0.05 * span

    def xy(p):
        q = (p - lo + pad) / (span + 2 * pad) * size
        return f"{q[0]:.2f},{size - q[1]:.2f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}">',
        f'<polygon points="{" ".join(xy(p) for p in v)}" fill="none" stroke="black"/>',
    ]
    for o in orbits:
        if isinstance(o, ClosedGeodesic):
            p0 = o.basepoint
            p1 = o.basepoint + o.direction * min(o.length, span) * 0.5
            a0, a1 = xy(p0).split(","), xy(p1).split(",")
            parts.append(
                f'<line x1="{a0[0]}" y1="{a0[1]}" x2="{a1[0]}" y2="{a1[1]}" '
                f'stroke="{"blue" if o.kind == "band" else "red"}"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts)
