"""Closed billiard geodesics in convex polygons via mirror unfolding.

Reflection words are unfolded into the plane; a word supports a closed
geodesic when the composed isometry is a pure translation (even parity, a
band of parallel orbits) or a glide reflection whose axis threads every
unfolded mirror (odd parity, an isolated orbit). Conical geodesics — chains
running vertex to vertex, possibly along an edge — come from the same word
search started at a vertex instead of an edge. Started from an edge, the
search visits only prenecklace words (the FKM test of Ruskey, Savage & Wang,
J. Algorithms 13 (1992)) and closes only necklaces, so each closed word is
walked once rather than once per cyclic rotation.

A word is pruned once no line threads all of its mirrors. From an edge the
search keeps the convex hulls of the left and of the right mirror endpoints,
which some line must separate. Beside them it keeps a witness axis along
which the two sets were last seen apart, and most children are decided
without a separating-axis test: kept when the witness still holds, pruned
when two mirror-endpoint segments cross deeply (a crossing certificate).
Only when neither decides are the hulls tested. From a vertex every such line
passes through the vertex, so the search keeps only the cone of directions
there, bounded by one left and one right endpoint, and builds no hull.

The subtree of each start is walked on its own, so `length_spectrum` sends
the edge starts of the orbit search and the vertex starts of the diagonal
search to the `workers` pool as one batch. The parent merges the replies in
start order under the node budget of each search, so records, their order
and their float bits are those of one serial walk, on any number of cores.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import workers
from .errors import BudgetExceeded, DomainError
from .geometry import Polygon, Trapezoid, vertices
from .planar import (
    Isometry,
    _hull_pts,
    cross2,
    crossing_depth,
    hulls_separated,
    pt_seg,
    seg_dist_pts,
)

DEFAULT_PERIOD_MAX = 24
DIAGONAL_PERIOD_MAX = 16
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
    multiplicity: int = 1  # 1 = prime orbit, m = m-fold traversal
    width: float = 0.0  # band corridor width
    swept_area: float = 0.0  # band only

    def to_dict(self) -> dict:
        return {
            "word": list(self.word),
            "length": self.length,
            "kind": self.kind,
            "parity": self.parity,
            # conical and diffractive orbits are ConicalChain records
            "conical": False,
            "diffractive": False,
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


def _extensions(word: tuple[int, ...], period: int | None, n_letters: int) -> list:
    """Letters that may follow word in the walk, each with the longer word's period.

    Consecutive letters always differ. An edge-start word is a prenecklace
    whose FKM period (length of its longest Lyndon prefix) is `period`: j keeps
    it a prenecklace iff j >= word[-period], the period staying on equality and
    becoming len(word) + 1 above it. Vertex-start words (period None) take
    every letter.
    """
    last = word[-1] if word else -1
    if period is None:
        return [(j, None) for j in range(n_letters) if j != last]
    low = word[-period]
    return [
        (j, period if j == low else len(word) + 1)
        for j in range(low, n_letters)
        if j != last
    ]


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


def _pi_over_n(angle: float) -> bool:
    for n in range(1, _PI_OVER_N_MAX + 1):
        if abs(angle - math.pi / n) < 1e-7:
            return True
    return False


def _clears(px, py, dx, dy, lhull, rhull, tol) -> bool:
    """Whether the line through (px, py) along the unit vector (dx, dy) passes
    every left-hull point on its left and every right-hull point on its right
    by at least tol."""
    for x, y in lhull:
        if dx * (y - py) - dy * (x - px) < tol:
            return False
    for x, y in rhull:
        if dx * (y - py) - dy * (x - px) > -tol:
            return False
    return True


class _Enumerator:
    """Depth-first search over reflection words with corridor-beam pruning.

    `run` and `diagonals` each walk the subtree of one start: an edge (closed
    orbits: every corridor line crosses it, and the corridor is the pair of
    left and right endpoint hulls with a witness axis, see `_narrow_hulls`)
    or a vertex (generalized diagonals: every corridor line passes through
    it, and the corridor is the cone of directions there). Each node hands
    its word, period, isometry, corridor and mapped mirror endpoints to a
    visit step. Edge-start words are prenecklaces carrying their FKM period
    p; a word closes only when p divides its length, i.e. when it is a
    necklace, the least of its rotations, and it is then the m-fold
    traversal of its first p letters with m = len(word) // p. Words are
    visited in lexicographic order, so the record kept for each class under
    rotation and reversal is still its least word. `nodes` counts the nodes
    walked in this pruned tree; past `node_budget` the walk stops recording
    and unwinds.
    """

    def __init__(self, polygon: Polygon, lmax: float, period_max: int, node_budget: int):
        self.polygon = polygon
        self.lmax = lmax
        self.period_max = period_max
        self.node_budget = node_budget
        self.nodes = 0
        self.edges = polygon.edges()
        self.n_edges = len(self.edges)
        self.endpoints = self.edges.reshape(-1, 2)  # edge k is rows 2k, 2k + 1
        self.reflections = [
            Isometry.reflection(self.edges[k, 0], self.edges[k, 1])
            for k in range(self.n_edges)
        ]
        self.scale = polygon.diameter
        self.tol = _VERTEX_TOL * self.scale
        self.found: dict[tuple, ClosedGeodesic | ConicalChain] = {}

    def run(self, first: int) -> None:
        """Walk the prenecklace words that begin with edge `first`."""
        self._start, self._visit, self._narrow = None, self._try_close, self._narrow_hulls
        (ax, ay), (bx, by) = self.edges[first].tolist()
        self._edge = (ax, ay, bx, by)
        self._keep_gap = -self.tol + 1e-12 * self.scale
        # identity copy is CCW: interior left of v0->v1, so b is a left
        # endpoint, a a right one, and the edge direction their witness axis
        n = math.hypot(bx - ax, by - ay)
        ux, uy = (bx - ax) / n, (by - ay) / n
        root = ([(bx, by)], [(ax, ay)], ux, uy, bx * ux + by * uy, ax * ux + ay * uy)
        self._dfs((first,), 1, self.reflections[first], root)

    def diagonals(self, vi: int) -> None:
        """Walk the vertex-to-vertex chains that leave vertex `vi`."""
        self._rational = [_pi_over_n(a) for a in self.polygon.interior_angles()]
        self._visit, self._narrow = self._try_vertex, self._narrow_cone
        px, py = self.polygon.vertices[vi].tolist()
        self._start, self._vi = (px, py), vi
        self._dfs((), None, Isometry.identity(), None)  # no mirror yet: every direction

    def _dfs(self, word, period, m, corridor):
        self.nodes += 1
        if self.nodes > self.node_budget:
            return
        pts = m(self.endpoints).tolist()
        self._visit(word, period, m, corridor, pts)
        if len(word) >= self.period_max:
            return
        even = len(word) % 2 == 0  # m has parity (-1)^len(word)
        start = self._start
        if start is not None:
            px, py = start
        for j, child_period in _extensions(word, period, self.n_edges):
            p0, p1 = pts[2 * j], pts[2 * j + 1]
            if start is None:
                if seg_dist_pts(*self._edge, *p0, *p1) > self.lmax:
                    continue
            else:
                # seg_dist_pts from the point P as a zero-length segment, bit
                # for bit: its crossing test is skipped and its four distances
                # reduce to these three
                d0 = math.hypot(p0[0] - px, p0[1] - py)
                d1 = math.hypot(p1[0] - px, p1[1] - py)
                if min(pt_seg(px, py, *p0, *p1), d0, d1) > self.lmax:
                    continue
                if d0 < self.tol or d1 < self.tol:
                    continue  # mirror through the start vertex: no interior crossing
            # crossing orientation flips with the copy's parity
            lp, rp = (p1, p0) if even else (p0, p1)
            child = self._narrow(corridor, lp, rp)
            if child is None:
                continue  # no directed line threads all mirrors
            self._dfs(word + (j,), child_period, m.compose(self.reflections[j]), child)

    def _narrow_hulls(self, corridor, lp, rp):
        """The edge-start corridor past mirror lp-rp, or None if it closes.

        The corridor is the hull of the left mirror endpoints and the hull of
        the right ones; some line threads every mirror while they separate,
        i.e. while hulls_separated(left, right, -tol) finds an axis. Beside
        the hulls it carries a witness: a unit axis u, the least projection
        on u of the left endpoints and the greatest of the right ones. Each
        child is decided in turn by
        - the witness: if the new endpoints keep the two sets apart along u
          by more than -tol (plus a rounding margin), the test would find an
          axis too, since over overlapping hulls it tries the axis of least
          overlap and over disjoint ones a separating axis;
        - a crossing certificate: the start edge's left endpoint b and right
          endpoint a lie in every corridor, so if [lp, b] crosses [rp, r] for
          a point r of the right hull, or [lp, l] crosses [rp, a] for a
          point l of the left hull, deeper than 2 tol (crossing_depth), the
          new hulls overlap by more than tol along every axis and the test
          would find none;
        - else the test itself, whose axis becomes the new witness.
        Both fast paths thus decide as the test does, and a kept child builds
        its hulls by the same calls, so the walk's nodes and records are the
        test's.
        """
        lhull, rhull, ux, uy, lo, hi = corridor
        lx, ly = lp
        rx, ry = rp
        lo = min(lo, lx * ux + ly * uy)
        hi = max(hi, rx * ux + ry * uy)
        if lo - hi > self._keep_gap:
            return _hull_pts(lhull + [(lx, ly)]), _hull_pts(rhull + [(rx, ry)]), ux, uy, lo, hi
        ax, ay, bx, by = self._edge
        deep = 2 * self.tol
        for x, y in rhull:
            if crossing_depth(lx, ly, bx, by, rx, ry, x, y) > deep:
                return None
        for x, y in lhull:
            if crossing_depth(lx, ly, x, y, rx, ry, ax, ay) > deep:
                return None
        new_lhull = _hull_pts(lhull + [(lx, ly)])
        new_rhull = _hull_pts(rhull + [(rx, ry)])
        axis = hulls_separated(new_lhull, new_rhull, -self.tol)
        if axis is None:
            return None
        ux, uy = axis
        lo = min(x * ux + y * uy for x, y in new_lhull)
        hi = max(x * ux + y * uy for x, y in new_rhull)
        return new_lhull, new_rhull, ux, uy, lo, hi

    def _narrow_cone(self, cone, lp, rp):
        """The vertex-start corridor past mirror lp-rp, or None if it closes.

        Every corridor line passes through the start vertex P, so the corridor
        is a cone of directions at P, held as two vectors from P: `left`, the
        most clockwise left endpoint, and `right`, the most counterclockwise
        right one. A direction threads every mirror when it lies clockwise of
        `left` and counterclockwise of `right`, so the cone is open while
        `left` is not clockwise of `right`, up to the tolerance that
        hulls_separated allows on the hull edges through P.
        """
        px, py = self._start
        lx, ly = lp[0] - px, lp[1] - py
        rx, ry = rp[0] - px, rp[1] - py
        if cone is not None:
            (ax, ay), (bx, by) = cone
            if ax * ly - ay * lx >= 0:
                lx, ly = ax, ay  # the old left limit stays the more binding
            if bx * ry - by * rx <= 0:
                rx, ry = bx, by
        overlap = rx * ly - ry * lx
        if overlap < 0 and overlap < -self.tol * max(math.hypot(lx, ly), math.hypot(rx, ry)):
            return None
        return (lx, ly), (rx, ry)

    def _try_vertex(self, word, period, m, cone, pts):
        # a chain ends at vertex q of this copy when the direction p -> q
        # passes both cone limits by at least tol on their sides
        px, py = self._start
        vi = self._vi
        for vj in range(self.n_edges):
            qx, qy = pts[2 * vj]
            dx, dy = qx - px, qy - py
            dist = math.hypot(dx, dy)
            if dist < self.tol or dist > self.lmax * (1 + 1e-12):
                continue
            if cone is not None:
                ux, uy = dx / dist, dy / dist
                (lx, ly), (rx, ry) = cone
                if ux * ly - uy * lx < self.tol or ux * ry - uy * rx > -self.tol:
                    continue
            # lengths are numpy norms, which can differ from hypot in the last bit
            length = float(np.linalg.norm((dx, dy)))
            key = (
                tuple(sorted((vi, vj))),
                min(word, word[::-1]),
                round(length / (1e-9 * self.scale)),
            )
            if key not in self.found:
                self.found[key] = ConicalChain(
                    vertex_start=vi,
                    vertex_end=vj,
                    word=word,
                    length=length,
                    closed=(vj == vi),
                    diffractive=not (self._rational[vi] and self._rational[vj]),
                )

    def _try_close(self, word, period, m, corridor, pts):
        if len(word) < 2 or len(word) % period:
            return  # too short, or not a necklace: a rotation closes instead
        lhull, rhull = corridor[:2]
        if len(word) % 2 == 0:
            self._close_band(word, m, lhull, rhull, len(word) // period)
        else:
            self._close_glide(word, m, lhull, rhull, len(word) // period)

    def _record(self, geo: ClosedGeodesic):
        key = (_canonical_word(geo.word), round(geo.length / (1e-9 * self.scale)))
        if key not in self.found:
            self.found[key] = geo

    def _close_band(self, word, m, lhull, rhull, multiplicity):
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
                multiplicity=multiplicity,
                width=float(width),
                swept_area=float(width * length),
            )
        )

    def _close_glide(self, word, m, lhull, rhull, multiplicity):
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
        if not _clears(*p0.tolist(), *d.tolist(), lhull, rhull, self.tol):
            return  # axis misses a mirror or grazes a vertex (conical case)
        base = _line_segment_point(p0, d, *self.edges[word[0]])
        if base is None:
            return
        self._record(
            ClosedGeodesic(
                word=word,
                length=abs(a),
                kind="isolated",
                parity="odd",
                basepoint=base,
                direction=d,
                multiplicity=multiplicity,
            )
        )


def _walk_start(polygon, lmax, period_max, node_budget, start) -> tuple[dict, int]:
    """The records of one start's subtree, keyed as its search keeps them, and
    the subtree's node count. `start` is ("edge", k) or ("vertex", k)."""
    walker = _Enumerator(polygon, lmax, period_max, node_budget)
    kind, index = start
    (walker.run if kind == "edge" else walker.diagonals)(index)
    return walker.found, walker.nodes


def _edge_orbits(polygon: Polygon, lmax: float) -> dict:
    """On-edge orbits (lengths 2m|e|), keyed as the diagonal search keeps them."""
    angles = polygon.interior_angles()
    edges = polygon.edges()
    nv = len(edges)
    found = {}
    for k in range(nv):
        a1, a2 = angles[k], angles[(k + 1) % nv]
        if a1 >= math.pi / 2 - 1e-12 and a2 >= math.pi / 2 - 1e-12:
            elen = float(np.linalg.norm(edges[k, 1] - edges[k, 0]))
            diff = not (_pi_over_n(a1) and _pi_over_n(a2))
            m = 1
            while 2 * m * elen <= lmax * (1 + 1e-12):
                found[("edge", k, m)] = ConicalChain(
                    vertex_start=k,
                    vertex_end=(k + 1) % nv,
                    word=(k,),
                    length=2 * m * elen,
                    closed=True,
                    on_boundary=True,
                    diffractive=diff,
                )
                m += 1
    return found


@dataclass(frozen=True)
class _Search:
    """One word search as independent walks, one per edge or vertex start.

    Merged in start order, keeping the first record of each key, the walks
    give the records of one serial walk over every start, in its order and
    bit for bit. `node_budget` bounds the whole search, not each start.
    """

    polygon: Polygon
    lmax: float
    period_max: int
    node_budget: int
    kind: str  # "edge": closed orbits; "vertex": generalized diagonals

    def __post_init__(self):
        # an infinite lmax never ends the on-edge orbit multiples, and a NaN
        # one passes every mirror through the distance pre-filter
        if not (math.isfinite(self.lmax) and self.lmax > 0):
            raise DomainError("lmax must be finite and positive")
        if not 1 <= self.period_max <= 64:
            raise DomainError("period_max must be between 1 and the configured cap of 64")
        # a corridor through the unfolded mirrors is a billiard path only in a convex polygon
        if not self.polygon.is_convex():
            raise DomainError("polygon must be convex")

    @property
    def starts(self) -> list[tuple[str, int]]:
        return [(self.kind, k) for k in range(len(self.polygon.vertices))]

    def merge(self, replies) -> tuple[list, bool]:
        """The sorted records and whether the search kept within its budget.

        Each reply is a start walked on the whole budget. Where the summed
        node counts first pass it, the serial walk ran out inside that start:
        the start is walked again on the budget left before it, and the
        starts after it, which the serial walk cuts at their first node, are
        dropped.
        """
        found = _edge_orbits(self.polygon, self.lmax) if self.kind == "vertex" else {}
        left = self.node_budget
        complete = True
        for start, (part, nodes) in zip(self.starts, replies):
            complete = nodes <= left
            if not complete:
                part, _ = _walk_start(self.polygon, self.lmax, self.period_max, left, start)
            for key, record in part.items():
                found.setdefault(key, record)
            if not complete:
                break
            left -= nodes
        if self.kind == "edge":
            records = sorted(found.values(), key=lambda g: (g.length, g.word))
        else:
            records = sorted(found.values(), key=lambda c: (c.length, c.vertex_start))
        return records, complete


def _searched(*searches: _Search) -> list[tuple[list, bool]]:
    """Each search's sorted records and whether it kept within its budget.

    The start walks of all the searches go to `workers.executor` as one
    batch, the first edge's first: a prenecklace begins with its least
    letter, so that subtree is the largest.
    """
    batch = [(i, start) for i, search in enumerate(searches) for start in search.starts]
    batch.sort(key=lambda item: item[1] != ("edge", 0))
    calls = []
    for i, start in batch:
        s = searches[i]
        calls.append((_walk_start, (s.polygon, s.lmax, s.period_max, s.node_budget, start)))
    replies = dict(zip(batch, workers.executor(len(calls))(calls)))
    return [
        search.merge([replies[i, start] for start in search.starts])
        for i, search in enumerate(searches)
    ]


def _budgeted(search: _Search) -> list:
    [(records, complete)] = _searched(search)
    if not complete:
        raise BudgetExceeded(
            f"word-tree budget of {search.node_budget} nodes exhausted", partial=records
        )
    return records


def enumerate_orbits(
    polygon: Polygon, lmax: float, period_max: int = DEFAULT_PERIOD_MAX
) -> list[ClosedGeodesic]:
    """All non-conical closed geodesics of length <= lmax, up to period_max.

    Bands are reported once per cyclic word class with their corridor width
    and swept area; m-fold traversals appear with multiplicity m.
    DEFAULT_NODE_BUDGET caps the nodes of the necklace-pruned word tree, in
    which each closed word appears once, not once per rotation.
    """
    return _budgeted(_Search(polygon, lmax, period_max, DEFAULT_NODE_BUDGET, "edge"))


def find_generalized_diagonals(
    polygon: Polygon, lmax: float, period_max: int = DIAGONAL_PERIOD_MAX
) -> list[ConicalChain]:
    """Vertex-to-vertex straight chains in the unfolding, plus edge orbits.

    An edge supports the on-edge bouncing orbit (lengths 2m|e|) when both of
    its endpoint angles are at least pi/2; chains that return to their start
    vertex are closed conical geodesics (e.g. the doubled altitude orbits).
    """
    return _budgeted(_Search(polygon, lmax, period_max, DEFAULT_NODE_BUDGET, "vertex"))


# ---- Poincare map -----------------------------------------------------------


def poincare_map(polygon: Polygon, geodesic: ClosedGeodesic) -> PoincareData:
    """Linearized first-return billiard map along a closed orbit, in closed form.

    Coordinates are (x, cos theta) on the first edge of the word — arclength
    from the edge's start vertex and the cosine of the outgoing angle against
    the edge tangent. One period unfolds to the line from the basepoint to
    the edge's copy reached after the rest of the word; P is the exact
    derivative of where the line crosses that copy, pulled back. DomainError
    unless the record closes up: the word's isometry carries the basepoint on
    the edge to basepoint + length * direction and fixes the direction, which
    is not tangent to the edge.
    """
    word, base, direction = geodesic.word, geodesic.basepoint, geodesic.direction
    a, b = polygon.edges()[word[0]]
    tang = (b - a) / np.linalg.norm(b - a)
    n_in = np.array([-tang[1], tang[0]])  # inward normal for CCW polygons
    refl = Isometry.reflection(a, b)
    rest = compose_word(polygon, word[:0:-1])  # carries the edge to its copy
    m = refl.compose(rest)  # the whole word, composed as the enumerator does
    tol = _VERTEX_TOL * polygon.diameter
    if seg_dist_pts(*base, *base, *a, *b) > tol:
        raise DomainError("basepoint is off the first edge of the word")
    if np.linalg.norm(m(base) - base - geodesic.length * direction) > tol:
        raise DomainError("the word does not carry the basepoint one period on")
    if np.linalg.norm(m.a @ direction - direction) > _VERTEX_TOL:
        raise DomainError("the word does not fix the orbit direction")
    d = refl.a @ direction  # the unfolded line exits through the edge: fold back
    r, s = float(d @ tang), float(d @ n_in)  # cos and sin of the outgoing angle
    if s < _VERTEX_TOL:
        raise DomainError("orbit direction is tangent to the first edge")
    c, t2 = rest(a), rest.a @ tang  # start vertex and tangent of the copy
    d_r = tang - (r / s) * n_in  # d(direction) / d(cos theta)
    den = cross2(t2, d)
    u = cross2(base - c, d) / den  # arclength of the crossing along the copy
    p12 = (cross2(base - c, d_r) - u * cross2(t2, d_r)) / den
    # the crossing angle depends on the direction alone, so P21 = 0
    p = np.array([[s / den, p12], [0.0, float(d_r @ t2)]])
    return PoincareData(matrix=p, det_i_minus_p=float(np.linalg.det(np.eye(2) - p)))


# ---- length spectrum and shortest orbit -------------------------------------


def length_spectrum(
    trapezoid_or_polygon,
    lmax: float,
    period_max: int = DEFAULT_PERIOD_MAX,
) -> LengthSpectrum:
    """Merged, sorted lengths of all closed geodesics (conical included).

    If either search runs out of budget, both still run and one
    BudgetExceeded carries the orbits and closed chains found, sorted by
    length. The orbit search's budget counts nodes of its necklace-pruned
    word tree (see enumerate_orbits).
    """
    poly = (
        vertices(trapezoid_or_polygon)
        if isinstance(trapezoid_or_polygon, Trapezoid)
        else trapezoid_or_polygon
    )
    (orbits, orbits_done), (chains, chains_done) = _searched(
        _Search(poly, lmax, period_max, DEFAULT_NODE_BUDGET, "edge"),
        _Search(poly, lmax, DIAGONAL_PERIOD_MAX, DEFAULT_NODE_BUDGET, "vertex"),
    )
    orbits = list(orbits) + [c for c in chains if c.closed]
    orbits.sort(key=lambda o: o.length)
    if not (orbits_done and chains_done):
        raise BudgetExceeded("length-spectrum search budget exhausted", partial=orbits)
    spec = LengthSpectrum()
    for o in orbits:
        if spec.entries and abs(o.length - spec.entries[-1][0]) <= spec.tolerance * max(
            o.length, 1.0
        ):
            spec.entries[-1][1].append(o)
        else:
            spec.entries.append((o.length, [o]))
    return spec


def shortest_orbit(trapezoid: Trapezoid) -> tuple[float, str]:
    """Shortest closed geodesic of a trapezoid: always 2h or 2b."""
    lcap = 1.05 * min(2 * trapezoid.h, 2 * trapezoid.b)
    spec = length_spectrum(trapezoid, lcap, period_max=8)
    if not spec.entries:
        raise DomainError("no orbit found below 1.05 x min(2h, 2b)")
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


def render_svg(polygon: Polygon, orbits) -> str:
    """Static 400 x 400 SVG of the polygon with closed-orbit base segments overlaid."""
    size = 400
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
