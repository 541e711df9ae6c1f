import collections
import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from trapspec import billiards, workers
from trapspec.billiards import (
    ClosedGeodesic,
    ConicalChain,
    compose_word,
    enumerate_orbits,
    find_generalized_diagonals,
    length_spectrum,
    poincare_map,
    render_svg,
    unmatched_conical,
)
from trapspec.errors import BudgetExceeded, DomainError
from trapspec.geometry import (
    Polygon,
    new_trapezoid,
    orbit_catalog,
    random_trapezoid,
    vertices,
)
from trapspec.planar import Isometry, _hull_pts, hulls_separated
from trapspec.properties import run_suite

SQUARE = Polygon(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float))
NEAR_RIGHT = vertices(new_trapezoid(B=2.0, h=1.0, alpha=math.radians(89.999), beta=math.pi / 3))
README_TRAPEZOID = vertices(new_trapezoid(B=2.0, h=1.0, alpha=1.309, beta=1.0472))
# vertices at 0, 144, 288, 72 and 216 degrees: every turn is left, but the
# boundary winds twice around
PENTAGRAM = Polygon(
    [[math.cos(math.radians(a)), math.sin(math.radians(a))] for a in (0, 144, 288, 72, 216)]
)


def rectangle(width, height):
    return Polygon(np.array([[0, 0], [width, 0], [width, height], [0, height]], dtype=float))


def fagnano_trapezoid():
    return new_trapezoid(B=2, h=1.2, alpha=math.pi / 3, beta=math.pi / 3)


@pytest.fixture(scope="module")
def square_orbits():
    return enumerate_orbits(SQUARE, 10.0)


@pytest.fixture(scope="module")
def fagnano_setup():
    t = fagnano_trapezoid()
    poly = vertices(t)
    orbs = enumerate_orbits(poly, 3.6)
    return t, poly, orbs


class TestComposeWord:
    def test_parallel_mirrors_translate(self):
        m = compose_word(SQUARE, [0, 2])  # bottom then top
        assert np.allclose(m.a, np.eye(2), atol=1e-14)
        assert np.allclose(m.t, [0, 2], atol=1e-14)

    def test_odd_parity(self):
        assert np.linalg.det(compose_word(SQUARE, [0, 1, 2]).a) == pytest.approx(-1.0)
        assert np.linalg.det(compose_word(SQUARE, [0, 1]).a) == pytest.approx(1.0)

    def test_repeated_edge_rejected(self):
        with pytest.raises(DomainError):
            compose_word(SQUARE, [0, 0])

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            compose_word(SQUARE, [])


class TestSquareLengthSpectrum:
    def test_matches_lattice_brute_force(self, square_orbits):
        got = sorted({o.length for o in square_orbits})
        brute = sorted(
            {
                2 * math.hypot(p, q)
                for p in range(6)
                for q in range(6)
                if (p, q) != (0, 0) and 2 * math.hypot(p, q) <= 10
            }
        )
        assert len(got) == len(brute)
        for g, b in zip(got, brute):
            assert g == pytest.approx(b, rel=1e-9)

    def test_all_bands(self, square_orbits):
        # the square has no isolated orbits: everything lives in a family
        assert all(o.kind == "band" for o in square_orbits)
        assert all(len(o.word) % 2 == 0 for o in square_orbits)

    def test_multiples_flagged(self, square_orbits):
        lengths = {round(o.length, 9): o for o in square_orbits if o.multiplicity > 1}
        assert round(4.0, 9) in lengths  # doubled 2-band

    def test_no_diffractive_conical(self):
        chains = find_generalized_diagonals(SQUARE, 6.0, period_max=6)
        assert all(not c.diffractive for c in chains)  # all corners are pi/2


class TestFagnano:
    def test_isolated_length_three(self, fagnano_setup):
        _, _, orbs = fagnano_setup
        fag = [o for o in orbs if o.kind == "isolated"]
        assert len(fag) >= 1
        assert min(abs(o.length - 3.0) for o in fag) < 1e-9
        assert all(len(o.word) % 2 == 1 for o in fag)

    def test_det_i_minus_p(self, fagnano_setup):
        _, poly, orbs = fagnano_setup
        fag = next(o for o in orbs if o.kind == "isolated" and abs(o.length - 3) < 1e-9)
        pd = poincare_map(poly, fag)
        assert pd.det_i_minus_p == pytest.approx(4.0, abs=1e-4)
        assert np.linalg.det(pd.matrix) == pytest.approx(1.0, abs=1e-6)

    def test_band_det_zero(self, fagnano_setup):
        t, poly, orbs = fagnano_setup
        band = next(o for o in orbs if abs(o.length - 2 * t.h) < 1e-9)
        pd = poincare_map(poly, band)
        assert abs(pd.det_i_minus_p) < 1e-6
        assert np.linalg.det(pd.matrix) == pytest.approx(1.0, abs=1e-6)

    def test_doubled_word_determinant_identity(self, fagnano_setup):
        _, poly, orbs = fagnano_setup
        fag = next(o for o in orbs if o.kind == "isolated" and abs(o.length - 3) < 1e-9)
        p1 = poincare_map(poly, fag).matrix
        doubled = ClosedGeodesic(
            word=fag.word * 2,
            length=2 * fag.length,
            kind="isolated",
            parity="even",
            basepoint=fag.basepoint,
            direction=fag.direction,
        )
        p2 = poincare_map(poly, doubled).matrix
        lhs = np.linalg.det(np.eye(2) - p2)
        rhs = np.linalg.det(np.eye(2) - p1) * np.linalg.det(np.eye(2) + p1)
        assert lhs == pytest.approx(rhs, abs=1e-3)
        assert np.allclose(p2, p1 @ p1, atol=1e-4)

    def test_tall_trapezoid_isolated_orbit(self):
        # P12 is about -3e4 here: finite differences at a fixed step could
        # not resolve this valid orbit
        t = new_trapezoid(
            B=2.579456379876274, h=54.156727883003576,
            alpha=1.5679885920098475, beta=1.560635293469654,
        )
        poly = vertices(t)
        orbit = next(o for o in enumerate_orbits(poly, 6.0, period_max=10)
                     if o.word == (0, 1, 3))
        assert orbit.kind == "isolated"
        assert poincare_map(poly, orbit).det_i_minus_p == pytest.approx(4.0, abs=1e-9)

    def test_det_by_word_parity_on_random_trapezoids(self):
        rng = np.random.default_rng(11)
        count = 0
        for _ in range(50):
            t = random_trapezoid(rng)
            poly = vertices(t)
            for o in enumerate_orbits(poly, 2.2 * min(t.h, t.b) + 0.8, period_max=10):
                pd = poincare_map(poly, o)
                assert np.linalg.det(pd.matrix) == pytest.approx(1.0, abs=1e-8)
                expected = 4.0 if len(o.word) % 2 else 0.0
                assert pd.det_i_minus_p == pytest.approx(expected, abs=1e-8), o.word
                count += 1
        assert count >= 50

    @pytest.mark.parametrize("perturb", ["rotate_direction", "lift_basepoint"])
    def test_record_that_does_not_close_rejected(self, fagnano_setup, perturb):
        _, poly, orbs = fagnano_setup
        fag = next(o for o in orbs if o.kind == "isolated" and abs(o.length - 3) < 1e-9)
        if perturb == "rotate_direction":
            c, s = math.cos(1e-3), math.sin(1e-3)
            bad = dataclasses.replace(
                fag, direction=np.array([[c, -s], [s, c]]) @ fag.direction
            )
        else:
            a, b = poly.edges()[fag.word[0]]
            normal = np.array([a[1] - b[1], b[0] - a[0]]) / np.linalg.norm(b - a)
            bad = dataclasses.replace(fag, basepoint=fag.basepoint + 1e-6 * normal)
        with pytest.raises(DomainError):
            poincare_map(poly, bad)

    def test_two_h_band_geometry(self, fagnano_setup):
        t, _, orbs = fagnano_setup
        band = next(o for o in orbs if abs(o.length - 2 * t.h) < 1e-9)
        assert band.width == pytest.approx(t.b, rel=1e-12)
        assert band.swept_area == pytest.approx(2 * t.h * t.b, rel=1e-12)


class TestGeneralizedDiagonals:
    def test_top_edge_orbit_and_multiples(self):
        t = fagnano_trapezoid()
        chains = find_generalized_diagonals(vertices(t), 4.0)
        on_edge = sorted(
            c.length for c in chains if c.on_boundary and c.word == (2,)
        )
        assert on_edge[:3] == pytest.approx([2 * t.b, 4 * t.b, 6 * t.b], rel=1e-12)

    def test_two_h_alpha_chain(self):
        t = new_trapezoid(B=2, h=1.0, alpha=1.3, beta=0.9)
        cat = orbit_catalog(t)
        assert cat.two_h_alpha.exists_inside
        chains = find_generalized_diagonals(vertices(t), 1.1 * cat.two_h_alpha.length)
        hits = [
            c
            for c in chains
            if c.closed
            and abs(c.length - cat.two_h_alpha.length) < 1e-9 * cat.two_h_alpha.length
        ]
        assert hits
        assert any(c.diffractive for c in hits)  # alpha=1.3 is not pi/N

    def test_band_boundaries_are_conical(self, fagnano_setup):
        # every band's boundary circle grazes a vertex: a closed conical chain
        # of the same length must exist
        t, poly, orbs = fagnano_setup
        chains = [c for c in find_generalized_diagonals(poly, 3.8) if c.closed]
        for band in (o for o in orbs if o.kind == "band" and o.multiplicity == 1):
            assert any(
                abs(c.length - band.length) < 1e-9 * band.length for c in chains
            ), f"band {band.word} length {band.length} has no conical twin"

    @pytest.mark.parametrize(
        "poly,reach,period_max",
        [
            (poly, reach, period_max)
            for reach, period_max in ((2.5, 4), (4.0, 6))
            for poly in (
                SQUARE,
                vertices(new_trapezoid(B=2, h=1.0, alpha=1.3, beta=0.9)),
                vertices(new_trapezoid(B=1.7, h=0.8, alpha=1.4, beta=1.0)),
            )
        ],
        ids=["square", "trapezoid_a", "trapezoid_b", "square_deep", "trapezoid_a_deep",
             "trapezoid_b_deep"],
    )
    def test_matches_unpruned_brute_force(self, poly, reach, period_max):
        # every word up to period_max, unfolded without pruning: a chain
        # p -> q counts when it crosses each mirror strictly inside. The deep
        # case reaches more square chains through lattice points, where the
        # walk's tolerance decides
        lmax = reach * poly.diameter
        verts, edges = poly.vertices, poly.edges()
        nv = len(verts)
        scale = poly.diameter
        brute = set()
        words = [()] + [
            w
            for n in range(1, period_max + 1)
            for w in itertools.product(range(nv), repeat=n)
            if all(a != b for a, b in zip(w, w[1:]))
        ]
        for word in words:
            m, mirrors = Isometry.identity(), []
            for j in word:
                mirrors.append(m(edges[j]))
                m = m.compose(Isometry.reflection(edges[j, 0], edges[j, 1]))
            imgs = m(verts)
            for vi in range(nv):
                for vj in range(nv):
                    dist = float(np.linalg.norm(imgs[vj] - verts[vi]))
                    if dist < 1e-9 * scale or dist > lmax * (1 + 1e-12):
                        continue
                    if all(_crosses(verts[vi], imgs[vj], a, b) for a, b in mirrors):
                        brute.add(
                            (
                                tuple(sorted((vi, vj))),
                                min(word, word[::-1]),
                                round(dist / (1e-9 * scale)),
                            )
                        )
        found = {
            (
                tuple(sorted((c.vertex_start, c.vertex_end))),
                min(c.word, c.word[::-1]),
                round(c.length / (1e-9 * scale)),
            )
            for c in find_generalized_diagonals(poly, lmax, period_max=period_max)
            if not c.on_boundary
        }
        assert found == brute


def _crosses(p0, p1, q0, q1, tol=1e-9):
    """Whether open segments p0-p1 and q0-q1 cross with both parameters in (tol, 1 - tol)."""
    d, e, w = p1 - p0, q1 - q0, q0 - p0
    denom = d[0] * e[1] - d[1] * e[0]
    if abs(denom) < 1e-30:
        return False
    s = (w[0] * e[1] - w[1] * e[0]) / denom
    t = (w[0] * d[1] - w[1] * d[0]) / denom
    return tol < s < 1 - tol and tol < t < 1 - tol


def _words(n_letters, max_len):
    """Every word up to max_len letters with no two equal neighbours."""
    words, layer = [], [(a,) for a in range(n_letters)]
    while layer:
        words += layer
        if len(layer[0]) == max_len:
            break
        layer = [w + (j,) for w in layer for j in range(n_letters) if j != w[-1]]
    return words


def _is_necklace(w):
    return all(w <= w[i:] + w[:i] for i in range(len(w)))


def _repetitions(w):
    n = len(w)
    return max(r for r in range(1, n + 1) if n % r == 0 and w == w[: n // r] * r)


class TestNecklaceWalk:
    MAX_LEN = 8

    def _walk(self, n_letters):
        """word -> FKM period for every word the edge-start walk admits."""
        admitted, stack = {}, [((a,), 1) for a in range(n_letters)]
        while stack:
            word, period = stack.pop()
            admitted[word] = period
            if len(word) < self.MAX_LEN:
                stack += [
                    (word + (j,), p) for j, p in billiards._extensions(word, period, n_letters)
                ]
        return admitted

    @pytest.mark.parametrize("n_letters", [3, 4])
    def test_admits_exactly_necklace_prefixes(self, n_letters):
        admitted = self._walk(n_letters)
        words = _words(n_letters, self.MAX_LEN)
        assert set(admitted) <= set(words)
        for w in words:
            if w in admitted:
                # witness: a necklace extending w, found by brute force
                layer = [w]
                while not any(map(_is_necklace, layer)):
                    assert len(layer[0]) < 2 * len(w), w
                    layer = [v + (j,) for v in layer for j in range(n_letters) if j != v[-1]]
            else:
                # every word extending w has a smaller rotation, the one
                # starting at i
                assert any(w[i:] < w[: len(w) - i] for i in range(1, len(w))), w

    @pytest.mark.parametrize("n_letters", [3, 4])
    def test_closes_exactly_necklaces(self, n_letters):
        admitted = self._walk(n_letters)
        closed = {w for w, p in admitted.items() if len(w) % p == 0}
        assert closed == {w for w in _words(n_letters, self.MAX_LEN) if _is_necklace(w)}
        for w in closed:
            assert len(w) // admitted[w] == _repetitions(w)


class TestEdgeCorridor:
    """The edge-start corridor's witness axis and crossing certificate decide
    each child as the separating-axis test on the child's hulls would."""

    def test_fast_paths_agree_with_separating_axes(self, monkeypatch):
        rng = np.random.default_rng(19)
        trapezoids = [
            new_trapezoid(B=1.5, h=0.8, alpha=math.pi / 2, beta=math.pi / 4),
            new_trapezoid(B=2.0, h=0.8, alpha=math.pi / 2, beta=math.pi / 3),
            new_trapezoid(B=2.0, h=0.8, alpha=math.pi / 3, beta=math.pi / 3),
        ] + [random_trapezoid(rng) for _ in range(20)]
        corpus = [(rectangle(1.0, c), 4.0) for c in (1.0, 0.5, 1 / 3)]
        corpus += [(NEAR_RIGHT, 8.0)]
        corpus += [(vertices(t), 2 * vertices(t).diameter) for t in trapezoids]
        paths = collections.Counter()
        narrow = billiards._Enumerator._narrow_hulls

        def separated(*args):
            paths["separating-axis test"] += 1
            return hulls_separated(*args)

        def checked(walker, corridor, lp, rp):
            tests = paths["separating-axis test"]
            child = narrow(walker, corridor, lp, rp)
            lhull, rhull = corridor[:2]
            new_lhull, new_rhull = _hull_pts(lhull + [tuple(lp)]), _hull_pts(rhull + [tuple(rp)])
            expected = hulls_separated(new_lhull, new_rhull, -walker.tol)
            assert (child is None) == (expected is None)
            if child is not None:
                assert child[:2] == (new_lhull, new_rhull)
            if paths["separating-axis test"] == tests:
                paths["witness keep" if child else "certificate prune"] += 1
            return child

        monkeypatch.setattr(billiards, "hulls_separated", separated)
        monkeypatch.setattr(billiards._Enumerator, "_narrow_hulls", checked)
        for poly, lmax in corpus:
            for k in range(len(poly.vertices)):
                billiards._walk_start(poly, lmax, billiards.DEFAULT_PERIOD_MAX, 10**6, ("edge", k))
        assert set(paths) == {"witness keep", "certificate prune", "separating-axis test"}

    @pytest.mark.parametrize(
        "lp,rp,pruned_by_certificate",
        [
            ((-1.0, 1.0), (2.0, 1.0), True),  # [lp, b] and [rp, a] cross deeply
            ((-1.0, 2e-9), (0.0, 1.0), False),  # they cross 1e-9 from a
            ((-1.0, 1.0), (0.0, 0.5), False),  # rp lies on [lp, b]
            ((-1.0, 1.0), (2.0, -1.0), False),  # parallel
            ((-1.0, 0.0), (2.0, 0.0), False),  # collinear with the start edge
        ],
        ids=["deep", "shallow", "endpoint", "parallel", "collinear"],
    )
    def test_crossing_certificate(self, lp, rp, pruned_by_certificate, monkeypatch):
        # the square's edge 0 runs from a = (0, 0) to b = (1, 0); no child
        # here keeps b ahead of a along it, so the witness decides none
        walker, root = self._square_edge_walker(monkeypatch)
        tests = []
        monkeypatch.setattr(billiards, "hulls_separated", lambda *args: tests.append(args))
        child = walker._narrow_hulls(root, lp, rp)
        if pruned_by_certificate:
            assert child is None and not tests
        else:
            assert len(tests) == 1

    @pytest.mark.parametrize("overlap,kept", [(0.5, True), (1.5, False)])
    def test_witness_keeps_within_tolerance(self, overlap, kept, monkeypatch):
        # a left box [1 - d, 2] x [0, 1] and a right box [0, 1] x [0, 1]
        # overlap least along the witness axis x, by d: the separating-axis
        # test keeps them while d < tol
        walker, _ = self._square_edge_walker(monkeypatch)
        d = overlap * walker.tol
        lhull = [(1 - d, 0.0), (2.0, 0.0), (2.0, 1.0)]
        rhull = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]
        corridor = (lhull, rhull, 1.0, 0.0, 1 - d, 1.0)  # witness axis x
        tests = []

        def separated(*args):
            tests.append(args)
            return hulls_separated(*args)

        monkeypatch.setattr(billiards, "hulls_separated", separated)
        child = walker._narrow_hulls(corridor, (1 - d, 1.0), (0.0, 1.0))
        assert (child is not None) == kept
        assert not tests if kept else len(tests) == 1

    @staticmethod
    def _square_edge_walker(monkeypatch):
        """An edge-0 walker on the square, stopped before its root node, and the root corridor."""
        walker = billiards._Enumerator(SQUARE, 3.0, 4, 10**6)
        roots = []
        monkeypatch.setattr(walker, "_dfs", lambda word, period, m, corridor: roots.append(corridor))
        walker.run(0)
        return walker, roots[0]


class TestTrapezoidPropositions:
    def test_shortest_is_2h_or_2b(self):
        assert run_suite("shortest-orbit") == []

    def test_catalog_agreement(self):
        assert run_suite("catalog") == []

    def test_non_boundary_conical_not_shorter_than_heights(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            t = random_trapezoid(rng)
            cat = orbit_catalog(t)
            floor = min(2 * t.h, cat.two_h_alpha.length)
            chains = find_generalized_diagonals(vertices(t), 2.5 * t.h + 0.5)
            for c in chains:
                if c.closed and not c.on_boundary:
                    assert c.length >= floor - 1e-9

    def test_non_2mb_shortest_is_2h_or_fagnano(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            t = random_trapezoid(rng)
            cat = orbit_catalog(t)
            floor = 2 * t.h
            if cat.fagnano.exists_inside:
                floor = min(floor, cat.fagnano.length)
            spec = length_spectrum(t, floor * (1 + 1e-6), period_max=8)
            for length, orbits in spec.entries:
                if length < floor * (1 - 1e-9):
                    assert all(
                        isinstance(o, ConicalChain) and o.on_boundary for o in orbits
                    )

    def test_spectrum_discrete(self, fagnano_setup):
        t, _, _ = fagnano_setup
        spec = length_spectrum(t, 4.0)
        lens = spec.lengths
        assert np.all(np.diff(lens) > spec.tolerance)


class TestPlumbing:
    def test_budget_exceeded_carries_partial(self, square_orbits, monkeypatch):
        # both searches finish unwinding, sort what they found like a full
        # result and find nothing that the unbudgeted search does not
        for search, order, full in (
            (enumerate_orbits, lambda g: (g.length, g.word), square_orbits),
            (
                find_generalized_diagonals,
                lambda c: (c.length, c.vertex_start),
                find_generalized_diagonals(SQUARE, 10.0),
            ),
        ):
            full_records = {json.dumps(o.to_dict()) for o in full}
            for budget in (50, 3000):
                monkeypatch.setattr(billiards, "DEFAULT_NODE_BUDGET", budget)
                with pytest.raises(BudgetExceeded) as exc:
                    search(SQUARE, 10.0)
                partial = exc.value.partial
                assert isinstance(partial, list)
                assert [order(o) for o in partial] == sorted(order(o) for o in partial)
                assert {json.dumps(o.to_dict()) for o in partial} <= full_records
                # the diagonal walk records chains from its first node; the
                # orbit walk goes deep before its first necklace closes
                if budget > 50 or search is find_generalized_diagonals:
                    assert partial

    @pytest.mark.parametrize("kind", ["edge", "vertex"])
    def test_pooled_budget_partial_is_serial(self, kind, monkeypatch):
        if kind == "edge":
            search, period_max = enumerate_orbits, billiards.DEFAULT_PERIOD_MAX
            order = lambda g: (g.length, g.word)
        else:
            search, period_max = find_generalized_diagonals, billiards.DIAGONAL_PERIOD_MAX
            order = lambda c: (c.length, c.vertex_start)

        # reference: one walker over every start, one node count for them all
        def serial(budget):
            walker = billiards._Enumerator(SQUARE, 10.0, period_max, budget)
            if kind == "vertex":
                walker.found.update(billiards._edge_orbits(SQUARE, 10.0))
            for k in range(4):
                (walker.run if kind == "edge" else walker.diagonals)(k)
            records = sorted(walker.found.values(), key=order)
            return [o.to_dict() for o in records], walker.nodes <= budget

        def searched(budget):
            monkeypatch.setattr(billiards, "DEFAULT_NODE_BUDGET", budget)
            try:
                records, complete = search(SQUARE, 10.0), True
            except BudgetExceeded as exc:
                records, complete = exc.partial, False
            return [o.to_dict() for o in records], complete

        # out of budget in the first start, exactly at its end, inside the
        # second start, and exactly at the end of the last
        nodes = [
            billiards._walk_start(SQUARE, 10.0, period_max, 10**6, (kind, k))[1] for k in range(4)
        ]
        budgets = (50, 3000, nodes[0], nodes[0] + 500, sum(nodes))
        pooled = [searched(budget) for budget in budgets]
        monkeypatch.setattr(workers, "cores", lambda: 1)
        for budget, got in zip(budgets, pooled):
            assert got == searched(budget) == serial(budget), budget
        assert [complete for _, complete in pooled] == [False] * 4 + [True]

    def test_length_spectrum_budget_drops_open_chains(self, monkeypatch):
        open_chain = ConicalChain(0, 2, (), math.sqrt(2), closed=False)
        closed_chain = ConicalChain(0, 0, (1, 2), 2.5, closed=True)
        searched = billiards._searched

        def exhausted(orbit_search, chain_search):
            return searched(orbit_search) + [([open_chain, closed_chain], False)]

        orbits = enumerate_orbits(SQUARE, 3.0)
        monkeypatch.setattr(billiards, "_searched", exhausted)
        with pytest.raises(BudgetExceeded) as exc:
            length_spectrum(SQUARE, 3.0)
        expected = sorted(orbits + [closed_chain], key=lambda o: o.length)
        assert [o.to_dict() for o in exc.value.partial] == [o.to_dict() for o in expected]

    def test_length_spectrum_budget_keeps_closed_chains(self, monkeypatch):
        orbit = enumerate_orbits(SQUARE, 3.0)[0]
        searched = billiards._searched

        def exhausted(orbit_search, chain_search):
            return [([orbit], False)] + searched(chain_search)

        closed = [c for c in find_generalized_diagonals(SQUARE, 3.0) if c.closed]
        assert closed
        monkeypatch.setattr(billiards, "_searched", exhausted)
        with pytest.raises(BudgetExceeded) as exc:
            length_spectrum(SQUARE, 3.0)
        expected = sorted([orbit] + closed, key=lambda o: o.length)
        assert [o.to_dict() for o in exc.value.partial] == [o.to_dict() for o in expected]

    @pytest.mark.parametrize(
        "poly,lmax,vertex_nodes,edge_nodes",
        [
            (SQUARE, 10.0, [4685] * 4, [6457, 1243, 3, 1]),
            (
                vertices(new_trapezoid(B=2.0, h=1.0, alpha=1.309, beta=1.0472)),
                6.0,
                [49, 57, 89, 95],
                [189, 8, 2, 1],
            ),
            (
                vertices(new_trapezoid(B=1.5, h=0.8, alpha=math.pi / 2, beta=math.pi / 4)),
                5.0,
                [218, 59, 200, 229],
                [375, 10, 3, 1],
            ),
            (NEAR_RIGHT, 10.0, [220, 160, 323, 246], [512, 8, 2, 1]),
            (rectangle(1.0, 1 / 3), 3.0, [1091] * 4, [1621, 25, 3, 1]),
        ],
        ids=["square", "readme_trapezoid", "pi2_pi4", "near_right", "rectangle_1_3"],
    )
    def test_start_node_counts(self, poly, lmax, vertex_nodes, edge_nodes):
        # where the summed counts pass the budget decides what
        # BudgetExceeded.partial holds, so each start's subtree keeps its size.
        # On pi2_pi4 the pruning tolerance decides: a vertex walk that prunes
        # every negative overlap walks 91/48/134/92 nodes
        for kind, period_max, want in (
            ("vertex", billiards.DIAGONAL_PERIOD_MAX, vertex_nodes),
            ("edge", billiards.DEFAULT_PERIOD_MAX, edge_nodes),
        ):
            got = [
                billiards._walk_start(poly, lmax, period_max, 10**6, (kind, k))[1]
                for k in range(len(poly.vertices))
            ]
            assert got == want, kind

    @pytest.mark.parametrize("poly", [README_TRAPEZOID, NEAR_RIGHT], ids=["readme", "near_right"])
    def test_closed_only_walk_keeps_the_tree(self, poly):
        # length_spectrum's chain search records closed chains only: the same
        # nodes, and the closed records of the full walk in their order
        for k in range(len(poly.vertices)):
            start = ("vertex", k)
            args = (poly, 6.0, billiards.DIAGONAL_PERIOD_MAX, 10**6, start)
            full, nodes = billiards._walk_start(*args)
            closed, closed_nodes = billiards._walk_start(*args, closed_only=True)
            assert closed_nodes == nodes
            assert list(closed.items()) == [(key, c) for key, c in full.items() if c.closed]
            assert closed

    @pytest.mark.parametrize(
        "poly",
        [
            vertices(new_trapezoid(B=2.0, h=1.0, alpha=math.radians(75), beta=math.radians(60))),
            SQUARE,
            *(vertices(random_trapezoid(np.random.default_rng(seed))) for seed in range(6)),
        ],
        ids=["flagship", "square", *(f"random{seed}" for seed in range(6))],
    )
    def test_shorter_lmax_is_a_prefix(self, poly):
        # inverse._unmatched_peaks enumerates only up to its longest peak:
        # that must give the entries of a longer search that lie within it
        y = 3 * poly.diameter
        longer = length_spectrum(poly, y, period_max=12).entries
        for frac in (0.4, 0.55, 0.7, 0.85):
            x = frac * y
            shorter = length_spectrum(poly, x, period_max=12).entries
            prefix = [e for e in longer if e[0] <= x]
            assert [e[0] for e in shorter] == [e[0] for e in prefix], frac
            assert [[o.to_dict() for o in e[1]] for e in shorter] == [
                [o.to_dict() for o in e[1]] for e in prefix
            ], frac

    def test_json_lines(self):
        spec = length_spectrum(SQUARE, 3.0)
        lines = spec.to_json_lines().strip().splitlines()
        assert len(lines) == len(spec.entries)
        d = json.loads(lines[0])
        assert {"word", "length", "kind", "multiplicity"} <= set(d["orbits"][0])

    def test_svg_smoke(self, square_orbits):
        svg = render_svg(SQUARE, square_orbits[:3])
        assert svg.startswith("<svg") and svg.endswith("</svg>")

    def test_bad_lmax(self):
        with pytest.raises(DomainError):
            enumerate_orbits(SQUARE, -1.0)

    def test_diagonals_share_input_checks(self):
        with pytest.raises(DomainError):
            find_generalized_diagonals(SQUARE, -1.0)
        with pytest.raises(DomainError):
            find_generalized_diagonals(SQUARE, 1.0, period_max=65)

    @pytest.mark.parametrize(
        "lmax,period_max", [(math.inf, 8), (math.nan, 8), (3.0, 0)], ids=["inf", "nan", "period0"]
    )
    def test_unbounded_search_rejected(self, lmax, period_max):
        # an infinite lmax would never end the on-edge multiples, a NaN one
        # would walk the whole node budget
        for search in (enumerate_orbits, find_generalized_diagonals, length_spectrum):
            with pytest.raises(DomainError):
                search(SQUARE, lmax, period_max=period_max)

    def test_nonconvex_polygon_rejected(self):
        # the unfolding would report a band with word (0, 2, 3, 5) in this L, which
        # no billiard path follows: one leaving edge 2 heads down, and edge 3 lies above
        ell = Polygon(np.array([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]], dtype=float))
        for poly in (ell, PENTAGRAM):
            for search in (enumerate_orbits, find_generalized_diagonals, length_spectrum):
                with pytest.raises(DomainError, match="convex"):
                    search(poly, 3.0)
            with pytest.raises(DomainError, match="convex"):
                unmatched_conical(poly, [2.0], 0.05)

    def test_pi_over_n_is_the_loop(self):
        def loop(angle):
            for n in range(1, 65):
                if abs(angle - math.pi / n) < 1e-7:
                    return True
            return False

        angles = [
            math.pi / n + d for n in range(1, 66) for d in (0, 0.9e-7, -0.9e-7, 1.1e-7, -1.1e-7)
        ]
        angles += np.random.default_rng(34).uniform(0, math.pi, 5000).tolist()
        assert [billiards._pi_over_n(a) for a in angles] == [loop(a) for a in angles]
        assert sum(map(loop, angles)) == 64 * 3


class TestConicalMatcher:
    """unmatched_conical: the times no on-edge orbit or closed vertex chain
    matches, from one in-process walk that stops once none is left."""

    @staticmethod
    def scored(times, tol, lengths):
        return [t for t in times if np.min(np.abs(lengths - t), initial=np.inf) > tol]

    def walked(self, monkeypatch, poly, times, tol):
        """The matcher's answer and the nodes its one walker walked."""
        walkers = []

        class Counted(billiards._Enumerator):
            def __init__(self, *args):
                super().__init__(*args)
                walkers.append(self)

        monkeypatch.setattr(billiards, "_Enumerator", Counted)
        left = unmatched_conical(poly, times, tol)
        [walker] = walkers
        return left, walker.nodes

    def test_stops_once_every_time_is_matched(self, monkeypatch):
        # no closed geodesic is shorter than 2h = 2, so 0.5 keeps the walk going
        poly, tol = README_TRAPEZOID, 0.05
        walks = [
            billiards._walk_start(poly, 3.5 + tol, billiards.DIAGONAL_PERIOD_MAX, 10**6, start)
            for start in [("vertex", k) for k in range(4)]
        ]
        full = sum(nodes for _, nodes in walks)
        left, nodes = self.walked(monkeypatch, poly, [2.0, 3.5], tol)
        assert left == [] and nodes < full
        left, nodes = self.walked(monkeypatch, poly, [0.5, 2.0, 3.5], tol)
        assert left == [0.5] and nodes == full

    def test_out_of_budget_scores_length_spectrum_partial(self, monkeypatch):
        poly, tol = README_TRAPEZOID, 0.01
        chains = find_generalized_diagonals(poly, 6.0)
        times = [0.5] + sorted({c.length for c in chains if c.closed})
        lmax = max(times) + tol
        nodes = [
            billiards._walk_start(poly, lmax, billiards.DIAGONAL_PERIOD_MAX, 10**6, start)[1]
            for start in [("vertex", k) for k in range(4)]
        ]
        answers = []
        # at 50 nodes, at the end of the first start, inside the second
        # start, and at the end of the last
        for budget in (50, nodes[0], nodes[0] + nodes[1] // 2, sum(nodes)):
            monkeypatch.setattr(billiards, "DEFAULT_NODE_BUDGET", budget)
            try:
                lengths = length_spectrum(poly, lmax, period_max=1).lengths
            except BudgetExceeded as exc:
                lengths = np.array([o.length for o in exc.partial])
            answers.append(unmatched_conical(poly, times, tol))
            assert answers[-1] == self.scored(times, tol, lengths), budget
        assert answers[-1] == [0.5] and len({len(a) for a in answers}) > 2

    def test_runs_without_the_pool(self, monkeypatch):
        def no_pool(tasks):
            raise AssertionError("the conical matcher reached the worker pool")

        monkeypatch.setattr(workers, "executor", no_pool)
        assert unmatched_conical(README_TRAPEZOID, [0.5, 2.0, 3.5], 0.05) == [0.5]

    def test_no_times(self):
        assert unmatched_conical(README_TRAPEZOID, [], 0.05) == []

    def test_input_checks(self):
        with pytest.raises(DomainError):
            unmatched_conical(README_TRAPEZOID, [2.0], math.nan)
        with pytest.raises(DomainError):
            unmatched_conical(README_TRAPEZOID, [math.inf], 0.05)
