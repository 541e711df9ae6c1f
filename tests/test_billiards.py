import itertools
import json
import math

import numpy as np
import pytest

from trapspec import billiards
from trapspec.billiards import (
    ClosedGeodesic,
    ConicalChain,
    compose_word,
    enumerate_orbits,
    find_generalized_diagonals,
    length_spectrum,
    orbits_json_lines,
    poincare_map,
    render_svg,
    shortest_orbit,
)
from trapspec.errors import BudgetExceeded, DomainError
from trapspec.geometry import (
    Polygon,
    new_trapezoid,
    orbit_catalog,
    random_trapezoid,
    vertices,
)
from trapspec.planar import Isometry

SQUARE = Polygon(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float))


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
        assert compose_word(SQUARE, [0, 1, 2]).parity == -1
        assert compose_word(SQUARE, [0, 1]).parity == 1

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
        assert pd.det_p == pytest.approx(1.0, abs=1e-6)

    def test_band_det_zero(self, fagnano_setup):
        t, poly, orbs = fagnano_setup
        band = next(o for o in orbs if abs(o.length - 2 * t.h) < 1e-9)
        pd = poincare_map(poly, band)
        assert abs(pd.det_i_minus_p) < 1e-6
        assert pd.det_p == pytest.approx(1.0, abs=1e-6)

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
        "poly",
        [
            SQUARE,
            vertices(new_trapezoid(B=2, h=1.0, alpha=1.3, beta=0.9)),
            vertices(new_trapezoid(B=1.7, h=0.8, alpha=1.4, beta=1.0)),
        ],
        ids=["square", "trapezoid_a", "trapezoid_b"],
    )
    def test_matches_unpruned_brute_force(self, poly):
        # every word up to period_max, unfolded without pruning: a chain
        # p -> q counts when it crosses each mirror strictly inside
        lmax, period_max = 2.5 * poly.diameter, 4
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


class TestTrapezoidPropositions:
    def test_shortest_is_2h_or_2b(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            t = random_trapezoid(rng)
            length, label = shortest_orbit(t)
            assert length == pytest.approx(min(2 * t.h, 2 * t.b), rel=1e-9)
            assert label in ("2h", "2b")

    def test_catalog_agreement(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            t = random_trapezoid(rng)
            cat = orbit_catalog(t)
            lmax = 2.2 * min(t.h, t.b) + 0.5
            spec = length_spectrum(t, lmax, period_max=10)
            lengths = spec.lengths
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
                assert np.any(np.abs(lengths - x) <= 1e-9 * max(x, 1.0)), (
                    f"length {x} missing for {t}"
                )

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
    def test_budget_exceeded_carries_partial(self):
        # both searches finish unwinding and sort what they found like a
        # full result
        for search, order in (
            (enumerate_orbits, lambda g: (g.length, g.word)),
            (find_generalized_diagonals, lambda c: (c.length, c.vertex_start)),
        ):
            with pytest.raises(BudgetExceeded) as exc:
                search(SQUARE, 10.0, node_budget=50)
            partial = exc.value.partial
            assert isinstance(partial, list)
            assert [order(o) for o in partial] == sorted(order(o) for o in partial)
        assert partial  # the diagonal walk records chains from its first node

    def test_length_spectrum_budget_drops_open_chains(self, monkeypatch):
        open_chain = ConicalChain(0, 2, (), math.sqrt(2), closed=False)
        closed_chain = ConicalChain(0, 0, (1, 2), 2.5, closed=True)

        def exhausted(*args, **kwargs):
            raise BudgetExceeded("budget exhausted", partial=[open_chain, closed_chain])

        orbits = enumerate_orbits(SQUARE, 3.0)
        monkeypatch.setattr(billiards, "find_generalized_diagonals", exhausted)
        with pytest.raises(BudgetExceeded) as exc:
            length_spectrum(SQUARE, 3.0)
        expected = sorted(orbits + [closed_chain], key=lambda o: o.length)
        assert [o.to_dict() for o in exc.value.partial] == [o.to_dict() for o in expected]

    def test_length_spectrum_budget_keeps_closed_chains(self, monkeypatch):
        orbit = enumerate_orbits(SQUARE, 3.0)[0]

        def exhausted(*args, **kwargs):
            raise BudgetExceeded("budget exhausted", partial=[orbit])

        closed = [c for c in find_generalized_diagonals(SQUARE, 3.0) if c.closed]
        assert closed
        monkeypatch.setattr(billiards, "enumerate_orbits", exhausted)
        with pytest.raises(BudgetExceeded) as exc:
            length_spectrum(SQUARE, 3.0)
        expected = sorted([orbit] + closed, key=lambda o: o.length)
        assert [o.to_dict() for o in exc.value.partial] == [o.to_dict() for o in expected]

    def test_json_lines(self, square_orbits):
        lines = orbits_json_lines(square_orbits).strip().splitlines()
        assert len(lines) == len(square_orbits)
        d = json.loads(lines[0])
        assert {"word", "length", "kind", "multiplicity"} <= set(d)

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
