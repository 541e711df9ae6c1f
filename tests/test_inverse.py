import math
from types import SimpleNamespace

import numpy as np
import pytest

from trapspec import inverse
from trapspec.billiards import ClosedGeodesic
from trapspec.eigensolver import exact_rectangle_spectrum
from trapspec.errors import (
    AmbiguousClassification,
    BudgetExceeded,
    DomainError,
    InconsistentInvariants,
    NonUniqueSolution,
    NoSolution,
)
from trapspec.geometry import (
    Q_RECTANGLE,
    corner_f,
    new_trapezoid,
    orbit_catalog,
    random_trapezoid,
)
from trapspec.inverse import (
    Rectangle,
    ReconstructConfig,
    check_isospectral_consistency,
    reconstruct_rectangle,
    scan_and_reconstruct,
    solve_alpha_right,
    solve_from_h,
    solve_from_h_and_b,
    solve_from_h_and_lf,
    solve_from_lf_halpha,
)
from trapspec.wave_trace import SingularityCandidate

PI = math.pi


def q_of(t):
    return corner_f(t.alpha) + corner_f(t.beta)


def sample_trapezoid(rng):
    """Random trapezoid away from the rectangle-degenerate corner.

    Near alpha = beta = pi/2 both invariants q and csc(alpha) + csc(beta)
    collapse to the same second-order quantity and angle recovery is
    ill-posed; the pipeline routes that regime to the rectangle branch, so
    the trapezoid solvers are exercised outside it.
    """
    while True:
        t = random_trapezoid(rng)
        if q_of(t) >= Q_RECTANGLE + 1e-2:
            return t


class TestReconstructRectangle:
    def test_unit_square(self):
        r = reconstruct_rectangle(2 * PI**2, 1.0)
        assert (r.a, r.c) == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_one_by_two(self):
        r = reconstruct_rectangle(1.25 * PI**2, 2.0)
        assert (r.a, r.c) == pytest.approx((1.0, 2.0), abs=1e-12)

    def test_below_square_minimum(self):
        with pytest.raises(NoSolution):
            reconstruct_rectangle(PI**2, 1.0)

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            reconstruct_rectangle(-1.0, 1.0)
        with pytest.raises(DomainError):
            Rectangle(a=2.0, c=1.0)


class TestSolveFromH:
    def test_isosceles_example(self):
        t = solve_from_h(A=3 * math.sqrt(3) / 4, L=5.0, q=9 / PI**2, h=math.sqrt(3) / 2)
        assert t.B == pytest.approx(2.0, abs=1e-10)
        assert t.b == pytest.approx(1.0, abs=1e-10)
        assert t.alpha == pytest.approx(PI / 3, abs=1e-10)
        assert t.beta == pytest.approx(PI / 3, abs=1e-10)

    def test_rectangle_boundary_rejected(self):
        # q at the rectangle minimum routes to the rectangle branch
        with pytest.raises(NoSolution):
            solve_from_h(A=2.0, L=6.0, q=Q_RECTANGLE, h=1.0)

    def test_csc_sum_boundary_rejected(self):
        # S = 2 exactly: rectangle geometry, no trapezoid
        with pytest.raises(NoSolution):
            solve_from_h(A=1.0, L=2.0 + 2.0 + 2.0, q=9 / PI**2, h=1.0)

    def test_round_trip_100(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            t = sample_trapezoid(rng)
            r = solve_from_h(t.area, t.perimeter, q_of(t), t.h)
            for got, want in (
                (r.B, t.B),
                (r.b, t.b),
                (r.alpha, t.alpha),
                (r.beta, t.beta),
            ):
                assert got == pytest.approx(want, abs=1e-8)

    def test_fagnano_cross_check(self):
        t = new_trapezoid(B=2, h=1, alpha=math.radians(75), beta=math.radians(60))
        cat = orbit_catalog(t)
        r = solve_from_h(t.area, t.perimeter, q_of(t), t.h, l_f=cat.fagnano.length)
        assert r.B == pytest.approx(t.B, abs=1e-9)
        with pytest.raises(NoSolution):
            solve_from_h(t.area, t.perimeter, q_of(t), t.h, l_f=cat.fagnano.length * 1.1)


class TestSolveFromHAndB:
    def test_round_trip_100(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            t = sample_trapezoid(rng)
            r = solve_from_h_and_b(t.area, q_of(t), t.h, t.b, L=t.perimeter)
            for got, want in (
                (r.B, t.B),
                (r.b, t.b),
                (r.alpha, t.alpha),
                (r.beta, t.beta),
            ):
                assert got == pytest.approx(want, abs=1e-8)

    def test_noisy_inputs_recover_nearby_shape(self):
        # the cot-sum system stays well conditioned under ~0.1% input noise,
        # which is where solve_from_h (csc sum) degenerates
        t = new_trapezoid(B=2, h=1, alpha=math.radians(75), beta=math.radians(60))
        r = solve_from_h_and_b(
            t.area * 1.0001, q_of(t) * 1.0001, t.h * 1.001, t.b * 1.003,
            L=t.perimeter, L_tol=0.05,
        )
        assert r.alpha == pytest.approx(t.alpha, abs=0.05)
        assert r.beta == pytest.approx(t.beta, abs=0.05)
        assert r.B == pytest.approx(t.B, rel=0.02)

    def test_top_side_too_long_rejected(self):
        t = new_trapezoid(B=2, h=1, alpha=math.radians(75), beta=math.radians(60))
        with pytest.raises(NoSolution):
            solve_from_h_and_b(t.area, q_of(t), t.h, b=t.area / t.h)

    def test_perimeter_cross_check(self):
        t = new_trapezoid(B=2, h=1, alpha=math.radians(75), beta=math.radians(60))
        with pytest.raises(InconsistentInvariants):
            solve_from_h_and_b(t.area, q_of(t), t.h, t.b, L=t.perimeter * 1.01)


class TestSolveFromHAndLf:
    def test_round_trip_100(self):
        rng = np.random.default_rng(29)
        checked = 0
        while checked < 100:
            t = sample_trapezoid(rng)
            cat = orbit_catalog(t)
            if cat.fagnano.degenerate:
                continue
            r = solve_from_h_and_lf(t.area, q_of(t), t.h, cat.fagnano.length, L=t.perimeter)
            for got, want in (
                (r.B, t.B),
                (r.h, t.h),
                (r.alpha, t.alpha),
                (r.beta, t.beta),
            ):
                assert got == pytest.approx(want, abs=1e-8)
            checked += 1

    def test_noisy_inputs_recover_nearby_shape(self):
        t = new_trapezoid(B=2, h=1, alpha=math.radians(75), beta=math.radians(60))
        l_f = orbit_catalog(t).fagnano.length
        r = solve_from_h_and_lf(
            t.area * 1.0001, q_of(t) * 1.0001, t.h * 1.001, l_f * 1.002,
            L=t.perimeter, L_tol=0.05,
        )
        assert r.alpha == pytest.approx(t.alpha, abs=0.05)
        assert r.beta == pytest.approx(t.beta, abs=0.05)
        assert r.B == pytest.approx(t.B, rel=0.02)

    def test_misassigned_length_rejected(self):
        # a peak that is not the Fagnano length fails the perimeter check
        t = new_trapezoid(B=2, h=1, alpha=math.radians(75), beta=math.radians(60))
        with pytest.raises((NoSolution, InconsistentInvariants)):
            solve_from_h_and_lf(
                t.area, q_of(t), t.h, 2 * t.h * 2, L=t.perimeter, L_tol=0.01
            )


class TestSolveFromHSlack:
    def test_strict_default_rejects_noisy_height(self):
        t = new_trapezoid(B=2, h=1, alpha=math.radians(75), beta=math.radians(60))
        with pytest.raises(NoSolution):
            solve_from_h(t.area, t.perimeter, q_of(t), t.h * 1.001)

    def test_slack_accepts_near_miss(self):
        t = new_trapezoid(B=2, h=1, alpha=math.radians(75), beta=math.radians(60))
        r = solve_from_h(t.area, t.perimeter, q_of(t), t.h * 1.001, s_slack=0.05)
        assert r.area == pytest.approx(t.area, rel=1e-6)
        assert r.perimeter == pytest.approx(t.perimeter, rel=0.01)


class TestSolveFromLfHalpha:
    def test_isosceles_example(self):
        t = solve_from_lf_halpha(L=5.0, q=9 / PI**2, l_f=3.0, h_alpha=math.sqrt(3))
        assert t.alpha == pytest.approx(PI / 3, abs=1e-10)
        assert t.beta == pytest.approx(PI / 3, abs=1e-10)
        assert t.B == pytest.approx(2.0, abs=1e-10)
        assert t.h == pytest.approx(math.sqrt(3) / 2, abs=1e-10)

    def test_sine_bound(self):
        with pytest.raises(NoSolution):
            solve_from_lf_halpha(L=5.0, q=9 / PI**2, l_f=4.0, h_alpha=1.0)

    def test_degenerate_right_angle(self):
        t0 = new_trapezoid(B=2.0, h=0.9, alpha=PI / 2, beta=1.1)
        cat = orbit_catalog(t0)
        # at alpha = pi/2 the Fagnano length collapses onto 2 h_alpha
        t = solve_from_lf_halpha(
            t0.perimeter, q_of(t0), cat.fagnano.length, cat.two_h_alpha.length / 2
        )
        assert t.alpha == pytest.approx(PI / 2, abs=1e-12)
        assert t.B == pytest.approx(t0.B, abs=1e-9)
        assert t.h == pytest.approx(t0.h, abs=1e-9)

    def test_inconsistent_area(self):
        with pytest.raises(InconsistentInvariants):
            solve_from_lf_halpha(
                L=5.0, q=9 / PI**2, l_f=3.0, h_alpha=math.sqrt(3), area=2.0
            )

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 60:
            t = sample_trapezoid(rng)
            cat = orbit_catalog(t)
            if not cat.fagnano.exists_inside or cat.fagnano.degenerate:
                continue
            r = solve_from_lf_halpha(
                t.perimeter,
                q_of(t),
                cat.fagnano.length,
                t.B * math.sin(t.beta),
                area=t.area,
            )
            for got, want in (
                (r.B, t.B),
                (r.h, t.h),
                (r.alpha, t.alpha),
                (r.beta, t.beta),
            ):
                assert got == pytest.approx(want, abs=1e-8)
            checked += 1


class TestAlphaRight:
    def test_recovers_right_trapezoid(self):
        t0 = new_trapezoid(B=2.0, h=0.9, alpha=PI / 2, beta=1.1)
        cands = solve_alpha_right(t0.area, t0.perimeter, q_of(t0))
        assert any(
            abs(c.B - t0.B) < 1e-9 and abs(c.h - t0.h) < 1e-9 for c in cands
        )
        # every candidate reproduces the inputs exactly
        for c in cands:
            assert c.area == pytest.approx(t0.area, rel=1e-9)
            assert c.perimeter == pytest.approx(t0.perimeter, rel=1e-9)

    def test_no_solution(self):
        with pytest.raises(NoSolution):
            solve_alpha_right(100.0, 5.0, 9 / PI**2)


class TestCaseTwoInfeasibility:
    def test_isosceles_reading_conflict(self):
        # an isosceles trapezoid's (A, L, q) combined with h taken from its
        # 2 h_alpha singularity and its true Fagnano length is contradictory
        rng = np.random.default_rng(5)
        tried = 0
        while tried < 40:
            t = random_trapezoid(rng)
            try:
                t2 = new_trapezoid(B=t.B, h=t.h, alpha=t.alpha, beta=t.alpha)
            except DomainError:
                continue
            cat = orbit_catalog(t2)
            if not cat.fagnano.exists_inside:
                continue
            tried += 1
            with pytest.raises((NoSolution, NonUniqueSolution)):
                solve_from_h(
                    t2.area,
                    t2.perimeter,
                    q_of(t2),
                    cat.two_h_alpha.length / 2,
                    l_f=cat.fagnano.length,
                )


class TestMonotonicity:
    def test_corner_f_decreasing(self):
        xs = np.linspace(0.05, PI / 2, 400)
        fs = [corner_f(x) for x in xs]
        assert all(a > b for a, b in zip(fs, fs[1:]))

    def test_csc_sum_decreasing_in_each_angle(self):
        xs = np.linspace(0.05, PI / 2, 400)
        cs = [1 / math.sin(x) for x in xs]
        assert all(a > b for a, b in zip(cs, cs[1:]))


class TestScanAndReconstruct:
    def test_square_spectrum_rectangle_branch(self):
        s = exact_rectangle_spectrum(1, 1, 2000)
        report = scan_and_reconstruct(s)
        assert report.branch == "Rectangle"
        assert isinstance(report.trapezoid, Rectangle)
        assert report.trapezoid.a == pytest.approx(1.0, abs=0.02)
        assert report.trapezoid.c == pytest.approx(1.0, abs=0.02)
        assert not report.ambiguous
        assert '"branch": "Rectangle"' in report.to_json()

    def test_one_by_two_rectangle(self):
        s = exact_rectangle_spectrum(1, 2, 2000)
        report = scan_and_reconstruct(s)
        assert report.branch == "Rectangle"
        assert report.trapezoid.a == pytest.approx(1.0, abs=0.03)
        assert report.trapezoid.c == pytest.approx(2.0, abs=0.06)

    def test_too_few_eigenvalues(self):
        s = exact_rectangle_spectrum(1, 1, 100)
        with pytest.raises(DomainError):
            scan_and_reconstruct(s)

    def test_config_serialized(self):
        cfg = ReconstructConfig(min_eigenvalues=500)
        s = exact_rectangle_spectrum(1, 1, 600)
        report = scan_and_reconstruct(s, cfg)
        assert report.config["minEigenvalues"] == 500


class TestUnmatchedPeaks:
    TRAP = new_trapezoid(B=2, h=1, alpha=math.radians(75), beta=math.radians(60))
    PEAKS = [SingularityCandidate(t0=2.001, amplitude=1.0),
             SingularityCandidate(t0=3.5, amplitude=1.0)]

    def test_budget_exceeded_scores_partial_orbits(self, monkeypatch):
        orbit = ClosedGeodesic(
            word=(0, 2), length=2.0, kind="band", parity="even",
            basepoint=np.zeros(2), direction=np.array([0.0, 1.0]),
        )

        def exhausted(*args, **kwargs):
            raise BudgetExceeded("budget exhausted", partial=[orbit])

        monkeypatch.setattr(inverse, "length_spectrum", exhausted)
        assert inverse._unmatched_peaks(self.TRAP, self.PEAKS, 4.0, 0.05, 12) == [3.5]

    def test_other_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise DomainError("broken enumeration")

        monkeypatch.setattr(inverse, "length_spectrum", broken)
        with pytest.raises(DomainError):
            inverse._unmatched_peaks(self.TRAP, self.PEAKS, 4.0, 0.05, 12)


# scripted peak times of TestDecisionWalk: an l_F read at 1.0 opens the
# window (1.0, 2.0) over 1.3 and 1.6
WALK_PEAKS = (1.0, 1.3, 1.6, 2.5)


def _first(t0):
    """Hypotheses of a first-pass band at t0: the csc solve, then every other
    peak as 2b (cot sum) and as l_F."""
    out = [("FirstOrderHalfIs2h", "h")]
    for other in WALK_PEAKS:
        if other != t0:
            out += [("FirstOrderHalfIs2h", "hb"), ("FirstOrderHalfIs2h", "hlf")]
    return out


def _lf_then_2h(t0, lf):
    """Hypotheses of a window band at t0 after l_F = lf: the csc solve, the
    Fagnano solve, then every peak other than both as 2b."""
    out = [("LFThen2h", "h"), ("LFThen2h", "hlf")]
    for other in WALK_PEAKS:
        if other not in (t0, lf):
            out.append(("LFThen2h", "hb"))
    return out


_ALPHA = [("LFThen2hAlpha", "lfha")]
_RIGHT = [("AlphaRightAngle", "right")]


class TestDecisionWalk:
    """The singularity walk of scan_and_reconstruct on scripted order labels.

    Every solver succeeds and every hypothesis passes cross-validation, so
    the report lists them all in the order the walk made them.
    """

    SOLVERS = {
        "solve_from_h": "h",
        "solve_from_h_and_b": "hb",
        "solve_from_h_and_lf": "hlf",
        "solve_from_lf_halpha": "lfha",
        "solve_alpha_right": "right",
    }

    def _walk(self, monkeypatch, labels, distinct):
        """Run the walk; with distinct, call k returns a trapezoid with B = 2 + k/100."""
        calls = []

        def recorder(short):
            def solve(*args, **kwargs):
                k = len(calls) if distinct else 0
                calls.append(short)
                trap = new_trapezoid(B=2 + 0.01 * k, h=1, alpha=1.3, beta=1.1)
                return [trap] if short == "right" else trap

            return solve

        for name, short in self.SOLVERS.items():
            monkeypatch.setattr(inverse, name, recorder(short))
        label_of = dict(zip(WALK_PEAKS, labels))
        monkeypatch.setattr(
            inverse, "fit_invariants",
            lambda *a, **k: SimpleNamespace(area=2.0, perimeter=6.0, q_estimate=1.0),
        )
        monkeypatch.setattr(
            inverse, "scan_peaks",
            lambda *a, **k: [SingularityCandidate(t0=t, amplitude=1.0) for t in WALK_PEAKS],
        )
        monkeypatch.setattr(inverse, "_classified", lambda spec, cand, sigma: label_of[cand.t0])
        monkeypatch.setattr(
            inverse, "_invariant_residuals",
            lambda *a: {"areaRel": 0.0, "perimeterRel": 0.0, "qRel": 0.0},
        )
        monkeypatch.setattr(inverse, "_unmatched_peaks", lambda *a: [])
        report = scan_and_reconstruct(
            exact_rectangle_spectrum(1, 1, 10), ReconstructConfig(min_eigenvalues=1)
        )
        return report, calls

    @pytest.mark.parametrize(
        "labels,evidence,attempted,ambiguous",
        [
            (("band",) * 4, [1.0], _first(1.0), False),
            (("diffractive", "band", "band", "band"), [1.0, 1.3], _first(1.3), False),
            (("isolated", "band", "band", "band"), [1.0, 1.3], _lf_then_2h(1.3, 1.0), False),
            (("isolated", "diffractive", "band", "band"), [1.0, 1.3], _ALPHA, False),
            (
                ("isolated", "ambiguous", "band", "band"), [1.0, 1.3],
                _lf_then_2h(1.3, 1.0) + _ALPHA, True,
            ),
            (
                ("isolated", "isolated", "band", "band"), [1.0, 1.3, 1.6],
                _lf_then_2h(1.6, 1.0), False,
            ),
            # 2.5 reads as a band but lies beyond 2 l_F
            (("isolated", None, "isolated", "band"), [1.0, 1.6], _RIGHT, False),
            (
                ("ambiguous", "band", "band", "band"), [1.0, 1.3],
                _first(1.0) + _lf_then_2h(1.3, 1.0), True,
            ),
            ((None, "band", "band", "band"), [1.3], _first(1.3), False),
        ],
        ids=[
            "band-first", "diffractive-then-band", "isolated-then-band",
            "isolated-then-diffractive", "isolated-then-ambiguous",
            "isolated-isolated-then-band", "isolated-then-nothing", "ambiguous-first",
            "none-skipped",
        ],
    )
    def test_walk(self, monkeypatch, labels, evidence, attempted, ambiguous):
        report, calls = self._walk(monkeypatch, labels, distinct=True)
        hyps = [(report.branch, report.trapezoid)]
        hyps += [(b, t) for b, t, _ in report.alternatives]
        assert [(b, calls[round((t.B - 2) / 0.01)]) for b, t in hyps] == attempted
        assert len(calls) == len(attempted)
        assert [c.t0 for c in report.evidence] == evidence
        # one shared trapezoid dedups to a single survivor, leaving the walk's flag
        report, _ = self._walk(monkeypatch, labels, distinct=False)
        assert report.ambiguous is ambiguous
        assert [c.t0 for c in report.evidence] == evidence

    def test_no_reading_raises(self, monkeypatch):
        with pytest.raises(AmbiguousClassification):
            self._walk(monkeypatch, (None, "diffractive", None, "diffractive"), True)


class TestIsospectralConsistency:
    def test_congruent(self):
        t = new_trapezoid(B=2, h=1, alpha=math.radians(75), beta=math.radians(60))
        r = check_isospectral_consistency(t, t)
        assert r.verdict == "congruent"
        assert r.separating_invariant is None

    def test_angle_change_separates(self):
        t1 = new_trapezoid(B=2, h=1, alpha=math.radians(75), beta=math.radians(60))
        t2 = new_trapezoid(B=2, h=1, alpha=math.radians(80), beta=math.radians(60))
        assert q_of(t1) != pytest.approx(q_of(t2), abs=1e-6)
        r = check_isospectral_consistency(t1, t2)
        assert r.verdict == "distinct-invariants"
        assert r.separating_invariant is not None

    def test_random_pairs_always_separated(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            t1 = random_trapezoid(rng)
            t2 = random_trapezoid(rng)
            r = check_isospectral_consistency(t1, t2)
            assert r.verdict != "potentially-isospectral"
            if r.verdict == "congruent":
                assert abs(t1.B - t2.B) < 1e-8

    def test_json(self):
        t = new_trapezoid(B=2, h=1, alpha=1.2, beta=1.0)
        text = check_isospectral_consistency(t, t).to_json()
        assert '"verdict": "congruent"' in text
