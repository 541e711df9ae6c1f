import math
from types import SimpleNamespace

import numpy as np
import pytest

from trapspec import billiards, inverse, workers
from trapspec.billiards import ClosedGeodesic, LengthSpectrum, length_spectrum
from trapspec.eigensolver import exact_rectangle_spectrum
from trapspec.errors import (
    AmbiguousClassification,
    BudgetExceeded,
    DomainError,
    InconsistentInvariants,
    NonUniqueSolution,
    NoSolution,
    TrapspecError,
)
from trapspec.geometry import (
    Q_RECTANGLE,
    corner_f,
    new_trapezoid,
    orbit_catalog,
    random_trapezoid,
    vertices,
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
    """solve_from_h keeps exact roots only: a height 0.1% off misses the csc equation."""

    def test_strict_default_rejects_noisy_height(self):
        t = new_trapezoid(B=2, h=1, alpha=math.radians(75), beta=math.radians(60))
        with pytest.raises(NoSolution):
            solve_from_h(t.area, t.perimeter, q_of(t), t.h * 1.001)


class TestNearIsosceles:
    """Round trips with beta equal to alpha or just below it.

    That is the isosceles end of the alpha scan, where F^-1 can round beta
    above alpha; one in five shapes is exactly isosceles, the rest have
    alpha - beta = 10**u with u uniform in [-12, -2].
    """

    SOLVERS = {
        "h": lambda t: solve_from_h(t.area, t.perimeter, q_of(t), t.h),
        "hb": lambda t: solve_from_h_and_b(t.area, q_of(t), t.h, t.b, L=t.perimeter),
        "hlf": lambda t: solve_from_h_and_lf(
            t.area, q_of(t), t.h, orbit_catalog(t).fagnano.length, L=t.perimeter
        ),
    }

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_round_trip(self, solver):
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 150:
            t = sample_trapezoid(rng)
            gap = 0.0 if checked % 5 == 0 else 10.0 ** rng.uniform(-12, -2)
            t = new_trapezoid(B=t.B, h=t.h, alpha=t.alpha, beta=t.alpha - gap)
            if q_of(t) < Q_RECTANGLE + 1e-2:
                continue
            if solver == "hlf" and orbit_catalog(t).fagnano.degenerate:
                continue
            r = self.SOLVERS[solver](t)
            err = max(
                abs(r.B - t.B) / t.B, abs(r.h - t.h) / t.h,
                abs(r.alpha - t.alpha), abs(r.beta - t.beta),
            )
            assert err <= max(1e-8, gap), (t, r)
            checked += 1


class TestVectorizedScan:
    """_solve_alpha's one numpy scan decides as the scalar loop did.

    np.tan can differ from math.tan in the last bit, so the cot and Fagnano
    residuals' scan values may too; every solver outcome, root bits and
    error messages included, must be the same under both scans.
    """

    @staticmethod
    def _outcomes():
        rng = np.random.default_rng(53)
        out = []
        for i in range(150):
            t = random_trapezoid(rng)
            if i % 4 == 3:  # near-isosceles, one in two of them exactly
                gap = 0.0 if i % 8 == 3 else 10.0 ** rng.uniform(-12, -2)
                t = new_trapezoid(B=t.B, h=t.h, alpha=t.alpha, beta=t.alpha - gap)
            exact = (t.area, t.perimeter, q_of(t), t.h, t.b, orbit_catalog(t).fagnano.length)
            for noise in (0.0, 1e-3):
                A, L, q, h, b, lf = (x * (1 + noise * rng.uniform(-1, 1)) for x in exact)
                for solve in (
                    lambda: solve_from_h(A, L, q, h),
                    lambda: solve_from_h(A, L, q, h, l_f=lf, l_f_tol=1e-3),
                    lambda: solve_from_h_and_b(A, q, h, b, L=L, L_tol=0.05),
                    lambda: solve_from_h_and_lf(A, q, h, lf, L=L, L_tol=0.05),
                ):
                    try:
                        r = solve()
                    except TrapspecError as exc:
                        out.append(f"{type(exc).__name__}: {exc}")
                    else:
                        out.append(" ".join(x.hex() for x in (r.B, r.h, r.alpha, r.beta)))
        return out

    def test_decides_as_the_scalar_loop(self, monkeypatch):
        vectorized = self._outcomes()

        def scalar_scan(residual, grid, q):
            return np.array([residual(math, a, inverse._beta_from_q(a, q)) for a in grid])

        monkeypatch.setattr(inverse, "_scan", scalar_scan)
        scalar = self._outcomes()
        assert len(scalar) == 1200 and sum(o.startswith("0x") for o in scalar) > 600
        assert vectorized == scalar

    @pytest.mark.parametrize("q", [math.inf, math.nan])
    def test_non_finite_q_rejected(self, q):
        # not scanned: an infinite q put alpha = 0 on the grid
        for solve in (
            lambda: solve_from_h(2.0, 6.0, q, 1.0),
            lambda: solve_from_h_and_b(2.0, q, 1.0, 0.5),
            lambda: solve_from_h_and_lf(2.0, q, 1.0, 2.5),
        ):
            with pytest.raises(DomainError):
                solve()


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

    @pytest.mark.parametrize(
        "setting",
        [{"rectangle_q_tol": math.nan}, {"rectangle_q_tol": -1.0}, {"rectangle_q_tol": math.inf},
         {"invariant_rel_tol": math.nan}, {"invariant_rel_tol": -1.0},
         {"invariant_rel_tol": math.inf}, {"sigma": math.nan}, {"sigma": 0.0},
         {"sigma": -0.1}, {"sigma": math.inf}],
        ids=lambda d: "-".join(f"{k}={v}" for k, v in d.items()),
    )
    def test_invalid_settings_rejected_before_the_fit(self, setting, monkeypatch):
        monkeypatch.setattr(inverse, "fit_invariants", None)  # raised before the fit
        with pytest.raises(DomainError, match=next(iter(setting))):
            scan_and_reconstruct(exact_rectangle_spectrum(1, 1, 900), ReconstructConfig(**setting))

    def test_zero_tolerances_reach_the_fit(self, monkeypatch):
        class Fitted(Exception):
            pass

        def fit(*args, **kwargs):
            raise Fitted

        monkeypatch.setattr(inverse, "fit_invariants", fit)
        cfg = ReconstructConfig(rectangle_q_tol=0.0, invariant_rel_tol=0.0)
        with pytest.raises(Fitted):
            scan_and_reconstruct(exact_rectangle_spectrum(1, 1, 900), cfg)


def _one_call_unmatched(trap, times, tol, period_max):
    """The one-call rule: peak times with no length of the full length
    spectrum, up to the longest peak plus tol, within tol."""
    lengths = length_spectrum(trap, max(times) + tol, period_max=period_max).lengths
    return [t for t in times if len(lengths) == 0 or np.min(np.abs(lengths - t)) > tol]


class TestUnmatchedPeaks:
    TRAP = new_trapezoid(B=2, h=1, alpha=math.radians(75), beta=math.radians(60))
    ORBIT = ClosedGeodesic(
        word=(0, 2), length=2.0, kind="band", parity="even",
        basepoint=np.zeros(2), direction=np.array([0.0, 1.0]),
    )

    @staticmethod
    def peaks(*times):
        return [SingularityCandidate(t0=t, amplitude=1.0) for t in times]

    @pytest.fixture()
    def calls(self, monkeypatch):
        """Record each pass's arguments while running the real search: the
        conical pass's times and tol, pass 2's lmax and period_max."""
        calls = {"unmatched_conical": [], "length_spectrum": []}
        conical, spectrum = inverse.unmatched_conical, inverse.length_spectrum

        def pass1(polygon, times, tol):
            calls["unmatched_conical"].append((list(times), tol))
            return conical(polygon, times, tol)

        def pass2(trap, lmax, period_max):
            calls["length_spectrum"].append((lmax, period_max))
            return spectrum(trap, lmax, period_max)

        monkeypatch.setattr(inverse, "unmatched_conical", pass1)
        monkeypatch.setattr(inverse, "length_spectrum", pass2)
        return calls

    def test_conical_lengths_settle_every_peak(self, calls):
        # 2h = 2 and 2 h_alpha = 3.464 are closed vertex chains
        assert inverse._unmatched_peaks(self.TRAP, self.peaks(3.5, 2.001), 0.05, 12) == []
        assert calls == {"unmatched_conical": [([3.5, 2.001], 0.05)], "length_spectrum": []}

    def test_corridors_up_to_the_longest_unmatched_peak(self, calls):
        # no closed geodesic is shorter than 2h = 2
        assert inverse._unmatched_peaks(self.TRAP, self.peaks(2.001, 1.0), 0.05, 12) == [1.0]
        assert calls == {
            "unmatched_conical": [([2.001, 1.0], 0.05)], "length_spectrum": [(1.0 + 0.05, 12)],
        }

    def test_no_peaks_enumerate_nothing(self, calls):
        assert inverse._unmatched_peaks(self.TRAP, [], 0.05, 12) == []
        assert calls == {"unmatched_conical": [], "length_spectrum": []}

    def test_matches_the_one_call_rule(self, calls):
        """Catalog lengths, and for every other shape the catalog lengths that
        do not exist plus two spurious peaks, against the full spectrum."""
        rng = np.random.default_rng(30)
        shapes = []
        while len(shapes) < 40:
            t = sample_trapezoid(rng)
            scale = 2.5 / vertices(t).diameter
            shapes.append(new_trapezoid(B=t.B * scale, h=t.h * scale, alpha=t.alpha, beta=t.beta))
        corridor_walks = []
        for i, trap in enumerate(shapes):
            cat = orbit_catalog(trap)
            times = [cat.two_h, cat.two_b]
            for orbit in (cat.fagnano, cat.two_h_alpha):
                if orbit.exists_inside or i % 2:
                    times.append(orbit.length)
            if i % 2:
                times += rng.uniform(1.0, 5.0, 2).tolist()
            times.sort()
            for tol in (0.01, 0.05, 0.3):
                before = len(calls["length_spectrum"])
                got = inverse._unmatched_peaks(trap, self.peaks(*times), tol, 12)
                assert got == _one_call_unmatched(trap, times, tol, 12), (trap, times, tol)
                corridor_walks.append(len(calls["length_spectrum"]) > before)
        assert any(corridor_walks) and not all(corridor_walks)

    @pytest.mark.parametrize(
        "exhausted,left", [("unmatched_conical", [2.001]), ("length_spectrum", [3.5])]
    )
    def test_budget_exceeded_scores_partial_records(self, monkeypatch, exhausted, left):
        """Either pass, out of budget, scores the peaks against what it found.
        In its first 10 nodes the conical walk finds 2 h_alpha = 3.464 and not
        2h = 2; pass 2, out of budget, finds only a band at 2. The other pass
        finds nothing."""
        def partial(*args, **kwargs):
            raise BudgetExceeded("budget exhausted", partial=[self.ORBIT])

        peaks = self.peaks(2.001, 3.5)
        monkeypatch.setattr(inverse, "length_spectrum", lambda *a, **k: LengthSpectrum())
        if exhausted == "unmatched_conical":
            assert inverse._unmatched_peaks(self.TRAP, peaks, 0.05, 12) == []
            monkeypatch.setattr(billiards, "DEFAULT_NODE_BUDGET", 10)
        else:
            monkeypatch.setattr(inverse, "unmatched_conical", lambda polygon, times, tol: times)
            monkeypatch.setattr(inverse, "length_spectrum", partial)
        assert inverse._unmatched_peaks(self.TRAP, peaks, 0.05, 12) == left

    @pytest.mark.parametrize("broken", ["unmatched_conical", "length_spectrum"])
    def test_other_errors_propagate(self, monkeypatch, broken):
        def fails(*args, **kwargs):
            raise DomainError("broken enumeration")

        # pass 1 finds nothing, so pass 2 runs
        monkeypatch.setattr(inverse, "unmatched_conical", lambda polygon, times, tol: times)
        monkeypatch.setattr(inverse, broken, fails)
        with pytest.raises(DomainError):
            inverse._unmatched_peaks(self.TRAP, self.peaks(2.001, 3.5), 0.05, 12)

    def test_conical_pass_starts_no_worker(self, monkeypatch):
        def no_pool(tasks):
            raise AssertionError("the conical pass reached the worker pool")

        monkeypatch.setattr(workers, "executor", no_pool)
        assert inverse._unmatched_peaks(self.TRAP, self.peaks(3.5, 2.001), 0.05, 12) == []


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


class TestSolverFailureRule:
    """One rule for solver failures in scan_and_reconstruct, on scripted walks.

    NoSolution, NonUniqueSolution, InconsistentInvariants and DomainError
    from any solver reject that hypothesis alone; any other error propagates.
    """

    REJECTED = [NoSolution, NonUniqueSolution, InconsistentInvariants, DomainError]
    # an ambiguous first reading at 1.0 proposes the band solves at 2h = 1.0
    # and, over a window without a reading, the right angle; an ambiguous
    # window reading at 1.3 proposes the LFThen2h solves and LFThen2hAlpha
    WALKS = {
        "ambiguous-then-nothing": (("ambiguous", None, None, "band"), _first(1.0) + _RIGHT),
        "isolated-then-ambiguous": (
            ("isolated", "ambiguous", "band", "band"), _lf_then_2h(1.3, 1.0) + _ALPHA,
        ),
    }

    def _walk(self, monkeypatch, labels, failing, error):
        """Run the walk; call k returns a trapezoid with B = 2 + k/100, except
        the first call to the failing solver, which raises error."""
        calls = []

        def recorder(short):
            def solve(*args, **kwargs):
                k = len(calls)
                calls.append(short)
                if short == failing and calls.count(short) == 1:
                    raise error("scripted failure")
                trap = new_trapezoid(B=2 + 0.01 * k, h=1, alpha=1.3, beta=1.1)
                return [trap] if short == "right" else trap

            return solve

        for name, short in TestDecisionWalk.SOLVERS.items():
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

    @pytest.mark.parametrize("error", REJECTED, ids=lambda e: e.__name__)
    @pytest.mark.parametrize(
        "walk,failing",
        [
            ("ambiguous-then-nothing", "h"),
            ("ambiguous-then-nothing", "hb"),
            ("ambiguous-then-nothing", "hlf"),
            ("ambiguous-then-nothing", "right"),
            ("isolated-then-ambiguous", "hlf"),
            ("isolated-then-ambiguous", "lfha"),
        ],
    )
    def test_rejects_only_that_hypothesis(self, monkeypatch, walk, failing, error):
        labels, attempted = self.WALKS[walk]
        report, calls = self._walk(monkeypatch, labels, failing, error)
        assert calls == [short for _, short in attempted]
        dropped = calls.index(failing)
        hyps = [(report.branch, report.trapezoid)]
        hyps += [(b, t) for b, t, _ in report.alternatives]
        made = [round((t.B - 2) / 0.01) for _, t in hyps]
        assert made == [k for k in range(len(attempted)) if k != dropped]
        assert [b for b, _ in hyps] == [attempted[k][0] for k in made]

    def test_other_errors_propagate(self, monkeypatch):
        labels, _ = self.WALKS["ambiguous-then-nothing"]
        with pytest.raises(ZeroDivisionError):
            self._walk(monkeypatch, labels, "hb", ZeroDivisionError)

    def test_right_angle_domain_error_is_a_rejection(self, monkeypatch):
        # solve_alpha_right raises DomainError on a fitted A or L <= 0; on the
        # isolated-then-nothing walk it is the only hypothesis
        with pytest.raises(AmbiguousClassification):
            self._walk(monkeypatch, ("isolated", None, "isolated", "band"), "right", DomainError)


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

    def test_to_dict(self):
        t = new_trapezoid(B=2, h=1, alpha=1.2, beta=1.0)
        d = check_isospectral_consistency(t, t).to_dict()
        assert d["verdict"] == "congruent" and d["separatingInvariant"] is None
