import json
import math
from pathlib import Path

import numpy as np
import pytest

from trapspec import inverse, wave_trace
from trapspec.eigensolver import DIRICHLET, Spectrum, exact_rectangle_spectrum
from trapspec.errors import DomainError, NoiseFloor, TrapspecError
from trapspec.geometry import Trapezoid
from trapspec.heat_trace import fit_invariants
from trapspec.inverse import SCAN_T_START, ReconstructConfig, scan_and_reconstruct
from trapspec.wave_trace import (
    SingularityCandidate,
    SingularityProbe,
    classify_candidate,
    estimate_order,
    order_frequencies,
    probe,
    scan_peaks,
)

SIGMA = 0.15
DATA = Path(__file__).parents[1] / "perfbench" / "data"
STORED = sorted(p for p in DATA.glob("*.json") if p.name != "manifest.json")


@pytest.fixture(scope="module")
def square5000():
    return exact_rectangle_spectrum(1, 1, 5000)


def _stored_spectrum(path):
    d = json.loads(path.read_text())
    return Spectrum(np.array(d["eigenvalues"]), DIRICHLET, accuracy=np.array(d["accuracy"]))


def _reference_abs_i_on_grid(spectrum, t_lo, step, count, sigma, k_ref):
    """|I(k_ref)| as one direct T x N sum of complex exponentials."""
    ts = t_lo + step * np.arange(count)
    d = np.sqrt(spectrum.eigenvalues) - k_ref
    gauss = np.exp(-0.5 * sigma**2 * d**2)
    return sigma * math.sqrt(2 * math.pi) * np.abs(np.exp(1j * np.outer(ts, d)) @ gauss)


def _reference_probe(spectrum, t0, sigma, k_list):
    """I(k) as one direct K x N sum of complex exponentials."""
    ks = np.atleast_1d(np.asarray(k_list, dtype=float))
    diff = np.sqrt(spectrum.eigenvalues)[None, :] - ks[:, None]
    vals = (
        sigma
        * math.sqrt(2 * math.pi)
        * np.sum(np.exp(1j * diff * t0 - 0.5 * sigma**2 * diff**2), axis=1)
    )
    return SingularityProbe(t0=t0, sigma=sigma, k=ks, values=vals)


def _reference_estimate_order(spectrum, t0, sigma):
    """estimate_order from the direct sums, np.geomspace and np.polyfit."""
    k_max = math.sqrt(spectrum.eigenvalues[-1])
    ks = np.geomspace(0.15 * k_max, 0.6 * k_max, 30)
    lo, hi = float(ks[0]), float(ks[-1])
    amp = np.abs(_reference_probe(spectrum, t0, sigma, ks).values)
    k_mid = math.sqrt(lo * hi)
    off = wave_trace._background(
        _reference_abs_i_on_grid(spectrum, 0.5 * t0, t0 / 80, 81, sigma, k_mid)
    )
    if np.all(amp < 10 * off):
        raise NoiseFloor("below the reference background")
    mask = amp > 0
    x = np.log(ks[mask])
    y = np.log(amp[mask])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = max(len(x) - 2, 1)
    se = math.sqrt(float(resid @ resid) / dof / float(((x - x.mean()) ** 2).sum()))
    return float(slope), float(2 * se)


@pytest.fixture(scope="module")
def candidates(square5000):
    """Each test spectrum with scan_peaks' candidates on the pipeline's grid and the README's."""
    out = {}
    for path in [None] + STORED:
        spectrum = square5000 if path is None else _stored_spectrum(path)
        L = fit_invariants(spectrum, t_window=ReconstructConfig().fit_t_window).perimeter
        peaks = scan_peaks(spectrum, (SCAN_T_START, L), SIGMA)
        peaks += scan_peaks(spectrum, (1.5, 4.5), SIGMA)
        out["square" if path is None else path.stem] = (spectrum, [c.t0 for c in peaks])
    return out


NAMES = ["square"] + [p.stem for p in STORED]


class TestFactoredKernels:
    """The factored-phase kernels against the direct sums they replace."""

    @staticmethod
    def _close(got, want):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def _check_grid(self, spectrum, t_lo, step, count, k_ref):
        self._close(
            wave_trace._abs_i_on_grid(spectrum, t_lo, step, count, SIGMA, k_ref),
            _reference_abs_i_on_grid(spectrum, t_lo, step, count, SIGMA, k_ref),
        )

    @pytest.mark.parametrize("path", [None] + STORED, ids=["square"] + [p.stem for p in STORED])
    def test_against_direct_sums(self, path, square5000):
        spectrum = square5000 if path is None else _stored_spectrum(path)
        k_ref = 0.5 * math.sqrt(spectrum.eigenvalues[-1])
        step = SIGMA / 4
        L = fit_invariants(spectrum, t_window=ReconstructConfig().fit_t_window).perimeter
        peaks = []
        # scan_peaks' grids: the pipeline's (SCAN_T_START, L) and the README's
        for t_lo, t_hi in ((SCAN_T_START, L), (1.5, 4.5)):
            count = len(np.arange(t_lo, t_hi + step / 2, step))
            self._check_grid(spectrum, t_lo, step, count, k_ref)
            peaks += scan_peaks(spectrum, (t_lo, t_hi), SIGMA)
        assert peaks
        # estimate_order's probe and background grid at every candidate
        ks = order_frequencies(spectrum)
        k_mid = math.sqrt(ks[0] * ks[-1])
        for c in peaks:
            want = _reference_probe(spectrum, c.t0, SIGMA, ks).values
            self._close(probe(spectrum, c.t0, SIGMA, ks).values, want)
            self._check_grid(spectrum, 0.5 * c.t0, c.t0 / 80, 81, k_mid)
            # and estimate_order's own kernel for both
            amp, grid = wave_trace._order_profiles(spectrum, c.t0, SIGMA, ks, k_mid)
            self._close(amp, np.abs(want))
            self._close(
                grid, _reference_abs_i_on_grid(spectrum, 0.5 * c.t0, c.t0 / 80, 81, SIGMA, k_mid)
            )
        # counts whose blocked reshape is trimmed or degenerate, from a peak
        for count in (1, 2, 3, 127):
            self._check_grid(spectrum, peaks[0].t0, step, count, k_ref)

    @pytest.mark.skipif(
        not np.finfo(np.longdouble).eps < 1e-18,
        reason="needs an extended-precision long double for the reference sum",
    )
    @pytest.mark.parametrize("count", [81, 160, 2000])
    @pytest.mark.parametrize("name", ["square", "band_2h_flagship"])
    def test_grid_against_extended_precision(self, name, count, square5000):
        # a float64 direct sum is itself off by more than 1e-12 at 2000 points
        spectrum = square5000 if name == "square" else _stored_spectrum(DATA / f"{name}.json")
        ld = np.longdouble
        k_ref = 0.5 * math.sqrt(spectrum.eigenvalues[-1])
        step = SIGMA / 4
        ts = ld(SCAN_T_START) + ld(step) * np.arange(count, dtype=ld)
        d = np.sqrt(spectrum.eigenvalues.astype(ld)) - ld(k_ref)
        gauss = np.exp(ld(-0.5) * ld(SIGMA) ** 2 * d**2)
        phase = np.outer(ts, d)
        want = np.hypot(np.cos(phase) @ gauss, np.sin(phase) @ gauss)
        want = (SIGMA * math.sqrt(2 * math.pi) * want).astype(float)
        self._close(
            wave_trace._abs_i_on_grid(spectrum, SCAN_T_START, step, count, SIGMA, k_ref), want
        )

    @pytest.mark.skipif(
        not np.finfo(np.longdouble).eps < 1e-18,
        reason="needs an extended-precision long double for the reference sum",
    )
    @pytest.mark.parametrize("name", NAMES)
    def test_order_profiles_against_extended_precision(self, name, candidates):
        spectrum, times = candidates[name]
        ld = np.longdouble
        ks = order_frequencies(spectrum)
        k_mid = math.sqrt(ks[0] * ks[-1])
        mu = np.sqrt(spectrum.eigenvalues.astype(ld))

        def abs_sums(phase, gauss):
            re = (np.cos(phase) * gauss).sum(axis=-1)
            im = (np.sin(phase) * gauss).sum(axis=-1)
            return (SIGMA * math.sqrt(2 * math.pi) * np.hypot(re, im)).astype(float)

        diff = mu[None, :] - ks.astype(ld)[:, None]
        d = mu - ld(k_mid)
        steps = np.arange(40, 121, dtype=ld) / 80  # the grid t0 * (1/2 + j/80)
        for t0 in times:
            amp, grid = wave_trace._order_profiles(spectrum, t0, SIGMA, ks, k_mid)
            self._close(amp, abs_sums(ld(t0) * diff, np.exp(ld(-0.5) * ld(SIGMA) ** 2 * diff**2)))
            phase = np.outer(ld(t0) * steps, d)
            self._close(grid, abs_sums(phase, np.exp(ld(-0.5) * ld(SIGMA) ** 2 * d**2)))

    def test_order_frequencies_is_geomspace(self, candidates):
        rng = np.random.default_rng(31)
        lams = [s.eigenvalues[-1] for s, _ in candidates.values()]
        lams += list(10.0 ** rng.uniform(-6, 12, 2000)) + list(rng.uniform(1, 1e5, 2000))
        for lam in lams:
            k_max = math.sqrt(lam)
            want = np.geomspace(0.15 * k_max, 0.6 * k_max, 30)
            got = order_frequencies(Spectrum(np.array([lam]), DIRICHLET))
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", NAMES)
    def test_estimate_order_against_reference(self, name, candidates):
        spectrum, times = candidates[name]
        times = sorted(times)

        def outcome(estimate, t0):
            try:
                return estimate(spectrum, t0, SIGMA)
            except NoiseFloor:
                return None

        def compare(t0, order_tol, ci_rtol):
            got = outcome(estimate_order, t0)
            want = outcome(_reference_estimate_order, t0)
            assert (got is None) == (want is None), t0
            if want is not None:
                assert abs(got[0] - want[0]) <= order_tol, t0
                assert abs(got[1] - want[1]) <= ci_rtol * want[1], t0

        for t0 in times:
            compare(t0, 1e-12, 1e-9)
        # Off-peak midpoints exercise the NoiseFloor outcome. There |I| is a
        # near-cancelling sum: against a long double sum both float64 orders
        # are off by up to 9e-11 (alpha_right), and they differ by 6e-12
        for a, b in zip(times, times[1:]):
            compare(0.5 * (a + b), 1e-10, 1e-9)

    def test_background_is_numpy_quartile(self):
        rng = np.random.default_rng(29)
        for n in range(1, 401):
            # octaves 2^-4..2^4 keep the quartile above the max/1000 floor,
            # where a wrong interpolation rounding shows
            octaves = (1 + rng.random(n)) * 2.0 ** rng.integers(-4, 5, n)
            mixed = rng.random(n) * 10.0 ** rng.uniform(-3, 6, n)
            ties = rng.integers(0, 4, n) * 10.0 ** rng.integers(-3, 7)
            for vals in (octaves, mixed, ties, np.round(mixed, 1)):
                want = max(np.quantile(vals, 0.25), vals.max() / 1000)
                got = wave_trace._background(vals)
                assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("path", STORED, ids=[p.stem for p in STORED])
    def test_reconstruction_unchanged(self, path, monkeypatch):
        spectrum = _stored_spectrum(path)

        def outcome():
            try:
                return scan_and_reconstruct(spectrum)
            except TrapspecError as exc:
                return type(exc)

        new = outcome()
        monkeypatch.setattr(wave_trace, "_abs_i_on_grid", _reference_abs_i_on_grid)
        monkeypatch.setattr(wave_trace, "probe", _reference_probe)
        monkeypatch.setattr(inverse, "estimate_order", _reference_estimate_order)
        ref = outcome()
        if isinstance(ref, type):
            assert new is ref
            return
        assert (new.branch, new.ambiguous) == (ref.branch, ref.ambiguous)
        assert len(new.evidence) == len(ref.evidence)
        assert len(new.alternatives) == len(ref.alternatives)
        shapes = [(new.trapezoid, ref.trapezoid)]
        shapes += [(a[1], b[1]) for a, b in zip(new.alternatives, ref.alternatives)]
        for got, want in shapes:
            assert type(got) is type(want)
            fields = ("B", "h", "alpha", "beta") if isinstance(want, Trapezoid) else ("a", "c")
            for f in fields:
                assert getattr(got, f) == pytest.approx(getattr(want, f), rel=1e-9, abs=0)


class TestProbe:
    def test_single_mode_amplitude(self):
        k0 = 3.7
        s = Spectrum(eigenvalues=np.array([k0**2]), boundary_condition=DIRICHLET)
        v = probe(s, t0=1.0, sigma=0.2, k_list=[k0]).values[0]
        assert abs(v) == pytest.approx(0.2 * math.sqrt(2 * math.pi), rel=1e-12)

    def test_band_growth_trend(self, square5000):
        ks = np.geomspace(20, 60, 15)
        amp = np.abs(probe(square5000, 2.0, SIGMA, ks).values)
        slope = np.polyfit(np.log(ks), np.log(amp), 1)[0]
        assert 0.3 < slope < 0.8  # band singularity: ~k^(1/2)

    def test_off_length_much_smaller(self, square5000):
        on = abs(probe(square5000, 2.0, SIGMA, [40.0]).values[0])
        off = abs(probe(square5000, 1.3, SIGMA, [40.0]).values[0])
        assert on >= 10 * off

    def test_linear_in_spectrum(self, square5000):
        ev = square5000.eigenvalues
        s1 = Spectrum(ev[:2000].copy(), DIRICHLET)
        s2 = Spectrum(ev[2000:].copy(), DIRICHLET)
        ks = np.linspace(30, 120, 9)
        v1 = probe(s1, 2.0, SIGMA, ks).values
        v2 = probe(s2, 2.0, SIGMA, ks).values
        v = probe(square5000, 2.0, SIGMA, ks).values
        assert np.max(np.abs(v1 + v2 - v)) < 1e-12 * np.max(np.abs(v))

    def test_deterministic(self, square5000):
        ks = np.linspace(30, 120, 9)
        a = probe(square5000, 2.0, SIGMA, ks).values
        b = probe(square5000, 2.0, SIGMA, ks).values
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "t0, sigma", [(2.0, math.nan), (math.nan, SIGMA), (2.0, math.inf), (math.inf, SIGMA), (2.0, 0.0), (-1.0, SIGMA)]
    )
    def test_bad_window(self, t0, sigma):
        with pytest.raises(DomainError):
            probe(exact_rectangle_spectrum(1, 1, 50), t0, sigma, [3.0])

    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
    def test_non_finite_k(self, square5000, k):
        with pytest.raises(DomainError):
            probe(square5000, 2.0, SIGMA, [40.0, k])

    def test_csv_export(self, square5000):
        text = probe(square5000, 2.0, SIGMA, [40.0, 50.0]).to_csv()
        assert text.startswith("# t0=")
        assert len(text.strip().splitlines()) == 4


def _loop_peaks(amp, ts, step, floor):
    """scan_peaks' candidates, tested one grid point at a time."""
    out = []
    for i in range(1, len(ts) - 1):
        if amp[i] >= amp[i - 1] and amp[i] > amp[i + 1] and amp[i] > floor:
            denom = amp[i - 1] - 2 * amp[i] + amp[i + 1]
            shift = 0.5 * (amp[i - 1] - amp[i + 1]) / denom if denom < 0 else 0.0
            t_peak = ts[i] + np.clip(shift, -1, 1) * step
            out.append((float(t_peak), float(amp[i])))
    return out


class TestScanPeaks:
    @staticmethod
    def _check_against_loop(spectrum, t_range, threshold, monkeypatch, profile=None):
        """scan_peaks against the point-by-point loop on the same profile:
        the computed one, or `profile` cut to the grid's length."""
        seen, grid = [], wave_trace._abs_i_on_grid

        def abs_i(spectrum, t_lo, step, count, sigma, k_ref):
            seen.append(grid(spectrum, t_lo, step, count, sigma, k_ref)
                        if profile is None else profile[:count])
            return seen[-1]

        monkeypatch.setattr(wave_trace, "_abs_i_on_grid", abs_i)
        got = [(c.t0, c.amplitude) for c in scan_peaks(spectrum, t_range, SIGMA, threshold)]
        [amp] = seen
        step = SIGMA / 4
        ts = np.arange(t_range[0], t_range[1] + step / 2, step)
        assert len(ts) == len(amp)
        want = _loop_peaks(amp, ts, step, threshold * wave_trace._background(amp))
        # bit for bit
        assert np.array(got).tobytes() == np.array(want).tobytes()
        return got

    @pytest.mark.parametrize("path", STORED, ids=[p.stem for p in STORED])
    def test_candidates_are_the_loop_ones_on_stored_spectra(self, path, monkeypatch):
        spectrum = _stored_spectrum(path)
        L = fit_invariants(spectrum, t_window=ReconstructConfig().fit_t_window).perimeter
        for threshold in (wave_trace.PEAK_THRESHOLD, 0.0):
            assert self._check_against_loop(spectrum, (SCAN_T_START, L), threshold, monkeypatch)

    def test_candidates_are_the_loop_ones_with_ties_and_plateaus(self, square5000, monkeypatch):
        rng = np.random.default_rng(30)
        for _ in range(200):
            n = int(rng.integers(1, 120))
            levels = rng.integers(0, 4, n).astype(float)  # many equal neighbours
            plateaus = np.repeat(rng.random(n), rng.integers(1, 4, n))[:n]
            for profile in (levels, plateaus, rng.random(n)):
                # a grid of len(profile) points from 1.5 with step SIGMA / 4
                t_range = (1.5, 1.5 + (len(profile) - 1) * SIGMA / 4)
                if len(profile) == 1:
                    t_range = (1.5, 1.51)
                for threshold in (0.0, 1.0, wave_trace.PEAK_THRESHOLD):
                    self._check_against_loop(
                        square5000, t_range, threshold, monkeypatch, profile
                    )

    def test_square_peak_locations(self, square5000):
        cands = scan_peaks(square5000, (1.5, 3.5), SIGMA)
        t0s = sorted(c.t0 for c in cands)
        assert len(t0s) == 2
        assert abs(t0s[0] - 2.0) < 0.05
        assert abs(t0s[1] - 2 * math.sqrt(2)) < 0.05

    def test_empty_spectrum(self):
        # no spectrum to scan is empty: the constructor, and through it the CSV reader, refuse it
        with pytest.raises(DomainError, match="at least one eigenvalue"):
            Spectrum(eigenvalues=np.array([]), boundary_condition=DIRICHLET)
        with pytest.raises(DomainError, match="at least one eigenvalue"):
            Spectrum.from_csv("# bc=D domain=null accuracy=\n")

    def test_bad_range(self, square5000):
        for t_range in ((2.0, 1.0), (0.0, 1.0), (1.5, math.inf), (1.5, math.nan)):
            with pytest.raises(DomainError):
                scan_peaks(square5000, t_range, SIGMA)

    # 1e-300 asks for 1.2e301 grid points and 5e-324 gives a zero step; both
    # are refused before anything is allocated. Widths such as 1e-9, whose
    # grid numpy would try to allocate, are left to test_grid_cap_is_inclusive.
    @pytest.mark.parametrize("sigma", [0.0, -0.1, math.nan, math.inf, 1e-300, 5e-324])
    def test_bad_sigma(self, square5000, sigma):
        with pytest.raises(DomainError):
            scan_peaks(square5000, (1.5, 4.5), sigma)

    def test_grid_cap_is_inclusive(self, square5000, monkeypatch):
        # 1.5 + 40 steps of 0.0375 reaches 3.0: a 41-point grid
        monkeypatch.setattr(wave_trace, "MAX_GRID_POINTS", 41)
        scan_peaks(square5000, (1.5, 3.0), SIGMA)
        monkeypatch.setattr(wave_trace, "MAX_GRID_POINTS", 40)
        with pytest.raises(DomainError, match="more than 40 grid points"):
            scan_peaks(square5000, (1.5, 3.0), SIGMA)

    @pytest.mark.parametrize("threshold", [math.nan, -1.0, math.inf])
    def test_bad_threshold(self, square5000, threshold):
        with pytest.raises(DomainError):
            scan_peaks(square5000, (1.5, 3.5), SIGMA, threshold=threshold)

    def test_zero_threshold_accepted(self, square5000):
        assert len(scan_peaks(square5000, (1.5, 3.5), SIGMA, threshold=0.0)) >= 2


class TestEstimateOrder:
    def test_band_order_half(self, square5000):
        a, ci = estimate_order(square5000, 2.0, SIGMA)
        assert 0.2 <= a <= 0.8
        assert ci < 0.2

    def test_off_length_noise_floor(self, square5000):
        with pytest.raises(NoiseFloor):
            estimate_order(square5000, 1.3, SIGMA)

    @pytest.mark.parametrize("lam", [1e6, 620.0**2], ids=["none", "one"])
    def test_underflowed_profile_is_noise_floor(self, lam):
        # a lone mode far above the order grid: every Gaussian weight of the
        # background underflows to 0, and of |I(k)| all, or all but the top k
        with pytest.raises(NoiseFloor):
            estimate_order(Spectrum(np.array([lam]), DIRICHLET), 2.0, SIGMA)

    def test_separation_from_off_length(self, square5000):
        # off-lengths either vanish into the noise floor or sit well below
        # the band order
        a_on, _ = estimate_order(square5000, 2.0, SIGMA)
        for t0 in (1.3, 2.4, 3.3):
            try:
                a_off, _ = estimate_order(square5000, t0, SIGMA)
            except NoiseFloor:
                continue
            assert a_on - a_off >= 0.4


class TestClassification:
    @pytest.mark.parametrize(
        "order,label",
        [(0.5, "band"), (0.0, "isolated"), (-0.5, "diffractive"), (0.26, "ambiguous")],
    )
    def test_margins(self, order, label):
        c = SingularityCandidate(t0=2.0, amplitude=1.0, estimated_order=order)
        assert classify_candidate(c) == label

    def test_requires_order(self):
        with pytest.raises(DomainError):
            classify_candidate(SingularityCandidate(t0=2.0, amplitude=1.0))
