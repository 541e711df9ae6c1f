import math

import numpy as np
import pytest

from trapspec.eigensolver import DIRICHLET, Spectrum, exact_rectangle_spectrum
from trapspec.errors import DomainError, NoiseFloor
from trapspec.wave_trace import (
    SingularityCandidate,
    classify_candidate,
    estimate_order,
    probe,
    scan_peaks,
)

SIGMA = 0.15


@pytest.fixture(scope="module")
def square5000():
    return exact_rectangle_spectrum(1, 1, 5000)


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

    def test_csv_export(self, square5000):
        text = probe(square5000, 2.0, SIGMA, [40.0, 50.0]).to_csv()
        assert text.startswith("# t0=")
        assert len(text.strip().splitlines()) == 4


class TestScanPeaks:
    def test_square_peak_locations(self, square5000):
        cands = scan_peaks(square5000, (1.5, 3.5), SIGMA)
        t0s = sorted(c.t0 for c in cands)
        assert len(t0s) == 2
        assert abs(t0s[0] - 2.0) < 0.05
        assert abs(t0s[1] - 2 * math.sqrt(2)) < 0.05

    def test_empty_spectrum(self):
        s = Spectrum(eigenvalues=np.array([]), boundary_condition=DIRICHLET)
        assert scan_peaks(s, (1.0, 2.0), SIGMA) == []

    def test_bad_range(self, square5000):
        with pytest.raises(DomainError):
            scan_peaks(square5000, (2.0, 1.0), SIGMA)

    @pytest.mark.parametrize("sigma", [0.0, -0.1, math.nan])
    def test_bad_sigma(self, square5000, sigma):
        with pytest.raises(DomainError):
            scan_peaks(square5000, (1.5, 3.5), sigma)


class TestEstimateOrder:
    def test_band_order_half(self, square5000):
        a, ci = estimate_order(square5000, 2.0, SIGMA)
        assert 0.2 <= a <= 0.8
        assert ci < 0.2

    def test_off_length_noise_floor(self, square5000):
        with pytest.raises(NoiseFloor):
            estimate_order(square5000, 1.3, SIGMA)

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
