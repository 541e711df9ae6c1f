"""Gaussian-windowed wave-trace probes: singularity detection and order estimates.

Pairing the wave trace with a Gaussian window centered at t0 gives the
closed-form frequency profile

    I(k) = sigma sqrt(2 pi) * sum_j exp(i (sqrt(lam_j) - k) t0)
                                * exp(-sigma^2 (sqrt(lam_j) - k)^2 / 2),

which grows like k^a when t0 is a singularity of order a. Orders separate
orbit classes: +1/2 for bands, 0 for isolated odd-period orbits, negative
for diffractive lengths.

Both sums are evaluated from factored phases. A profile over T uniform
times splits each time index into a block of about sqrt(T) steps and an
offset within it. Two complex exponentials per eigenvalue give the first
phase and the one-step factor z; running products give the rows z^j, the
one-block factor z^b from the last of them, and the block rows, and one
small complex matrix product sums them, instead of T N exponentials. A
profile over K frequencies uses exp(i (mu - k) t0) = exp(i mu t0)
exp(-i k t0): N + K complex exponentials, summed against a real K x N
Gaussian matrix as two real matrix-vector products. An order estimate
needs one complex exponential per eigenvalue: with d = mu - k_mid, its 81
background times t0 (1/2 + j/80) and its |I(k)| at t0 all follow from
z = exp(i (t0/80) d) by running products (z^40 starts the grid, z^80 is
the phase of |I(k)|). All of these agree with the direct sums within 1e-12
of the profile's maximum. Against an 80-bit direct sum the time profile is
off by 0.5-1.5e-14 of its maximum on the pipeline's grids (81 to 170 times)
and 1-3e-13 at 2000, as much as a float64 direct sum: the error comes from
rounding the phases t d, not from the running products.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoiseFloor
from .eigensolver import Spectrum

CLASS_MARGIN = 0.25
AMBIGUITY_BAND = 0.05  # distance to a class boundary that triggers "ambiguous"
DEFAULT_SIGMA = 0.15  # window width when none is configured
PEAK_THRESHOLD = 5.0  # scan peaks must exceed this multiple of the background
MAX_GRID_POINTS = 10**6  # desk-scale cap on a scan grid; the pipeline's hold 80-170


@dataclass
class SingularityProbe:
    t0: float
    sigma: float
    k: np.ndarray
    values: np.ndarray  # complex I(k)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(f"# t0={self.t0:.17g} sigma={self.sigma:.17g}\n")
        buf.write("k,absI,argI\n")
        for kk, v in zip(self.k, self.values):
            buf.write(f"{kk:.17g},{abs(v):.17g},{np.angle(v):.17g}\n")
        return buf.getvalue()


@dataclass
class SingularityCandidate:
    t0: float
    amplitude: float  # |I| at the reference frequency
    estimated_order: float | None = None
    order_ci: float | None = None
    matched_orbit: str | None = None

    def to_dict(self) -> dict:
        return {
            "t0": self.t0,
            "amplitude": self.amplitude,
            "order": self.estimated_order,
            "orderCi": self.order_ci,
            "clamped": False,  # kept for format stability; orders are never clamped
            "matchedOrbit": self.matched_orbit,
        }


def order_frequencies(spectrum: Spectrum) -> np.ndarray:
    """The k-grid of an order estimate: 30 geometric steps over [0.15, 0.6] sqrt(lambda_N)."""
    lam_n = float(spectrum.eigenvalues[-1])
    if not lam_n > 0:
        raise DomainError(f"order frequencies need a positive top eigenvalue, got {lam_n}")
    k_max = math.sqrt(lam_n)
    lo, hi = 0.15 * k_max, 0.6 * k_max
    # np.geomspace(lo, hi, 30) bit for bit, without its general-purpose setup
    a, b = np.log10(lo), np.log10(hi)
    ks = np.power(10.0, np.arange(30.0) * ((b - a) / 29) + a)
    ks[0], ks[-1] = lo, hi
    return ks


def _gauss_sums(mu: np.ndarray, ks: np.ndarray, sigma: float, phase: np.ndarray):
    """Real and imaginary parts of sum_j exp(-sigma^2 (mu_j - k)^2 / 2) phase_j at each k.

    The K x N Gaussian is built in one buffer and applied as two real
    matrix-vector products, which skips the complex copy of it that a
    complex product makes.
    """
    gauss = np.empty((len(ks), len(mu)))
    np.subtract(mu, ks[:, None], out=gauss)
    gauss *= gauss
    gauss *= -0.5 * sigma**2
    np.exp(gauss, out=gauss)
    return gauss @ phase.real, gauss @ phase.imag


def probe(spectrum: Spectrum, t0: float, sigma: float, k_list) -> SingularityProbe:
    """Windowed wave-trace profile I(k) at candidate time t0 (closed form)."""
    if not (0 < sigma < math.inf and 0 < t0 < math.inf):
        raise DomainError("sigma and t0 must be positive and finite")
    ks = np.atleast_1d(np.asarray(k_list, dtype=float))
    if not np.all(np.isfinite(ks)):
        raise DomainError("every k must be finite")
    mu = np.sqrt(spectrum.eigenvalues)
    re, im = _gauss_sums(mu, ks, sigma, np.exp(1j * mu * t0))
    vals = sigma * math.sqrt(2 * math.pi) * np.exp(-1j * ks * t0) * (re + 1j * im)
    return SingularityProbe(t0=t0, sigma=sigma, k=ks, values=vals)


def _background(amplitudes: np.ndarray) -> float:
    """Off-peak reference level for a sampled |I| profile.

    Peaks are wide at desk-scale sigma, so a plain median is contaminated by
    their shoulders; the lower quartile is not. Exact spectra cancel almost
    perfectly off-peak, which would make any relative threshold vacuous, so
    the floor is kept at no less than 1/1000 of the profile's maximum.
    """
    vals = np.asarray(amplitudes, dtype=float)
    # np.quantile(vals, 0.25) with its "linear" rule, from the two order
    # statistics it reads: bit-identical, without its sort-and-index setup
    pos = 0.25 * (len(vals) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(vals) - 1)
    part = np.partition(vals, (lo, hi))
    a, b = float(part[lo]), float(part[hi])
    g = pos - lo
    quartile = a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g)
    return max(quartile, float(vals.max()) / 1000.0)


def _running_powers(first, ratio: np.ndarray, rows: int) -> np.ndarray:
    """(rows x N) complex array whose row j is first * ratio**j, by running products.

    Row by row: np.multiply.accumulate along axis 0 builds the same rows, up
    to rounding, but took 4-6 times as long for 9-13 rows of 800 modes.
    """
    out = np.empty((rows, len(ratio)), dtype=complex)
    out[0] = first
    for j in range(1, rows):
        np.multiply(out[j - 1], ratio, out=out[j])
    return out


def _grid_sums(first: np.ndarray, z: np.ndarray, count: int) -> np.ndarray:
    """sum_j first_j z_j^k for k < count, as one (nb x N) @ (N x b) product.

    Each index is split as k = a * b + j with b = isqrt(count): the rows z^j
    and first * Z^a, with Z = z^b taken from the last row of z^j, are
    running products, whose error stays below that of rounding the phases
    t d (see the module docstring).
    """
    b = math.isqrt(count)
    nb = -(-count // b)
    inner = _running_powers(1.0, z, b)
    outer = _running_powers(first, inner[-1] * z, nb)
    return (outer @ inner.T).ravel()[:count]


def _abs_i_on_grid(
    spectrum: Spectrum, t_lo: float, step: float, count: int, sigma: float, k_ref: float
):
    """|I(k_ref)| at the times t_lo + k * step, k < count.

    With d = mu - k_ref, exp(i t_k d) = exp(i t_lo d) z^k for z = exp(i step d):
    two complex exponentials per mode, summed by `_grid_sums`.
    """
    d = np.sqrt(spectrum.eigenvalues) - k_ref
    first = np.exp(-0.5 * sigma**2 * d**2) * np.exp(1j * t_lo * d)
    z = np.exp(1j * step * d)
    return sigma * math.sqrt(2 * math.pi) * np.abs(_grid_sums(first, z, count))


def scan_peaks(
    spectrum: Spectrum,
    t_range: tuple[float, float],
    sigma: float,
    threshold: float = PEAK_THRESHOLD,
) -> list[SingularityCandidate]:
    """Local maxima of |I(k_ref)| over a t-grid, above threshold x background.

    k_ref is half of sqrt(lambda_N) and the grid step is sigma/4; a grid of
    more than MAX_GRID_POINTS times is refused before anything is allocated.
    """
    t_lo, t_hi = t_range
    if not (0 < t_lo < t_hi < math.inf):
        raise DomainError("t_range must be positive, finite and increasing")
    if not 0 < sigma < math.inf:
        raise DomainError("sigma must be positive and finite")
    if not 0 <= threshold < math.inf:
        raise DomainError("threshold must be finite and non-negative")
    step = sigma / 4.0
    # np.arange below holds ceil((t_hi + step/2 - t_lo) / step) points
    if not (step > 0 and (t_hi + step / 2 - t_lo) / step <= MAX_GRID_POINTS):
        raise DomainError(
            f"a step of sigma/4 = {step:.3g} over {t_range} needs more than "
            f"{MAX_GRID_POINTS} grid points"
        )
    k_ref = 0.5 * math.sqrt(spectrum.eigenvalues[-1])
    ts = np.arange(t_lo, t_hi + step / 2, step)
    amp = _abs_i_on_grid(spectrum, t_lo, step, len(ts), sigma, k_ref)
    floor = threshold * _background(amp)
    mid = amp[1:-1]
    peak = (mid >= amp[:-2]) & (mid > amp[2:]) & (mid > floor)
    out = []
    for i in np.flatnonzero(peak) + 1:
        # parabolic sub-grid refinement of the peak location
        denom = amp[i - 1] - 2 * amp[i] + amp[i + 1]
        shift = 0.5 * (amp[i - 1] - amp[i + 1]) / denom if denom < 0 else 0.0
        t_peak = ts[i] + np.clip(shift, -1, 1) * step
        out.append(SingularityCandidate(t0=float(t_peak), amplitude=float(amp[i])))
    return out


def _order_profiles(
    spectrum: Spectrum, t0: float, sigma: float, ks: np.ndarray, k_mid: float
) -> tuple[np.ndarray, np.ndarray]:
    """|I(k)| at t0 for each k of ks, and |I(k_mid)| at the 81 times t0 * (1/2 + j/80).

    One complex exponential per mode: with d = mu - k_mid and
    z = exp(i (t0/80) d), the background grid starts at z^40 = exp(i t0 d/2)
    and steps by z, and z^80 = exp(i t0 d) is the profile's phase, since
    exp(i t0 k_mid) and exp(-i k t0) have modulus 1.
    """
    mu = np.sqrt(spectrum.eigenvalues)
    d = mu - k_mid
    z = np.exp(1j * (t0 / 80) * d)
    z8 = z * z
    z8 *= z8
    z8 *= z8  # z^8
    half = z8 * z8
    half *= half
    half *= z8  # z^40 = exp(i t0 d / 2)
    scale = sigma * math.sqrt(2 * math.pi)
    re, im = _gauss_sums(mu, ks, sigma, half * half)
    first = np.exp(-0.5 * sigma**2 * d**2) * half
    return scale * np.hypot(re, im), scale * np.abs(_grid_sums(first, z, 81))


def estimate_order(spectrum: Spectrum, t0: float, sigma: float) -> tuple[float, float]:
    """Singularity order at t0: log-log slope of |I(k)| with its 2-SE interval.

    |I(k)| is sampled on `order_frequencies`; the slope and its standard
    error are the closed-form least-squares line through (log k, log |I|).
    Raises NoiseFloor when the profile never rises above ten times the
    off-peak background, measured as the lower quartile of |I(k_mid)| over
    81 times spanning t0 * [0.5, 1.5] (see `_background`), or when fewer
    than two of its values are positive.
    """
    if not (0 < sigma < math.inf and 0 < t0 < math.inf):
        raise DomainError("sigma and t0 must be positive and finite")
    ks = order_frequencies(spectrum)
    lo, hi = float(ks[0]), float(ks[-1])
    amp, grid = _order_profiles(spectrum, t0, sigma, ks, math.sqrt(lo * hi))
    off = _background(grid)
    mask = amp > 0
    if np.all(amp < 10 * off) or np.count_nonzero(mask) < 2:
        raise NoiseFloor(
            f"|I| below 10x the off-peak background throughout {(lo, hi)}"
        )
    x = np.log(ks[mask])
    y = np.log(amp[mask])
    x -= x.sum() / len(x)
    y -= y.sum() / len(y)
    sxx = float(x @ x)
    slope = float(x @ y) / sxx
    resid = y - slope * x
    dof = max(len(x) - 2, 1)
    return slope, 2 * math.sqrt(float(resid @ resid) / dof / sxx)


def classify_candidate(candidate: SingularityCandidate) -> str:
    """Orbit-class label from the estimated order.

    Returns "band" (a > 0.25), "isolated" (|a| <= 0.25), "diffractive"
    (a < -0.25), or "ambiguous" when the estimate sits within 0.05 of a
    class boundary — a tie is surfaced, never guessed.
    """
    if candidate.estimated_order is None:
        raise DomainError("candidate has no estimated order")
    a = candidate.estimated_order
    for boundary in (CLASS_MARGIN, -CLASS_MARGIN):
        if abs(a - boundary) < AMBIGUITY_BAND:
            return "ambiguous"
    if a > CLASS_MARGIN:
        return "band"
    if a >= -CLASS_MARGIN:
        return "isolated"
    return "diffractive"
