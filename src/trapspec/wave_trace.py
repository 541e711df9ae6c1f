"""Gaussian-windowed wave-trace probes: singularity detection and order estimates.

Pairing the wave trace with a Gaussian window centered at t0 gives the
closed-form frequency profile

    I(k) = sigma sqrt(2 pi) * sum_j exp(i (sqrt(lam_j) - k) t0)
                                * exp(-sigma^2 (sqrt(lam_j) - k)^2 / 2),

which grows like k^a when t0 is a singularity of order a. Orders separate
orbit classes: +1/2 for bands, 0 for isolated odd-period orbits, negative
for diffractive lengths.

Both sums are evaluated from factored phases, each a product of at most two
directly evaluated exponentials, so the rounding error does not grow with
the grid length. A profile over T uniform times splits each time index into
a block of about sqrt(T) steps and an offset within it: about 2 sqrt(T) N
complex exponentials and one small complex matrix product instead of T N
exponentials. A profile over K frequencies uses
exp(i (mu - k) t0) = exp(i mu t0) exp(-i k t0): N + K complex exponentials
and one real K x N Gaussian matrix. Both agree with the direct sums within
1e-12 of the profile's maximum, the size of either evaluation's own
rounding error where the sum cancels.
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
    k_max = math.sqrt(spectrum.eigenvalues[-1])
    return np.geomspace(0.15 * k_max, 0.6 * k_max, 30)


def probe(spectrum: Spectrum, t0: float, sigma: float, k_list) -> SingularityProbe:
    """Windowed wave-trace profile I(k) at candidate time t0 (closed form)."""
    if not (0 < sigma < math.inf and 0 < t0 < math.inf):
        raise DomainError("sigma and t0 must be positive and finite")
    ks = np.atleast_1d(np.asarray(k_list, dtype=float))
    if not np.all(np.isfinite(ks)):
        raise DomainError("every k must be finite")
    mu = np.sqrt(spectrum.eigenvalues)
    gauss = np.exp(-0.5 * sigma**2 * (mu[None, :] - ks[:, None]) ** 2)
    vals = (
        sigma
        * math.sqrt(2 * math.pi)
        * np.exp(-1j * ks * t0)
        * (gauss @ np.exp(1j * mu * t0))
    )
    return SingularityProbe(t0=t0, sigma=sigma, k=ks, values=vals)


def _background(amplitudes: np.ndarray) -> float:
    """Off-peak reference level for a sampled |I| profile.

    Peaks are wide at desk-scale sigma, so a plain median is contaminated by
    their shoulders; the lower quartile is not. Exact spectra cancel almost
    perfectly off-peak, which would make any relative threshold vacuous, so
    the floor is kept at no less than 1/1000 of the profile's maximum.
    """
    vals = np.asarray(amplitudes, dtype=float)
    return max(float(np.quantile(vals, 0.25)), float(vals.max()) / 1000.0)


def _abs_i_on_grid(
    spectrum: Spectrum, t_lo: float, step: float, count: int, sigma: float, k_ref: float
):
    """|I(k_ref)| at the times t_lo + k * step, k < count.

    Each index is split as k = a * b + j with b = isqrt(count), so
    exp(i t_k d) = exp(i (t_lo + a b step) d) * exp(i j step d) and the
    profile is one (nb x N) @ (N x b) product of directly evaluated phases.
    """
    mu = np.sqrt(spectrum.eigenvalues)
    d = mu - k_ref
    gauss = np.exp(-0.5 * sigma**2 * d**2)
    b = math.isqrt(count)
    nb = -(-count // b)
    outer = gauss * np.exp(1j * np.outer(t_lo + b * np.arange(nb) * step, d))
    inner = np.exp(1j * np.outer(np.arange(b) * step, d))
    sums = (outer @ inner.T).ravel()[:count]
    return sigma * math.sqrt(2 * math.pi) * np.abs(sums)


def scan_peaks(
    spectrum: Spectrum,
    t_range: tuple[float, float],
    sigma: float,
    threshold: float = PEAK_THRESHOLD,
) -> list[SingularityCandidate]:
    """Local maxima of |I(k_ref)| over a t-grid, above threshold x background.

    k_ref is half of sqrt(lambda_N) and the grid step is sigma/4.
    """
    t_lo, t_hi = t_range
    if not (0 < t_lo < t_hi):
        raise DomainError("t_range must be positive and increasing")
    if not 0 < sigma < math.inf:
        raise DomainError("sigma must be positive and finite")
    if not 0 <= threshold < math.inf:
        raise DomainError("threshold must be finite and non-negative")
    if spectrum.count == 0:
        return []
    k_ref = 0.5 * math.sqrt(spectrum.eigenvalues[-1])
    step = sigma / 4.0
    ts = np.arange(t_lo, t_hi + step / 2, step)
    amp = _abs_i_on_grid(spectrum, t_lo, step, len(ts), sigma, k_ref)
    floor = threshold * _background(amp)
    out = []
    for i in range(1, len(ts) - 1):
        if amp[i] >= amp[i - 1] and amp[i] > amp[i + 1] and amp[i] > floor:
            # parabolic sub-grid refinement of the peak location
            denom = amp[i - 1] - 2 * amp[i] + amp[i + 1]
            shift = 0.5 * (amp[i - 1] - amp[i + 1]) / denom if denom < 0 else 0.0
            t_peak = ts[i] + np.clip(shift, -1, 1) * step
            out.append(SingularityCandidate(t0=float(t_peak), amplitude=float(amp[i])))
    return out


def estimate_order(spectrum: Spectrum, t0: float, sigma: float) -> tuple[float, float]:
    """Singularity order at t0: log-log slope of |I(k)| with its 2-SE interval.

    |I(k)| is sampled on `order_frequencies`. Raises NoiseFloor when the
    profile never rises above ten times the off-peak background, measured as
    the lower-half median of |I(k_mid)| over the surrounding stretch
    t0 * [0.5, 1.5].
    """
    ks = order_frequencies(spectrum)
    lo, hi = float(ks[0]), float(ks[-1])
    amp = np.abs(probe(spectrum, t0, sigma, ks).values)
    k_mid = math.sqrt(lo * hi)
    off = _background(_abs_i_on_grid(spectrum, 0.5 * t0, t0 / 80, 81, sigma, k_mid))
    if np.all(amp < 10 * off):
        raise NoiseFloor(
            f"|I| below 10x the off-peak background throughout {(lo, hi)}"
        )
    mask = amp > 0
    x = np.log(ks[mask])
    y = np.log(amp[mask])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = max(len(x) - 2, 1)
    se = math.sqrt(float(resid @ resid) / dof / float(((x - x.mean()) ** 2).sum()))
    return float(slope), float(2 * se)


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
