"""Truncated heat trace and small-time fits of area, perimeter, corner constant.

The three-coefficient model is value(t) = A/(4 pi t) -+ L/(8 sqrt(pi t)) + K
(minus for Dirichlet, plus for Neumann). For trapezoids K = (pi^2/24) q - 1/12,
so the angle invariant is read off the fitted constant.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IllConditionedFit, TruncationWarning, WindowTooNarrow
from .eigensolver import DIRICHLET, Spectrum

TAIL_WARN_FRACTION = 1e-6
TAIL_FIT_FRACTION = 1e-8
CONDITION_CAP = 1e12
MAX_GRID_SIZE = 1000  # desk-scale cap on the fit grid, 25x the default 40


@dataclass
class HeatInvariants:
    area: float
    perimeter: float
    corner_constant: float  # K, the t-independent term
    q_estimate: float  # (24 K + 2) / pi^2 (trapezoid corner-sum identity)
    fit_residual: float  # weighted RMS residual
    t_window: tuple[float, float]

    def to_dict(self) -> dict:
        return {
            "area": self.area,
            "perimeter": self.perimeter,
            "K": self.corner_constant,
            "q": self.q_estimate,
            "residual": self.fit_residual,
            "tWindow": list(self.t_window),
        }


def weyl_tail_bound(spectrum: Spectrum, t: np.ndarray | float) -> np.ndarray | float:
    """Estimated truncation tail sum_{k>N} e^(-t lambda_k).

    Uses the Weyl density A/(4 pi) with A estimated from the spectrum itself:
    integral_{lambda_N}^inf (A/4pi) e^(-t lambda) d lambda = (N/lambda_N) e^(-t lambda_N)/t.
    """
    lam_n = spectrum.eigenvalues[-1]
    n = spectrum.count
    return (n / lam_n) * np.exp(-np.asarray(t) * lam_n) / np.asarray(t)


def _partial_sums(spectrum: Spectrum, t: np.ndarray) -> np.ndarray:
    """sum_k e^(-t lambda_k) at each t of a 1-D array."""
    return np.exp(-np.outer(t, spectrum.eigenvalues)).sum(axis=1)


def heat_trace_partial(spectrum: Spectrum, t: np.ndarray | float) -> np.ndarray | float:
    """Truncated heat trace sum_k e^(-t lambda_k); warns when the tail matters."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr <= 0):
        raise ValueError("t must be positive")
    vals = _partial_sums(spectrum, t_arr)
    tails = weyl_tail_bound(spectrum, t_arr)
    if np.any(tails > TAIL_WARN_FRACTION * vals):
        worst = float(np.max(tails / vals))
        warnings.warn(
            f"truncation tail up to {worst:.2e} of the heat trace value",
            TruncationWarning,
            stacklevel=2,
        )
    return vals if np.ndim(t) else float(vals[0])


def default_t_window(spectrum: Spectrum) -> tuple[float, float]:
    lam_n = float(spectrum.eigenvalues[-1])
    if not lam_n > 0:
        raise DomainError(f"a fit window needs a positive top eigenvalue, got {lam_n}")
    t_min = max(10.0 / lam_n, 1e-4)
    t_max = 40.0 / lam_n
    return (max(t_min, 1e-4), min(max(t_max, 2 * t_min), 1e-1))


def fit_invariants(
    spectrum: Spectrum,
    t_window: tuple[float, float] | None = None,
    grid_size: int = 40,
) -> HeatInvariants:
    """Weighted least-squares fit of the small-time heat trace expansion.

    The window's lower end is pushed up until the Weyl tail estimate is below
    1e-8 of the trace value there; the adjusted window is recorded in the
    result. Weights are proportional to t, equalizing relative error across
    the geometric t-grid, which holds grid_size times: at least 20, and at
    most MAX_GRID_SIZE, since each time sums over every eigenvalue.
    """
    if not 20 <= grid_size <= MAX_GRID_SIZE:
        raise ValueError(f"grid_size must be between 20 and {MAX_GRID_SIZE}, got {grid_size}")
    if t_window is None:
        t_window = default_t_window(spectrum)
    t_min, t_max = t_window
    if not (0 < t_min < t_max < math.inf):
        raise WindowTooNarrow(f"invalid window ({float(t_min)}, {float(t_max)})")

    # auto-shrink: enforce the truncation-tail precondition at t_min
    for _ in range(200):
        val = _partial_sums(spectrum, np.array([t_min]))[0]
        if weyl_tail_bound(spectrum, t_min) <= TAIL_FIT_FRACTION * val:
            break
        t_min *= 1.1
        if t_min >= t_max / 1.5:
            raise WindowTooNarrow(
                "window collapsed while enforcing the truncation-tail bound"
            )

    ts = np.geomspace(t_min, t_max, grid_size)
    y = _partial_sums(spectrum, ts)

    sign = -1.0 if spectrum.boundary_condition == DIRICHLET else 1.0
    design = np.column_stack(
        [1.0 / (4 * math.pi * ts), sign / (8 * np.sqrt(math.pi * ts)), np.ones_like(ts)]
    )
    w = np.sqrt(ts)
    dw = design * w[:, None]
    yw = y * w
    # lstsq's singular values give the 2-norm condition number: no second SVD
    coef, _, _, sv = np.linalg.lstsq(dw, yw, rcond=None)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
    if cond > CONDITION_CAP:
        raise IllConditionedFit(f"design matrix condition number {cond:.3g}")
    resid = dw @ coef - yw
    area = float(coef[0])
    perimeter = float(coef[1])
    corner = float(coef[2])
    return HeatInvariants(
        area=area,
        perimeter=perimeter,
        corner_constant=corner,
        q_estimate=(24 * corner + 2) / math.pi**2,
        fit_residual=float(np.sqrt(np.mean(resid**2))),
        t_window=(float(t_min), float(t_max)),
    )
