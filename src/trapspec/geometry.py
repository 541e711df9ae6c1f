"""Trapezoid parameterization, closed-form invariants, and the orbit catalog.

All angles are radians, all lengths are in the caller's unit. The canonical
parameterization is (B, h, alpha, beta); everything else is derived so that
inconsistent states cannot be constructed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

# Minimum of the angle invariant q over non-obtuse trapezoids, attained
# exactly by rectangles.
Q_RECTANGLE = 8.0 / math.pi**2


def _cross2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """z-component of the cross product of stacked 2-D vectors."""
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def corner_f(x: float) -> float:
    """F(x) = 1 / (x (pi - x)), strictly decreasing on (0, pi/2]."""
    return 1.0 / (x * (math.pi - x))


def corner_f_inverse(v: float) -> float:
    """Inverse of corner_f restricted to (0, pi/2].

    Solves x (pi - x) = 1/v for the root <= pi/2. Requires v >= 4/pi^2.
    """
    if v < 4.0 / math.pi**2 - 1e-15:
        raise DomainError(f"corner_f_inverse: value {v} below minimum 4/pi^2")
    disc = max(math.pi**2 - 4.0 / v, 0.0)
    # rationalized small root of x(pi - x) = 1/v; avoids cancellation
    return (2.0 / v) / (math.pi + math.sqrt(disc))


@dataclass(frozen=True)
class Polygon:
    """Simple polygon given by counterclockwise vertices, shape (n, 2)."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or len(v) < 3:
            raise DomainError("polygon needs an (n, 2) vertex array, n >= 3")
        if not np.isfinite(v).all():
            raise DomainError("polygon vertices must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        if self.signed_area() <= 0:
            raise DomainError("polygon vertices must be counterclockwise")

    def signed_area(self) -> float:
        v = self.vertices
        x, y = v[:, 0], v[:, 1]
        return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))

    @property
    def area(self) -> float:
        return self.signed_area()

    @property
    def perimeter(self) -> float:
        d = np.roll(self.vertices, -1, axis=0) - self.vertices
        return float(np.sum(np.hypot(d[:, 0], d[:, 1])))

    def edges(self) -> np.ndarray:
        """Edge segments as an (n, 2, 2) array; edge k runs v_k -> v_{k+1}."""
        return np.stack([self.vertices, np.roll(self.vertices, -1, axis=0)], axis=1)

    def interior_angles(self) -> np.ndarray:
        v = self.vertices
        prev = np.roll(v, 1, axis=0) - v
        nxt = np.roll(v, -1, axis=0) - v
        ang = np.arctan2(_cross2(nxt, prev), np.einsum("ij,ij->i", nxt, prev))
        return np.where(ang < 0, ang + 2 * math.pi, ang)

    def is_convex(self) -> bool:
        d = np.roll(self.vertices, -1, axis=0) - self.vertices
        cr = _cross2(d, np.roll(d, -1, axis=0))
        return bool(np.all(cr > -1e-12 * np.max(np.abs(cr))))

    @property
    def diameter(self) -> float:
        v = self.vertices
        return float(np.max(np.hypot(*(v[:, None, :] - v[None, :, :]).transpose(2, 0, 1))))


def heat_corner_sum(polygon: Polygon) -> float:
    """Corner contribution to the small-time heat trace: sum (pi^2-th^2)/(24 pi th)."""
    th = polygon.interior_angles()
    return float(np.sum((math.pi**2 - th**2) / (24 * math.pi * th)))


@dataclass(frozen=True)
class Trapezoid:
    """Non-obtuse trapezoid with base B, height h, base angles beta <= alpha <= pi/2.

    Derived quantities (top side b, legs, area, perimeter) are computed once
    and validated at construction.
    """

    B: float
    h: float
    alpha: float
    beta: float
    b: float = field(init=False)
    leg_left: float = field(init=False)
    leg_right: float = field(init=False)
    area: float = field(init=False)
    perimeter: float = field(init=False)

    def __post_init__(self):
        B, h, alpha, beta = self.B, self.h, self.alpha, self.beta
        if not (0 < B < math.inf and 0 < h < math.inf):
            raise DomainError("B and h must be positive and finite")
        if not (0 < beta <= alpha <= math.pi / 2 + 1e-15):
            raise DomainError("base angles must satisfy 0 < beta <= alpha <= pi/2")
        b = B - h * (_cot(alpha) + _cot(beta))
        if b <= 0:
            raise DomainError(f"trapezoid degenerates: derived top side b = {b} <= 0")
        if b > B + 1e-12 * B:
            raise DomainError("derived top side exceeds the base")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "leg_left", h / math.sin(alpha))
        object.__setattr__(self, "leg_right", h / math.sin(beta))
        object.__setattr__(self, "area", h * (B + b) / 2.0)
        object.__setattr__(
            self, "perimeter", B + b + h * (1 / math.sin(alpha) + 1 / math.sin(beta))
        )

    def to_json(self) -> str:
        return json.dumps({"B": self.B, "h": self.h, "alpha": self.alpha, "beta": self.beta})

    @classmethod
    def from_json(cls, text: str) -> "Trapezoid":
        d = json.loads(text)
        return cls(B=d["B"], h=d["h"], alpha=d["alpha"], beta=d["beta"])


def _cot(x: float) -> float:
    return math.cos(x) / math.sin(x)


def new_trapezoid(B: float, h: float, alpha: float, beta: float) -> Trapezoid:
    """Construct and validate a non-obtuse trapezoid."""
    return Trapezoid(B=B, h=h, alpha=alpha, beta=beta)


def vertices(t: Trapezoid) -> Polygon:
    """Counterclockwise vertex polygon: base-left, base-right, top-right, top-left.

    Edge indices: 0 base, 1 right leg, 2 top, 3 left leg.
    """
    B, h = t.B, t.h
    return Polygon(
        np.array(
            [
                [0.0, 0.0],
                [B, 0.0],
                [B - h * _cot(t.beta), h],
                [h * _cot(t.alpha), h],
            ]
        )
    )


@dataclass(frozen=True)
class AngleInvariant:
    q: float

    def __post_init__(self):
        if self.q < Q_RECTANGLE - 1e-12:
            raise DomainError("angle invariant below the rectangle minimum 8/pi^2")


def angle_invariant(t: Trapezoid) -> AngleInvariant:
    """q = F(alpha) + F(beta); q >= 8/pi^2 with equality only for rectangles."""
    return AngleInvariant(q=corner_f(t.alpha) + corner_f(t.beta))


@dataclass(frozen=True)
class FagnanoOrbit:
    length: float  # 2 B sin(alpha) sin(beta)
    exists_inside: bool
    degenerate: bool  # alpha = pi/2: collapses into the 2 h_alpha orbit


@dataclass(frozen=True)
class HAlphaOrbit:
    length: float  # 2 B sin(beta)
    exists_inside: bool


@dataclass(frozen=True)
class OrbitCatalog:
    """Closed-form catalog of the named short orbits of a trapezoid."""

    two_h: float
    two_b: float
    fagnano: FagnanoOrbit
    two_h_alpha: HAlphaOrbit


def orbit_catalog(t: Trapezoid) -> OrbitCatalog:
    """Evaluate the closed-form orbit catalog.

    Fagnano orbit: exists inside the trapezoid iff the extended triangle is
    acute (alpha + beta >= pi/2) and h >= B sin(beta) cos(beta); at equality
    it touches a top vertex and is diffractive. For alpha = pi/2 the orbit is
    degenerate and coincides with the 2 h_alpha orbit (both 2 B sin beta).
    """
    B, h, alpha, beta = t.B, t.h, t.alpha, t.beta
    h_threshold = B * math.sin(beta) * math.cos(beta)
    acute = alpha + beta >= math.pi / 2 - 1e-15
    return OrbitCatalog(
        two_h=2 * h,
        two_b=2 * t.b,
        fagnano=FagnanoOrbit(
            length=2 * B * math.sin(alpha) * math.sin(beta),
            exists_inside=bool(acute and h >= h_threshold - 1e-15),
            degenerate=abs(alpha - math.pi / 2) < 1e-12,
        ),
        two_h_alpha=HAlphaOrbit(
            length=2 * B * math.sin(beta),
            # altitude foot lands on the right leg iff B cos(beta) <= leg length
            exists_inside=bool(h >= h_threshold - 1e-15),
        ),
    )


def random_trapezoid(
    rng: np.random.Generator,
    height_fraction: tuple[float, float] = (0.15, 0.95),
) -> Trapezoid:
    """Sample a valid random non-obtuse trapezoid away from degeneracies.

    Heights are drawn as a fraction of the largest height keeping b > 0, so
    every sample is a valid trapezoid. Angles are at least 0.35 rad and the
    base lies in [0.8, 3].
    """
    beta = rng.uniform(0.35, math.pi / 2)
    alpha = rng.uniform(beta, math.pi / 2)
    B = rng.uniform(0.8, 3.0)
    cots = _cot(alpha) + _cot(beta)
    h_cap = B / cots if cots > 1e-12 else 2.0 * B
    h = rng.uniform(*height_fraction) * h_cap
    return Trapezoid(B=B, h=h, alpha=alpha, beta=beta)
