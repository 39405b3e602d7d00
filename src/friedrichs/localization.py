"""Momentum localization profiles f used by the sojourn-time functionals.

Admissible profiles are even, bounded by C <x>^-rho with rho > 1, and equal
to one on a plateau (-delta, delta).  Two closed-form families are shipped,
both real, nonnegative and compactly supported, so the decay bound holds
for every rho:

  indicator    characteristic function of a symmetric interval [-b, b]
  smooth_bump  plateau on (-delta, delta), linear ramp to zero at
               delta + width, zero beyond

Both expose the signed antiderivative A(u) = integral_0^u f in closed form,
which the quadratures use to average f over momentum cells exactly.  Cell
averaging preserves the total integral of f exactly, which keeps the
identity T0_r = r ||phi||^2 integral(f) alive after discretization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._errors import ValidationError

__all__ = [
    "LocalizationProfile",
    "IndicatorProfile",
    "SmoothBumpProfile",
    "make_localization",
]


class LocalizationProfile:
    """Common interface: call, antiderivative, integral, window averages.

    A family also defines its plateau half-width delta and the finite
    support_radius beyond which it vanishes.
    """

    def __call__(self, x):
        raise NotImplementedError

    def antiderivative(self, u):
        """Signed A(u) = integral_0^u f; odd in u for even f."""
        raise NotImplementedError

    def integral(self) -> float:
        raise NotImplementedError

    def window_average(self, lo, hi, r: float = 1.0):
        """Average of f(./r) over [lo, hi], exact via the antiderivative."""
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        return r * (self.antiderivative(hi / r) - self.antiderivative(lo / r)) / (hi - lo)


@dataclass(frozen=True)
class IndicatorProfile(LocalizationProfile):
    half_width: float

    def __post_init__(self):
        if not (self.half_width > 0 and math.isfinite(self.half_width)):
            raise ValidationError("indicator interval must be bounded with positive width")

    @property
    def delta(self):
        return self.half_width

    @property
    def support_radius(self):
        return self.half_width

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return (np.abs(x) <= self.half_width).astype(float)

    def antiderivative(self, u):
        return np.clip(np.asarray(u, dtype=float), -self.half_width, self.half_width)

    def integral(self):
        return 2.0 * self.half_width


@dataclass(frozen=True)
class SmoothBumpProfile(LocalizationProfile):
    plateau: float
    width: float

    def __post_init__(self):
        if self.plateau <= 0:
            raise ValidationError("smooth_bump plateau half-width delta must be positive")
        if self.width <= 0:
            raise ValidationError("smooth_bump ramp width must be positive")

    @property
    def delta(self):
        return self.plateau

    @property
    def support_radius(self):
        return self.plateau + self.width

    def __call__(self, x):
        u = np.abs(np.asarray(x, dtype=float))
        ramp = 1.0 - (u - self.plateau) / self.width
        return np.clip(np.minimum(1.0, ramp), 0.0, 1.0)

    def antiderivative(self, u):
        u = np.asarray(u, dtype=float)
        a = np.abs(u)
        d, w = self.plateau, self.width
        t = np.clip(a - d, 0.0, w)
        val = np.minimum(a, d) + t - t * t / (2.0 * w)
        return np.sign(u) * val

    def integral(self):
        return 2.0 * self.plateau + self.width


def make_localization(kind: str, *, J=None, delta=None, width=None):
    """Build a validated localization profile.

    indicator:   J = (a, b) with a = -b
    smooth_bump: delta, width
    """
    if kind == "indicator":
        if J is None:
            raise ValidationError("indicator profile needs J = (a, b)")
        a, b = float(J[0]), float(J[1])
        if not math.isclose(a, -b, rel_tol=0.0, abs_tol=1e-12 * max(1.0, abs(b))):
            raise ValidationError(f"indicator interval must be symmetric, got [{a}, {b}]")
        return IndicatorProfile(b)
    if kind == "smooth_bump":
        if delta is None or width is None:
            raise ValidationError("smooth_bump profile needs delta and width")
        return SmoothBumpProfile(float(delta), float(width))
    raise ValidationError(f"unknown localization kind {kind!r}")
