"""Momentum localization profiles f used by the sojourn-time functionals.

Admissible profiles are even, bounded by C <x>^-rho with rho > 1, and equal
to one on a plateau (-delta, delta).  Both shipped kinds are one shape, the
even trapezoid: one on |x| <= delta, then a linear ramp to zero at
delta + width, zero beyond.  It is real, nonnegative and compactly
supported, so the decay bound holds for every rho:

  indicator    width = 0: the characteristic function of [-delta, delta]
  smooth_bump  width > 0

The signed antiderivative A(u) = integral_0^u f is closed form, and the
quadratures use it to average f over momentum cells exactly.  Cell
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
    "make_localization",
]


@dataclass(frozen=True)
class LocalizationProfile:
    """Even trapezoid: one on |x| <= delta, zero beyond delta + width."""

    delta: float
    width: float

    def __post_init__(self):
        if not 0.0 < self.delta < math.inf:
            raise ValidationError(
                f"plateau half-width delta must be positive and finite, got {self.delta:g}")
        if not 0.0 <= self.width < math.inf:
            raise ValidationError(
                f"ramp width must be nonnegative and finite, got {self.width:g}")

    @property
    def support_radius(self) -> float:
        return self.delta + self.width

    def __call__(self, x):
        u = np.abs(np.asarray(x, dtype=float))
        if self.width > 0.0:
            return np.clip(1.0 - (u - self.delta) / self.width, 0.0, 1.0)
        return (u <= self.delta).astype(float)

    def antiderivative(self, u):
        """Signed A(u) = integral_0^u f; odd in u, and exactly
        clip(u, -delta, delta) when the ramp has zero width."""
        u = np.asarray(u, dtype=float)
        a = np.abs(u)
        val = np.minimum(a, self.delta)
        if self.width > 0.0:
            t = np.clip(a - self.delta, 0.0, self.width)
            val = val + t - t * t / (2.0 * self.width)
        return np.copysign(val, u)

    def integral(self) -> float:
        return 2.0 * self.delta + self.width

    def window_average(self, lo, hi, r: float = 1.0):
        """Average of f(./r) over [lo, hi], exact via the antiderivative."""
        return r * (self.antiderivative(hi / r) - self.antiderivative(lo / r)) / (hi - lo)


def make_localization(kind: str, *, J=None, delta=None, width=None):
    """Build a validated localization profile.

    indicator:   J = (a, b) with a = -b
    smooth_bump: delta, width, both positive
    """
    if kind == "indicator":
        if J is None:
            raise ValidationError("indicator profile needs J = (a, b)")
        a, b = float(J[0]), float(J[1])
        if not math.isclose(a, -b, rel_tol=0.0, abs_tol=1e-12 * max(1.0, abs(b))):
            raise ValidationError(f"indicator interval must be symmetric, got [{a}, {b}]")
        return LocalizationProfile(b, 0.0)
    if kind == "smooth_bump":
        if delta is None or width is None:
            raise ValidationError("smooth_bump profile needs delta and width")
        f = LocalizationProfile(float(delta), float(width))
        if f.width == 0.0:
            raise ValidationError("smooth_bump ramp width must be positive")
        return f
    raise ValidationError(f"unknown localization kind {kind!r}")
