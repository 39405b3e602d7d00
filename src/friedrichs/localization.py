"""Momentum localization profiles f used by the sojourn-time functionals.

Admissible profiles are even, bounded by C <x>^-rho with rho > 1, and equal
to one on a plateau (-delta, delta).  Two closed-form families are shipped:

  indicator    characteristic function of a symmetric interval [-b, b]
  smooth_bump  plateau on (-delta, delta), linear ramp to zero at
               delta + width, zero beyond; rho is the declared decay
               exponent (witnessed trivially by the compact support)

plus a custom wrapper for user callables, which may be complex valued; those
are admitted only by the propagation functional, not by the sojourn times
(which require f >= 0).

All families expose the signed antiderivative A(u) = integral_0^u f, which
the quadratures use to average f over momentum cells exactly.  Cell
averaging preserves the total integral of f exactly, which keeps the
identity T0_r = r ||phi||^2 integral(f) alive after discretization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from ._errors import ValidationError

__all__ = [
    "LocalizationProfile",
    "IndicatorProfile",
    "SmoothBumpProfile",
    "CustomProfile",
    "make_localization",
    "localization_integral",
]


class LocalizationProfile:
    """Common interface: call, antiderivative, integral, window averages."""

    kind = "abstract"
    nonnegative = True
    delta = 0.0
    rho = math.inf
    support_radius = math.inf

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

    kind = "indicator"

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
    decay: float

    kind = "smooth_bump"

    def __post_init__(self):
        if self.plateau <= 0:
            raise ValidationError("smooth_bump plateau half-width delta must be positive")
        if self.width <= 0:
            raise ValidationError("smooth_bump ramp width must be positive")
        if self.decay <= 1:
            raise ValidationError("smooth_bump decay exponent rho must exceed 1")

    @property
    def delta(self):
        return self.plateau

    @property
    def rho(self):
        return self.decay

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


class CustomProfile(LocalizationProfile):
    """User-supplied profile; evenness and plateau are spot-checked."""

    kind = "custom"

    def __init__(self, fn, delta, rho, nonnegative=False, support_radius=math.inf):
        if delta <= 0:
            raise ValidationError("custom profile plateau delta must be positive")
        if rho <= 1:
            raise ValidationError("custom profile decay exponent rho must exceed 1")
        self._fn = fn
        self._delta = float(delta)
        self._rho = float(rho)
        self.nonnegative = bool(nonnegative)
        self._support_radius = float(support_radius)
        probe = np.array([0.3, 1.7, 4.9]) * delta
        left = np.asarray(fn(-probe), dtype=complex)
        right = np.asarray(fn(probe), dtype=complex)
        if np.abs(left - right).max() > 1e-10 * (1.0 + np.abs(right).max()):
            raise ValidationError("custom profile is not even")
        inside = np.asarray(fn(np.array([0.0, 0.5 * delta, 0.99 * delta])), dtype=complex)
        if np.abs(inside - 1.0).max() > 1e-10:
            raise ValidationError("custom profile must equal 1 on the plateau")

    @property
    def delta(self):
        return self._delta

    @property
    def rho(self):
        return self._rho

    @property
    def support_radius(self):
        return self._support_radius

    def __call__(self, x):
        return np.asarray(self._fn(np.asarray(x, dtype=float)), dtype=complex)

    def antiderivative(self, u):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        out = np.empty(u.shape, dtype=complex)
        for i, ui in enumerate(u.ravel()):
            hi = math.copysign(min(abs(ui), self._support_radius), ui)
            re = quad(lambda s: np.real(self._fn(s)), 0.0, hi, limit=200)[0]
            im = quad(lambda s: np.imag(self._fn(s)), 0.0, hi, limit=200)[0]
            out.ravel()[i] = re + 1j * im
        return out if out.size > 1 else out.reshape(u.shape)

    def integral(self):
        if math.isfinite(self._support_radius):
            val = self.antiderivative(np.array([self._support_radius]))[0]
        else:
            re = quad(lambda s: np.real(self._fn(s)), 0.0, np.inf, limit=400)[0]
            im = quad(lambda s: np.imag(self._fn(s)), 0.0, np.inf, limit=400)[0]
            val = re + 1j * im
        val = 2.0 * val
        return float(np.real(val)) if abs(np.imag(val)) < 1e-14 else complex(val)


def make_localization(kind: str, *, J=None, delta=None, width=None, rho=None,
                      fn=None, nonnegative=False, support_radius=math.inf):
    """Build a validated localization profile.

    indicator:   J = (a, b) with a = -b
    smooth_bump: delta, width, rho
    custom:      fn, delta, rho, optionally nonnegative / support_radius
    """
    if kind == "indicator":
        if J is None:
            raise ValidationError("indicator profile needs J = (a, b)")
        a, b = float(J[0]), float(J[1])
        if not math.isclose(a, -b, rel_tol=0.0, abs_tol=1e-12 * max(1.0, abs(b))):
            raise ValidationError(f"indicator interval must be symmetric, got [{a}, {b}]")
        return IndicatorProfile(b)
    if kind == "smooth_bump":
        if delta is None or width is None or rho is None:
            raise ValidationError("smooth_bump profile needs delta, width and rho")
        return SmoothBumpProfile(float(delta), float(width), float(rho))
    if kind == "custom":
        if fn is None or delta is None or rho is None:
            raise ValidationError("custom profile needs fn, delta and rho")
        return CustomProfile(fn, delta, rho, nonnegative, support_radius)
    raise ValidationError(f"unknown localization kind {kind!r}")


def localization_integral(profile: LocalizationProfile):
    """integral of f over the line; closed form for the shipped families."""
    return profile.integral()
