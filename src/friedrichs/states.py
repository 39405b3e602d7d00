"""Reference state families.

All constructors return position-representation GridFunction values.  The
bump family is windowed hard to its nominal interval (values outside are
set to zero; the window profile is already below 1e-14 there), so compact
support certificates hold exactly.

For propagation-formula experiments two families also carry an analytic
momentum density |(F phi)(k)|^2, a mean and a scale, from which the
closed-form functional reads I_r = 2<P> - cut with no quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermval

from ._errors import ValidationError
from .grid import GridFunction, GridSpec, Representation, norm

__all__ = [
    "gaussian_state",
    "hermite_state",
    "bump_state",
    "momentum_indicator_state",
    "MomentumDensity",
    "gaussian_momentum_density",
    "indicator_momentum_density",
]

# hard-window margin: exp(-34) ~ 1.7e-15 keeps windowed tails under 1e-14
_BUMP_EXPONENT_AT_EDGE = 34.0


def _check_placement(family: str, center: float, width: float, momentum: float = 0.0) -> None:
    """Refuse, by name, a width outside (0, inf) or a non-finite center or momentum."""
    if not 0.0 < width < math.inf:
        raise ValidationError(f"{family} width must be positive and finite, got {width:g}")
    for name, value in (("center", center), ("momentum", momentum)):
        if not math.isfinite(value):
            raise ValidationError(f"{family} {name} must be finite, got {value:g}")


def gaussian_state(grid: GridSpec, center: float = 0.0, width: float = 1.0,
                   momentum: float = 0.0) -> GridFunction:
    """Coherent-state Gaussian, unit L2 norm in the continuum normalization."""
    _check_placement("gaussian", center, width, momentum)
    x = grid.position_nodes()
    u = (x - center) / width
    s = math.pi ** -0.25 / math.sqrt(width) * np.exp(-0.5 * u * u)
    if momentum != 0.0:
        s = s * np.exp(1j * momentum * x)
    return GridFunction(grid, Representation.POSITION, s)


def hermite_state(grid: GridSpec, n: int, center: float = 0.0,
                  width: float = 1.0) -> GridFunction:
    """Orthonormal Hermite function h_n scaled to the given center/width."""
    if n < 0:
        raise ValidationError("hermite index must be nonnegative")
    _check_placement("hermite", center, width)
    x = grid.position_nodes()
    xi = (x - center) / width
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    hn = hermval(xi, coeffs)
    scale = (2.0 ** n * math.factorial(n) * math.sqrt(math.pi) * width) ** -0.5
    s = scale * hn * np.exp(-0.5 * xi * xi)
    return GridFunction(grid, Representation.POSITION, s)


def bump_state(grid: GridSpec, support=(0.25, 0.75)) -> GridFunction:
    """Smooth bump supported on [a, b]: a truncated Gaussian, unit norm.

    The profile is exp(-(u/w)^2), its width set so that it reaches ~1e-15
    at the endpoints, and values outside [a, b] are exactly 0.  A flatter
    super-Gaussian exp(-(u/w)^(2p)) with the same endpoint level would push
    far more content into high momenta (its far tail decays like
    exp(-c |k|^(2p/(2p-1)))).
    """
    a, b = float(support[0]), float(support[1])
    if not -math.inf < a < b < math.inf:
        raise ValidationError(f"bump support must be finite with a < b, got [{a:g}, {b:g}]")
    x = grid.position_nodes()
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    w = half / _BUMP_EXPONENT_AT_EDGE ** 0.5
    s = np.exp(-((x - mid) / w) ** 2)
    s[(x < a) | (x > b)] = 0.0
    phi = GridFunction(grid, Representation.POSITION, s)
    return GridFunction(grid, Representation.POSITION, phi.samples / norm(phi))


def _band(band) -> tuple:
    a, b = float(band[0]), float(band[1])
    if not -math.inf < a < b < math.inf:
        raise ValidationError(f"momentum band must be finite with a < b, got [{a:g}, {b:g}]")
    return a, b


def momentum_indicator_state(grid: GridSpec, band=(1.0, 2.0)) -> GridFunction:
    """State with flat momentum content on [a, b), unit discrete norm."""
    a, b = _band(band)
    k = grid.momentum_nodes()
    s = ((k >= a) & (k < b)).astype(complex)
    if not s.any():
        raise ValidationError("momentum band contains no grid nodes")
    phi = GridFunction(grid, Representation.MOMENTUM, s)
    return GridFunction(grid, Representation.MOMENTUM, phi.samples / norm(phi))


@dataclass(frozen=True)
class MomentumDensity:
    """Analytic |(F phi)(k)|^2 with unit mass, by family: "gaussian" with
    standard deviation `scale`, or "band", flat on mean +- scale; construction
    refuses another family, a non-finite mean or a scale outside (0, inf)."""

    family: str
    mean: float
    scale: float

    def __post_init__(self):
        if self.family not in ("gaussian", "band"):
            raise ValidationError(f"density family must be gaussian or band, got {self.family!r}")
        if not math.isfinite(self.mean):
            raise ValidationError(f"density mean must be finite, got {self.mean:g}")
        if not 0.0 < self.scale < math.inf:
            raise ValidationError(f"density scale must be positive and finite, got {self.scale:g}")


def gaussian_momentum_density(momentum: float = 0.0, width: float = 1.0) -> MomentumDensity:
    """Density of gaussian_state(center, width, momentum); width is in position,
    so the density is N(momentum, 1 / (2 width^2))."""
    w, m = float(width), float(momentum)
    _check_placement("gaussian density", 0.0, w, m)
    return MomentumDensity("gaussian", m, 1.0 / (math.sqrt(2.0) * w))


def indicator_momentum_density(band=(1.0, 2.0)) -> MomentumDensity:
    a, b = _band(band)
    return MomentumDensity("band", 0.5 * (a + b), 0.5 * (b - a))
