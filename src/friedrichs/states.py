"""Reference state families.

All constructors return position-representation GridFunction values.  The
bump family is windowed hard to its nominal interval (values outside are
set to zero; the window profile is already below 1e-14 there), so compact
support certificates hold exactly.

For propagation-formula experiments two families also carry an analytic
momentum density |(F phi)(k)|^2, which the closed-form functional can
integrate without grid error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def gaussian_state(grid: GridSpec, center: float = 0.0, width: float = 1.0,
                   momentum: float = 0.0) -> GridFunction:
    """Coherent-state Gaussian, unit L2 norm in the continuum normalization."""
    if width <= 0:
        raise ValidationError("gaussian width must be positive")
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
    if width <= 0:
        raise ValidationError("hermite width must be positive")
    x = grid.position_nodes()
    xi = (x - center) / width
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    hn = np.polynomial.hermite.hermval(xi, coeffs)
    scale = (2.0 ** n * math.factorial(n) * math.sqrt(math.pi) * width) ** -0.5
    s = scale * hn * np.exp(-0.5 * xi * xi)
    return GridFunction(grid, Representation.POSITION, s)


def bump_state(grid: GridSpec, support=(0.25, 0.75), power: int = 1) -> GridFunction:
    """Smooth bump supported on [a, b]: a super-Gaussian window, unit norm.

    power p gives exp(-(u/w)^(2p)); the width is set so the profile reaches
    ~1e-15 at the endpoints, and values outside [a, b] are exactly 0.
    Larger p flattens the top but, with the endpoint level pinned, pushes
    far more content into high momenta (the far tail decays like
    exp(-c |k|^(2p/(2p-1))), slowest for large p), so the default stays
    with the plain truncated Gaussian.
    """
    a, b = float(support[0]), float(support[1])
    if not (b > a):
        raise ValidationError("bump support must satisfy a < b")
    if power < 1:
        raise ValidationError("bump power must be a positive integer")
    x = grid.position_nodes()
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    w = half / _BUMP_EXPONENT_AT_EDGE ** (1.0 / (2 * power))
    s = np.exp(-((x - mid) / w) ** (2 * power))
    s[(x < a) | (x > b)] = 0.0
    phi = GridFunction(grid, Representation.POSITION, s)
    return GridFunction(grid, Representation.POSITION, phi.samples / norm(phi))


def momentum_indicator_state(grid: GridSpec, band=(1.0, 2.0)) -> GridFunction:
    """State with flat momentum content on [a, b), unit discrete norm."""
    a, b = float(band[0]), float(band[1])
    if not (b > a):
        raise ValidationError("momentum band must satisfy a < b")
    k = grid.momentum_nodes()
    s = ((k >= a) & (k < b)).astype(complex)
    if not s.any():
        raise ValidationError("momentum band contains no grid nodes")
    phi = GridFunction(grid, Representation.MOMENTUM, s)
    return GridFunction(grid, Representation.MOMENTUM, phi.samples / norm(phi))


@dataclass(frozen=True)
class MomentumDensity:
    """Analytic |(F phi)(k)|^2 with unit mass: density, support, first moment."""

    fn: object
    support: tuple
    mean: float

    def __call__(self, k):
        return self.fn(np.asarray(k, dtype=float))


def gaussian_momentum_density(momentum: float = 0.0, width: float = 1.0) -> MomentumDensity:
    """Density of gaussian_state(center, width, momentum); width is in position."""
    w = float(width)

    def dens(k):
        return w / math.sqrt(math.pi) * np.exp(-(w * (k - momentum)) ** 2)

    return MomentumDensity(dens, (-math.inf, math.inf), float(momentum))


def indicator_momentum_density(band=(1.0, 2.0)) -> MomentumDensity:
    a, b = float(band[0]), float(band[1])
    if not (b > a):
        raise ValidationError("momentum band must satisfy a < b")
    c = 1.0 / (b - a)

    def dens(k):
        k = np.asarray(k, dtype=float)
        return np.where((k >= a) & (k <= b), c, 0.0)

    return MomentumDensity(dens, (a, b), 0.5 * (a + b))
