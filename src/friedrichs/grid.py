"""Uniform periodic discretization of the line and the unitary transform.

Position samples live at x_i = -L + i*h, i = 0..M-1, with h = 2L/M and M a
power of two.  The conjugate momentum grid k_j = j*pi/L (j = -M/2..M/2-1,
stored in ascending order) covers [-pi/h, pi/h).  transform() realizes the
symmetric-normalization Fourier transform

    (F phi)(k) = (2 pi)^(-1/2) * integral exp(-i k x) phi(x) dx

as a phase-shifted FFT; it is exactly unitary between the discrete inner
products with weights h (position) and pi/L (momentum), so Parseval holds to
round-off and round trips are exact.

States are immutable GridFunction values.  Off-grid evaluation uses the
trigonometric (band-limited) interpolant, which reproduces grid samples
exactly and is the discrete version of the pointwise restriction operator
phi -> phi(tau); that operator is bounded on states with Sobolev exponent
s > 1/2 and Hoelder continuous of order s - 1/2 for s in (1/2, 3/2).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from ._errors import StateNotAdmissible, ValidationError

__all__ = [
    "Representation",
    "GridSpec",
    "GridFunction",
    "CompactSupportCertificate",
    "make_grid",
    "grid_function",
    "transform",
    "inner_product",
    "norm",
    "sobolev_norm",
    "evaluate_at",
    "evaluate_many",
    "derivative",
    "boundary_decay",
    "certify_support",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_EDGE_NODES = 8  # nodes a side that boundary_decay reads
_SUPPORT_TOL = 1e-14  # largest sample outside a certified support, relative


class Representation(enum.Enum):
    POSITION = "position"
    MOMENTUM = "momentum"


@dataclass(frozen=True)
class GridSpec:
    """Box half-width L and sample count M (power of two, >= 4)."""

    half_width: float
    points: int

    def __post_init__(self):
        if not (self.half_width > 0.0 and math.isfinite(self.half_width)):
            raise ValidationError("grid half_width must be positive and finite")
        m = self.points
        if m < 4 or (m & (m - 1)) != 0:
            raise ValidationError("grid points must be a power of two, at least 4")

    @property
    def spacing(self) -> float:
        # exact in binary arithmetic since points is a power of two
        return 2.0 * self.half_width / self.points

    @property
    def momentum_spacing(self) -> float:
        return math.pi / self.half_width

    @property
    def momentum_cutoff(self) -> float:
        """Half-width pi/h of the momentum grid."""
        return math.pi / self.spacing

    def position_nodes(self) -> np.ndarray:
        x = -self.half_width + self.spacing * np.arange(self.points)
        x.setflags(write=False)
        return x

    def momentum_nodes(self) -> np.ndarray:
        k = self.momentum_spacing * np.arange(-self.points // 2, self.points // 2)
        k.setflags(write=False)
        return k

    def weight(self, representation: "Representation") -> float:
        if representation is Representation.POSITION:
            return self.spacing
        return self.momentum_spacing


def make_grid(half_width: float, points: int) -> GridSpec:
    """Validated constructor, kept as a function for symmetry with the ops."""
    return GridSpec(half_width, points)


@dataclass(frozen=True)
class GridFunction:
    """Immutable sampled state: grid, representation tag, complex samples."""

    grid: GridSpec
    representation: Representation
    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.complex128)
        if s.shape != (self.grid.points,):
            raise ValidationError(
                f"samples shape {s.shape} does not match grid size {self.grid.points}"
            )
        s = s.copy()
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    def __array__(self, dtype=None):
        return np.asarray(self.samples, dtype=dtype)


def grid_function(grid: GridSpec, samples, representation=Representation.POSITION) -> GridFunction:
    return GridFunction(grid, representation, samples)


def transform(phi: GridFunction) -> GridFunction:
    """Map between representations; unitary, self-inverse up to round-off."""
    g = phi.grid
    if phi.representation is Representation.POSITION:
        scale = g.spacing / _SQRT_2PI
        out = scale * np.fft.fftshift(np.fft.fft(np.fft.ifftshift(phi.samples)))
        return GridFunction(g, Representation.MOMENTUM, out)
    scale = _SQRT_2PI / g.spacing
    out = scale * np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(phi.samples)))
    return GridFunction(g, Representation.POSITION, out)


def _as_momentum(phi: GridFunction) -> np.ndarray:
    if phi.representation is Representation.MOMENTUM:
        return phi.samples
    return transform(phi).samples


def inner_product(phi: GridFunction, psi: GridFunction) -> complex:
    """Discrete <phi, psi>, conjugate-linear in the first argument."""
    if phi.grid != psi.grid:
        raise ValidationError("inner_product: grid mismatch")
    if phi.representation is not psi.representation:
        raise ValidationError("inner_product: representation mismatch")
    w = phi.grid.weight(phi.representation)
    return complex(w * np.vdot(phi.samples, psi.samples))


def norm(phi: GridFunction) -> float:
    w = phi.grid.weight(phi.representation)
    return float(math.sqrt(w) * np.linalg.norm(phi.samples))


def sobolev_norm(phi: GridFunction, s: float = 0.0) -> float:
    """Momentum-weighted norm ||<P>^s phi|| with <u> = (1 + u^2)^(1/2).

    With s = 0 this is exactly the plain discrete L2 norm.
    """
    if s == 0.0:
        return norm(phi)
    g = phi.grid
    k = g.momentum_nodes()
    return norm(GridFunction(g, Representation.MOMENTUM,
                             _as_momentum(phi) * (1.0 + k * k) ** (s / 2.0)))


def evaluation_matrix(grid: GridSpec, taus) -> np.ndarray:
    """(len(taus), M) matrix mapping momentum coefficients to point values.

    Rows are scaled plane waves, so `mat @ _as_momentum(phi)` is the
    band-limited interpolant of phi at the taus; exact at grid nodes.
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    inside = np.abs(taus) < grid.half_width                 # false for NaN too
    if not inside.all():
        raise ValidationError(f"evaluation point {taus[~inside][0]:g} outside (-L, L)")
    k = grid.momentum_nodes()
    return (grid.momentum_spacing / _SQRT_2PI) * np.exp(1j * np.outer(taus, k))


def evaluate_many(phi: GridFunction, taus) -> np.ndarray:
    """Band-limited interpolant of a position-representation state.

    Exact at grid nodes.  Cost O(M) per point; taus may be an array.
    """
    if phi.representation is not Representation.POSITION:
        raise ValidationError("evaluate_at expects a position-representation state")
    return evaluation_matrix(phi.grid, taus) @ _as_momentum(phi)


def evaluate_at(phi: GridFunction, tau: float) -> complex:
    return complex(evaluate_many(phi, [tau])[0])


def derivative(phi: GridFunction, order: int = 1) -> GridFunction:
    """Spectral derivative; requires boundary-decayed smooth samples."""
    if order < 0:
        raise ValidationError("derivative order must be nonnegative")
    if order == 0:
        return phi
    g = phi.grid
    coeff = _as_momentum(phi)
    k = g.momentum_nodes()
    dcoeff = (1j * k) ** order * coeff
    out = transform(GridFunction(g, Representation.MOMENTUM, dcoeff))
    if phi.representation is Representation.MOMENTUM:
        return transform(out)
    return out


def boundary_decay(phi: GridFunction) -> float:
    """Largest |sample| among the outermost _EDGE_NODES nodes on each side."""
    s = np.abs(phi.samples)
    return float(max(s[:_EDGE_NODES].max(), s[-_EDGE_NODES:].max()))


@dataclass(frozen=True)
class CompactSupportCertificate:
    """Witness that a state is admissible for the time-delay machinery.

    support:   closed interval [a, b] outside of which samples vanish
    exponent:  Sobolev exponent s the state was checked at
    sobolev:   the finite value of the weighted norm
    excluded:  (eigenvalue, radius) pairs the support must avoid
    """

    support: tuple
    exponent: float
    sobolev: float
    excluded: tuple = field(default=())


def certify_support(phi: GridFunction, support, s: float = 3.0,
                    excluded=()) -> CompactSupportCertificate:
    """Check support, smoothness and spectral exclusions; raise if any fails."""
    if phi.representation is not Representation.POSITION:
        raise StateNotAdmissible("certificate requires a position-representation state")
    a, b = float(support[0]), float(support[1])
    g = phi.grid
    if not (-g.half_width < a < b < g.half_width):
        raise StateNotAdmissible("support interval must lie strictly inside (-L, L)")
    x = g.position_nodes()
    outside = (x < a) | (x > b)
    worst = float(np.abs(phi.samples[outside]).max()) if outside.any() else 0.0
    scale = float(np.abs(phi.samples).max())
    if scale == 0.0:
        raise StateNotAdmissible("zero state cannot be certified")
    if worst > _SUPPORT_TOL * scale:
        raise StateNotAdmissible(
            f"samples outside [{a}, {b}] reach {worst:.3e}, above {_SUPPORT_TOL:.1e} relative")
    for (e, radius) in excluded:
        if a - radius < e < b + radius:
            raise StateNotAdmissible(
                f"support [{a}, {b}] meets excluded energy {e} (radius {radius})")
    value = sobolev_norm(phi, s)
    if not math.isfinite(value):
        raise StateNotAdmissible(f"Sobolev norm at s = {s} is not finite")
    return CompactSupportCertificate((a, b), s, value, tuple(excluded))
