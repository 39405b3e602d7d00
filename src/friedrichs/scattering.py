"""Stationary scattering data on the real axis.

The model has simple spectrum, so the scattering matrix at energy x is a
single complex number S(x).  It is assembled from the boundary values of
the resolvent couplings in two independent ways:

* directly, as 1 - 2 pi i (gamma [1 - V R(x+i0)] V gamma*) written out in
  the rank-N basis, with the inner resolvent factor X from a linear solve;
* as the ratio D(x-i0)/D(x+i0) of perturbation determinants, which is the
  closed form of the product of rank-one factors.

The two agree to quadrature accuracy and the tests hold them against each
other.  S'(x) is assembled analytically from the second-order boundary
matrices (dX = (I + rL)^{-1} dr (I - L X)); finite differences are kept
out of the production path.

A ScatteringCurve tabulates S, S', the delay density theta' = -i conj(S) S'
and the spectral-shift density on an energy grid with exclusion balls
removed around any point spectrum.  The curve stores the shift density
from the determinant route, (1/pi) Im tr[(I + r1 L)^{-1} r2 L], so the
Birman-Krein residual theta' + 2 pi xi' is a genuine cross-check of two
pipelines, not an identity of the storage format.  The sign convention for
xi is fixed by continuity of arg D along the axis and by that same
agreement requirement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from ._errors import StateNotAdmissible, ToleranceError, ValidationError
from .grid import GridFunction, Representation
from .resolvent import (
    FiniteRankModel,
    PointSpectrum,
    Side,
    _boundary_batch,
    _Projection,
    perturbation_determinant,
)

__all__ = [
    "ScatteringCurve",
    "compute_curve",
    "s_matrix",
    "s_matrix_chain",
    "s_prime",
    "ew_time_delay",
    "apply_scattering",
    "spectral_shift_density",
    "spectral_shift_density_determinant",
    "state_support",
]

_CHUNK = 256
_SUPPORT_REL = 1e-14


# ---------------------------------------------------------------------------
# assembly

def _stationary_batch(model: FiniteRankModel, xs: np.ndarray) -> dict:
    """S, S', the determinant-route shift density and D at a batch of energies.

    Raises PointSpectrumProximity (from the resolvent solve) when any
    energy sits too close to an eigenvalue.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    K = xs.size
    if model.rank == 0:
        return {
            "s": np.ones(K, complex),
            "s_prime": np.zeros(K, complex),
            "xi_det": np.zeros(K),
            "determinant": np.ones(K, complex),
        }
    lam = model.coupling_array()
    N = model.rank
    proj = _Projection(model.grid, xs)
    r1, r2 = _boundary_batch(model, proj, Side.PLUS, (1, 2))

    E = proj.eval_mat
    vm = model.vectors_momentum
    k = model.grid.momentum_nodes()
    vals = E @ vm.T                                    # v_j(x_i), (K, N)
    d1 = E @ (1j * k * vm).T                           # v_j'(x_i)

    A = np.eye(N) + r1 * lam[None, None, :]            # I + r1 Lambda
    D = np.linalg.det(A)
    X = np.linalg.solve(A, r1)
    lamX = lam[None, :, None] * X
    Xp = np.linalg.solve(A, r2 @ (np.eye(N) - lamX))

    wv = lam[None, :] * vals
    wd = lam[None, :] * d1
    diag = np.sum(lam[None, :] * np.abs(vals) ** 2, axis=1)
    quad = np.einsum("ij,ik,ijk->i", wv, wv.conj(), X)
    s = 1.0 - 2j * math.pi * (diag - quad)

    diag_p = 2.0 * np.sum(lam[None, :] * np.real(d1 * vals.conj()), axis=1)
    quad_p = (np.einsum("ij,ik,ijk->i", wd, wv.conj(), X)
              + np.einsum("ij,ik,ijk->i", wv, wd.conj(), X)
              + np.einsum("ij,ik,ijk->i", wv, wv.conj(), Xp))
    s_prime = -2j * math.pi * (diag_p - quad_p)

    Y = np.linalg.solve(A, r2 * lam[None, None, :])
    xi_det = np.einsum("ijj->i", Y).imag / math.pi

    return {
        "s": s,
        "s_prime": s_prime,
        "xi_det": xi_det,
        "determinant": D,
    }


# ---------------------------------------------------------------------------
# scalar operations

def s_matrix(model: FiniteRankModel, x: float) -> complex:
    """Scattering matrix component at energy x, stationary assembly."""
    return complex(_stationary_batch(model, [x])["s"][0])


def s_matrix_chain(model: FiniteRankModel, x: float) -> complex:
    """S(x) as the ratio of perturbation determinants across the cut.

    Both boundary sides are computed honestly, so this shares no Plemelj
    sign with the stationary assembly and serves as its oracle.
    """
    lower = perturbation_determinant(model, x, Side.MINUS)
    upper = perturbation_determinant(model, x, Side.PLUS)
    return complex(lower / upper)


def s_prime(model: FiniteRankModel, x: float) -> complex:
    """Analytic derivative of the scattering matrix at energy x."""
    return complex(_stationary_batch(model, [x])["s_prime"][0])


# ---------------------------------------------------------------------------
# the curve

@dataclass(frozen=True)
class ScatteringCurve:
    """S, S' and the two densities tabulated on an exclusion-aware grid.

    delay_density is theta'(x) = Re[-i conj(S) S']; shift_density is the
    determinant-route xi'(x).  Exclusions are (energy, radius) pairs whose
    balls were removed from the grid; `segments` exposes the contiguous
    runs in between.
    """

    energies: np.ndarray
    s: np.ndarray
    s_prime: np.ndarray
    delay_density: np.ndarray
    shift_density: np.ndarray
    exclusions: tuple = ()
    determinant: np.ndarray | None = None

    def __post_init__(self):
        for name in ("energies", "s", "s_prime", "delay_density",
                     "shift_density", "determinant"):
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.asarray(arr)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n = self.energies.size
        for name in ("s", "s_prime", "delay_density", "shift_density"):
            if getattr(self, name).size != n:
                raise ValidationError(f"curve field {name} has mismatched length")

    def segments(self) -> list:
        """(start, stop) index pairs of gap-free runs of the energy grid."""
        x = self.energies
        if x.size == 0:
            return []
        if x.size == 1:
            return [(0, 1)]
        dx = float(np.median(np.diff(x)))
        breaks = np.nonzero(np.diff(x) > 1.5 * dx)[0]
        starts = np.concatenate(([0], breaks + 1))
        stops = np.concatenate((breaks + 1, [x.size]))
        return [(int(i), int(j)) for i, j in zip(starts, stops)]

    def residuals(self) -> dict:
        """Largest unitarity, delay-reality and Birman-Krein residuals."""
        raw = -1j * np.conj(self.s) * self.s_prime
        return {
            "unitarity_residual": float(np.max(np.abs(np.abs(self.s) - 1.0))),
            "delay_reality_residual": float(np.max(np.abs(raw.imag))),
            "birman_krein_residual": float(np.max(np.abs(
                self.delay_density + 2.0 * math.pi * self.shift_density))),
        }


def _normalize_exclusions(exclusions) -> tuple:
    if exclusions is None:
        return ()
    if isinstance(exclusions, PointSpectrum):
        return tuple(zip([float(e) for e in exclusions.eigenvalues],
                         [float(r) for r in exclusions.radii]))
    out = []
    for item in exclusions:
        e, rad = item
        if not rad > 0:
            raise ValidationError("exclusion radii must be positive")
        out.append((float(e), float(rad)))
    return tuple(out)


def compute_curve(model: FiniteRankModel, span, points: int = 1001,
                  exclusions=()) -> ScatteringCurve:
    """Tabulate the scattering data over span, skipping exclusion balls.

    The construction validates the curve invariants (unitarity, reality of
    the delay density, agreement of the two shift-density routes) and
    raises ToleranceError if the quadrature failed to deliver them.
    """
    a, b = float(span[0]), float(span[1])
    if not a < b:
        raise ValidationError("curve span must be an increasing interval")
    if points < 4:
        raise ValidationError("curve needs at least 4 energy points")
    xs = np.linspace(a, b, int(points))
    excl = _normalize_exclusions(exclusions)
    keep = np.ones(xs.size, dtype=bool)
    for (e, rad) in excl:
        keep &= np.abs(xs - e) > rad
    xs = xs[keep]
    if xs.size < 4:
        raise ValidationError("exclusions leave too few energy points")

    s = np.empty(xs.size, complex)
    sp = np.empty(xs.size, complex)
    xi = np.empty(xs.size)
    det = np.empty(xs.size, complex)
    for lo in range(0, xs.size, _CHUNK):
        sl = slice(lo, lo + _CHUNK)
        out = _stationary_batch(model, xs[sl])
        s[sl] = out["s"]
        sp[sl] = out["s_prime"]
        xi[sl] = out["xi_det"]
        det[sl] = out["determinant"]

    theta = (-1j * s.conj() * sp).real
    curve = ScatteringCurve(xs, s, sp, theta, xi, excl, det)
    res = curve.residuals()
    if res["unitarity_residual"] > 1e-8:
        raise ToleranceError(
            f"unitarity residual {res['unitarity_residual']:.2e} above 1e-08")
    if res["delay_reality_residual"] > 1e-8:
        raise ToleranceError(f"delay-density imaginary part "
                             f"{res['delay_reality_residual']:.2e} above 1e-08")
    if res["birman_krein_residual"] > 1e-6:
        raise ToleranceError(f"delay and shift densities disagree by "
                             f"{res['birman_krein_residual']:.2e} (above 1e-06)")
    return curve


# ---------------------------------------------------------------------------
# acting on states

def state_support(phi: GridFunction, rel: float = _SUPPORT_REL) -> tuple:
    """Smallest closed interval holding every sample above rel * max."""
    if phi.representation is not Representation.POSITION:
        raise StateNotAdmissible("support detection needs a position-representation state")
    amp = np.abs(phi.samples)
    scale = float(amp.max())
    if scale == 0.0:
        raise StateNotAdmissible("zero state has no support")
    idx = np.nonzero(amp > rel * scale)[0]
    x = phi.grid.position_nodes()
    h = phi.grid.spacing
    return (float(x[idx[0]] - 0.5 * h), float(x[idx[-1]] + 0.5 * h))


def _segment_for(curve: ScatteringCurve, a: float, b: float) -> tuple:
    """Index range of the contiguous curve segment containing [a, b]."""
    for (e, rad) in curve.exclusions:
        if e + rad > a and e - rad < b:
            raise StateNotAdmissible(
                f"state support [{a:.4g}, {b:.4g}] meets the excluded energy "
                f"{e:.6g} (radius {rad:.2g})")
    for (i, j) in curve.segments():
        if j - i >= 4 and curve.energies[i] <= a and b <= curve.energies[j - 1]:
            return i, j
    raise StateNotAdmissible(
        f"state support [{a:.4g}, {b:.4g}] is not covered by a contiguous "
        "stretch of the scattering curve")


def ew_time_delay(curve: ScatteringCurve, phi: GridFunction) -> float:
    """Stationary time delay: integral of |phi(x)|^2 theta'(x) over the support."""
    a, b = state_support(phi)
    i, j = _segment_for(curve, a, b)
    spline = CubicSpline(curve.energies[i:j], curve.delay_density[i:j])
    x = phi.grid.position_nodes()
    inside = (x >= a) & (x <= b)
    dens = np.abs(phi.samples[inside]) ** 2
    return float(phi.grid.spacing * np.sum(dens * spline(x[inside])))


def apply_scattering(curve: ScatteringCurve, phi: GridFunction) -> GridFunction:
    """Multiply a state by S(x), interpolated onto its grid.

    Outside the support S is not needed (the samples vanish there) and is
    treated as 1, so the output keeps the input's exact zeros.
    """
    a, b = state_support(phi)
    i, j = _segment_for(curve, a, b)
    xs = curve.energies[i:j]
    re = CubicSpline(xs, curve.s[i:j].real)
    im = CubicSpline(xs, curve.s[i:j].imag)
    x = phi.grid.position_nodes()
    inside = (x >= a) & (x <= b)
    out = np.array(phi.samples, dtype=complex)
    out[inside] *= re(x[inside]) + 1j * im(x[inside])
    return GridFunction(phi.grid, Representation.POSITION, out)


# ---------------------------------------------------------------------------
# spectral shift

def spectral_shift_density(curve: ScatteringCurve) -> np.ndarray:
    """xi'(x) = -theta'(x) / (2 pi) from the curve's delay density."""
    return -curve.delay_density / (2.0 * math.pi)


def spectral_shift_density_determinant(model: FiniteRankModel, xs) -> np.ndarray:
    """xi'(x) from the perturbation determinant's logarithmic derivative.

    Independent of the S-matrix assembly; used to cross-check the sign
    and normalization of the curve densities.
    """
    out = _stationary_batch(model, np.asarray(xs, dtype=float))
    return out["xi_det"]
