"""Stationary scattering data on the real axis.

The model has simple spectrum, so the scattering matrix at energy x is a
single complex number S(x).  It is assembled from the boundary values of
the resolvent couplings in two independent ways:

* directly, as 1 - 2 pi i (gamma [1 - V R(x+i0)] V gamma*) written out in
  the rank-N basis, with the inner resolvent factor X from a linear solve;
* as the ratio D(x-i0)/D(x+i0) of perturbation determinants, which is the
  closed form of the product of rank-one factors.  Both sides come from one
  evaluation row and one line sum at x; each reads its own half of the pair
  coefficients, and neither is formed from the other by the jump formula.

The two agree to quadrature accuracy and the tests hold them against each
other.  S'(x) is assembled analytically from the second-order boundary
matrices (dX = (I + rL)^{-1} dr (I - L X)); finite differences are kept
out of the production path.

A ScatteringCurve tabulates S, S', the delay density theta' = -i conj(S) S'
and the spectral-shift density on an energy grid with exclusion balls
removed around any point spectrum, and carries the model it was computed
from.  The curve stores the shift density from the determinant route,
(1/pi) Im tr[(I + r1 L)^{-1} r2 L], so the Birman-Krein residual
theta' + 2 pi xi' is a genuine cross-check of two pipelines, not an
identity of the storage format.  The sign convention for xi is fixed by
continuity of arg D along the axis and by that same agreement requirement.

ew_time_delay and apply_scattering do not read the table: they evaluate
S and theta' from the curve's model at the grid nodes of the state's
support, so nothing is interpolated.  The curve still supplies the model
and the exclusion balls a state's support must avoid.  The same batch at
those nodes, one dense block at a time, also gives the stationary W- phi,
the time sweep's check on Cook's integral that shares no code with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._errors import StateNotAdmissible, ToleranceError, ValidationError
from .grid import GridFunction, Representation
from .resolvent import (
    FiniteRankModel,
    PointSpectrum,
    Side,
    _boundary_batch,
    _ChirpProjection,
    _cut_determinants,
    _dense_blocks,
    _projection_mask,
    _refuse_point_spectrum,
    perturbation_determinant,  # noqa: F401  unused; perfbench's install test reads it here
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

_SUPPORT_REL = 1e-14


# ---------------------------------------------------------------------------
# assembly

def _stationary_batch(model: FiniteRankModel, proj, xs, keep=slice(None)) -> dict:
    """S, S', the delay density theta' = Re[-i conj(S) S'], the
    determinant-route shift density and X = <v, R(x + i0) v> (the rank-N
    solve, (K, N, N)) at the energies xs[keep]: xs are the
    energies proj reads (a _Projection or a _ChirpProjection), and only
    the rows keep selects reach a solve.

    Raises PointSpectrumProximity, naming the energy, where |D(x + i0)|
    falls below the resolvent's floor.
    """
    lam = model.coupling_array()
    N = model.rank
    r1, r2 = (r[keep] for r in _boundary_batch(model, proj, Side.PLUS, (1, 2)))
    vm = model.vectors_momentum
    k = model.grid.momentum_nodes()
    vals = proj.periodic(vm.T)[keep]                   # v_j(x_i), (K, N)
    d1 = proj.periodic((1j * k * vm).T)[keep]          # v_j'(x_i)

    A = np.eye(N) + r1 * lam[None, None, :]            # I + r1 Lambda
    _refuse_point_spectrum(xs[keep], np.linalg.det(A))
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
    sp = -2j * math.pi * (diag_p - quad_p)

    Y = np.linalg.solve(A, r2 * lam[None, None, :])
    return {"s": s, "s_prime": sp, "delay": (-1j * s.conj() * sp).real,
            "xi_det": np.einsum("ijj->i", Y).imag / math.pi, "X": X}


def _joined(parts: list) -> dict:
    return {key: np.concatenate([p[key] for p in parts]) for key in parts[0]}


def _stationary_at(model: FiniteRankModel, xs) -> dict:
    """_stationary_batch at arbitrary energies, one dense block at a time."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    return _joined([_stationary_batch(model, proj, xs[rows])
                    for rows, proj in _dense_blocks(model.grid, xs)])


# ---------------------------------------------------------------------------
# scalar operations

def s_matrix(model: FiniteRankModel, x: float) -> complex:
    """Scattering matrix component at energy x, stationary assembly."""
    return complex(_stationary_at(model, [x])["s"][0])


def s_matrix_chain(model: FiniteRankModel, x: float) -> complex:
    """S(x) as the ratio D(x - i0)/D(x + i0) of perturbation determinants.

    One evaluation row and one line sum at x serve both sides, each reading
    its own half of the pair coefficients and neither using the jump
    formula, so this shares no Plemelj sign with the stationary assembly and
    serves as its oracle.  It refuses point spectrum as s_matrix does.
    """
    lower, upper = _cut_determinants(model, x)
    _refuse_point_spectrum([x], [upper])
    return lower / upper


def s_prime(model: FiniteRankModel, x: float) -> complex:
    """Analytic derivative of the scattering matrix at energy x."""
    return complex(_stationary_at(model, [x])["s_prime"][0])


# ---------------------------------------------------------------------------
# the curve

@dataclass(frozen=True)
class ScatteringCurve:
    """S, S' and the two densities tabulated on an exclusion-aware grid.

    delay_density is theta'(x) = Re[-i conj(S) S']; shift_density is the
    determinant-route xi'(x).  model is the model the table was computed
    from; exclusions are (energy, radius) pairs whose balls were removed
    from the grid.
    """

    model: FiniteRankModel
    energies: np.ndarray
    s: np.ndarray
    s_prime: np.ndarray
    delay_density: np.ndarray
    shift_density: np.ndarray
    exclusions: tuple = ()

    def __post_init__(self):
        for name in ("energies", "s", "s_prime", "delay_density", "shift_density"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n = self.energies.size
        for name in ("s", "s_prime", "delay_density", "shift_density"):
            if getattr(self, name).size != n:
                raise ValidationError(f"curve field {name} has mismatched length")

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

    One chirp-z projection reads the whole uniform grid; the rows inside an
    exclusion ball are dropped before the solve, so an energy at an
    eigenvalue never reaches it.  The construction validates the curve
    invariants (unitarity, reality of the delay density, agreement of the
    two shift-density routes) and raises ToleranceError if the quadrature
    failed to deliver them.
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
    if np.count_nonzero(keep) < 4:
        raise ValidationError("exclusions leave too few energy points")

    out = _stationary_batch(model, _ChirpProjection(model.grid, a, b, xs.size), xs, keep)
    curve = ScatteringCurve(model, xs[keep], out["s"], out["s_prime"], out["delay"],
                            out["xi_det"], excl)
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

def state_support(phi: GridFunction) -> tuple:
    """Smallest closed interval holding every sample above _SUPPORT_REL * max."""
    if phi.representation is not Representation.POSITION:
        raise StateNotAdmissible("support detection needs a position-representation state")
    amp = np.abs(phi.samples)
    scale = float(amp.max())
    if scale == 0.0:
        raise StateNotAdmissible("zero state has no support")
    idx = np.nonzero(amp > _SUPPORT_REL * scale)[0]
    x = phi.grid.position_nodes()
    h = phi.grid.spacing
    return (float(x[idx[0]] - 0.5 * h), float(x[idx[-1]] + 0.5 * h))


def _support_nodes(phi: GridFunction, exclusions=()) -> np.ndarray:
    """Indices of phi's grid nodes inside state_support(phi).

    Raises StateNotAdmissible when the support meets one of the
    (energy, radius) exclusion balls.
    """
    a, b = state_support(phi)
    for (e, rad) in exclusions:
        if e + rad > a and e - rad < b:
            raise StateNotAdmissible(
                f"state support [{a:.4g}, {b:.4g}] meets the excluded energy "
                f"{e:.6g} (radius {rad:.2g})")
    x = phi.grid.position_nodes()
    return np.flatnonzero((x >= a) & (x <= b))


def _state_scattering(model: FiniteRankModel, phi: GridFunction, exclusions) -> tuple:
    """(apply_scattering, ew_time_delay, sum of |phi(x)|^2 xi'(x) h with the
    determinant-route xi', the stationary W- phi) from one stationary batch
    at phi's support nodes, which must avoid the exclusion balls.

    W- phi = phi - int dE phi(E) R(E + i0) V delta_E needs no time integral
    (Friedrichs, Comm. Pure Appl. Math. 1 (1948) 361; Yafaev, Mathematical
    Scattering Theory, ch. 2).  With the batch's X at the nodes E,

        W- phi(x) = phi(x) - sum_k v_k(x) int a_k(E) / (x - E - i0) dE,
        a_k(E)    = phi(E) sum_j (delta_kj - lambda_k X_kj) lambda_j conj v_j(E),

    and the E-integral is -r_a(x - i0) at every node: the periodic part by
    one FFT, the line sum through the kernel of each block's projection.
    """
    g, lam, vm = phi.grid, model.coupling_array(), model.vector_matrix()
    on = _support_nodes(phi, exclusions)
    xs, phi_on = g.position_nodes()[on], phi.samples[on]
    w = vm[:, on].T.conj() * lam                            # (n, N): lambda_j conj v_j(E)
    amp = np.zeros((g.points, model.rank), dtype=complex)
    line, parts = np.zeros_like(amp), []
    for rows, proj in _dense_blocks(g, xs):
        parts.append(_stationary_batch(model, proj, xs[rows]))
        Xw = np.einsum("ekj,ej->ek", parts[-1]["X"], w[rows])
        amp[on[rows]] = a = phi_on[rows, None] * (w[rows] - lam * Xw)
        line += (proj.kernel.T @ a.view(float)).view(complex)
    data = _joined(parts)
    coeffs = np.fft.fft(np.fft.ifftshift(amp, axes=0), axis=0)    # unshifted momentum order
    mask = np.fft.ifftshift(_projection_mask(g, Side.MINUS))[:, None]
    periodic = np.fft.fftshift(np.fft.ifft(mask * coeffs, axis=0), axes=0)
    w_phi = phi.samples + np.sum(vm.T * (2j * math.pi * periodic - line), axis=1)
    h, weight = g.spacing, np.abs(phi_on) ** 2
    out = np.array(phi.samples, dtype=complex)
    out[on] *= data["s"]
    return (GridFunction(g, Representation.POSITION, out),
            float(h * np.sum(weight * data["delay"])), float(h * np.sum(weight * data["xi_det"])),
            GridFunction(g, Representation.POSITION, w_phi))


def ew_time_delay(curve: ScatteringCurve, phi: GridFunction) -> float:
    """Stationary time delay: sum of |phi(x)|^2 theta'(x) h over the support
    nodes, with theta' from the curve's model at each node."""
    return _state_scattering(curve.model, phi, curve.exclusions)[1]


def apply_scattering(curve: ScatteringCurve, phi: GridFunction) -> GridFunction:
    """Multiply a state by S(x), from the curve's model at its support nodes.

    Outside the support S is not needed (the samples vanish there) and is
    treated as 1, so the output keeps the input's exact zeros.
    """
    return _state_scattering(curve.model, phi, curve.exclusions)[0]


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
    return _stationary_at(model, xs)["xi_det"]
