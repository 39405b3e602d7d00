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
those nodes also gives the stationary W- phi, the time sweep's check on
Cook's integral that shares no code with it.  The one assembly takes
(r1, r2, v, v') from the curve's chirp-z reads, from band rows off the
grid, or from the FFT reader at grid nodes, where v and v' are samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._errors import StateNotAdmissible, ToleranceError, ValidationError
from .grid import GridFunction, Representation, _plane_rows, transform
from .resolvent import (
    FiniteRankModel,
    PointSpectrum,
    Side,
    _band,
    _boundary_batch,
    _ChirpProjection,
    _cut_boundary,
    _cut_det,
    _cut_read,
    _interior,
    _node_boundary,
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
    "spectral_shift_density_determinant",
    "state_support",
]

_SUPPORT_REL = 1e-14


# ---------------------------------------------------------------------------
# assembly

def _stationary_batch(model: FiniteRankModel, xs, r1, r2, vals, d1) -> dict:
    """S, S', the delay density theta' = Re[-i conj(S) S'], the
    determinant-route shift density and X = <v, R(x + i0) v> (the rank-N
    solve, (K, N, N)) at the K energies xs from their boundary data: r1, r2
    (K, N, N), the orders 1 and 2 of r(x + i0), and vals, d1 (K, N), v_j(x), v_j'(x).

    Raises PointSpectrumProximity, naming the energy, where |D(x + i0)|
    falls below the resolvent's floor.
    """
    lam = model.coupling_array()
    N = model.rank
    _refuse_point_spectrum(xs, _cut_det(model, xs, r1))
    A = np.eye(N) + r1 * lam[None, None, :]            # I + r1 Lambda
    X = np.linalg.solve(A, r1)
    lamX = lam[None, :, None] * X
    Xp = np.linalg.solve(A, r2 @ (np.eye(N) - lamX))

    wv = lam[None, :] * vals
    wd = lam[None, :] * d1
    diag = np.sum(lam[None, :] * np.abs(vals) ** 2, axis=1)
    s = 1.0 - 2j * math.pi * (diag - _forms(wv, X, wv))

    diag_p = 2.0 * np.sum(lam[None, :] * np.real(d1 * vals.conj()), axis=1)
    form_p = _forms(wd, X, wv) + _forms(wv, X, wd) + _forms(wv, Xp, wv)
    sp = -2j * math.pi * (diag_p - form_p)

    Y = np.linalg.solve(A, r2 * lam[None, None, :])
    return {"s": s, "s_prime": sp, "delay": (-1j * s.conj() * sp).real,
            "xi_det": np.einsum("ijj->i", Y).imag / math.pi, "X": X}


def _forms(a: np.ndarray, X: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_jk a_ij X_ijk conj(b_ik), one product a row i: no batch moves its bits."""
    return (a[:, None, :] @ X @ b.conj()[:, :, None])[:, 0, 0]


def _stationary_at(model: FiniteRankModel, x) -> dict:
    """_stationary_batch at x, a number or a 1-D array, one energy at a time:
    r1, r2 by _cut_boundary, v, v' by one plane-wave row on the vectors' band,
    so an array is bitwise its single energies and memory O(M) at any length."""
    xs, N, (plan, coeffs) = _interior(model.grid, x), model.rank, model._vector_band
    r1, r2 = (_cut_boundary(model, xs, n)[1] for n in (1, 2))
    v = np.empty((xs.size, 2 * N), dtype=complex)      # v_j(x), then v_j'(x)
    for out, e in zip(v, xs.tolist()):                  # one contiguous dot a column
        np.dot(coeffs, _plane_rows(model.grid, plan, e), out=out)
    return _stationary_batch(model, xs, r1, r2, v[:, :N], v[:, N:])


# ---------------------------------------------------------------------------
# scalar operations

def s_matrix(model: FiniteRankModel, x: float) -> complex:
    """Scattering matrix component at energy x, stationary assembly."""
    return complex(_stationary_at(model, [_interior(model.grid, x, one=True)])["s"][0])


def s_matrix_chain(model: FiniteRankModel, x: float) -> complex:
    """S(x) as the ratio D(x - i0)/D(x + i0) of perturbation determinants.

    One evaluation row and one line sum at x serve both sides, each reading
    its own half of the pair coefficients and neither using the jump
    formula, so this shares no Plemelj sign with the stationary assembly and
    serves as its oracle.  It refuses point spectrum as s_matrix does.
    """
    D = _cut_det(model, [x, x], _cut_read(model, x, 1))
    _refuse_point_spectrum([x], D[1:])
    lower, upper = D.tolist()
    return lower / upper


def s_prime(model: FiniteRankModel, x: float) -> complex:
    """Analytic derivative of the scattering matrix at energy x."""
    return complex(_stationary_at(model, [_interior(model.grid, x, one=True)])["s_prime"][0])


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
    """(energy, radius) pairs from a PointSpectrum or an iterable of pairs."""
    if isinstance(exclusions, PointSpectrum):
        exclusions = zip(exclusions.eigenvalues, exclusions.radii)
    out = []
    for e, rad in () if exclusions is None else exclusions:
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

    proj, vm = _ChirpProjection(model.grid, a, b, xs.size), model.vectors_momentum
    r1, r2 = (r[keep] for r in _boundary_batch(model, proj, (1, 2)))
    vals, d1 = (proj.periodic(c.T)[keep] for c in (vm, 1j * model.grid.momentum_nodes() * vm))
    out = _stationary_batch(model, xs[keep], r1, r2, vals, d1)
    curve = ScatteringCurve(model, xs[keep], out["s"], out["s_prime"], out["delay"],
                            out["xi_det"], excl)
    res = curve.residuals()
    if not res["unitarity_residual"] <= 1e-8:          # a NaN residual fails too
        raise ToleranceError(
            f"unitarity residual {res['unitarity_residual']:.2e} above 1e-08")
    if not res["delay_reality_residual"] <= 1e-8:
        raise ToleranceError(f"delay-density imaginary part "
                             f"{res['delay_reality_residual']:.2e} above 1e-08")
    if not res["birman_krein_residual"] <= 1e-6:
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

        W- phi(x) = phi(x) + sum_k v_k(x) r_{a_k}(x - i0),
        a_k(E)    = phi(E) sum_j (delta_kj - lambda_k X_kj) lambda_j conj v_j(E).

    _node_boundary reads r1, r2 (plus side) and each r_{a_k} at the nodes; v
    are the vectors' samples and v' their spectral derivatives, i k v_hat cut
    on the vectors' momentum band, where the round-off beyond it would be
    amplified by |k|.
    """
    g, lam, vm, N = phi.grid, model.coupling_array(), model.vector_matrix(), model.rank
    on = _support_nodes(phi, exclusions)
    xs = _interior(g, g.position_nodes()[on])               # refused within the boundary margin
    dens = np.hstack([model.pair_densities(n)[0] for n in (0, 1)])
    r = _node_boundary(g, dens, Side.PLUS)[on].reshape(on.size, 2, N, N)
    vm_hat, cols = model.vectors_momentum, _band(model.vectors_momentum.T)
    dv = np.zeros_like(vm_hat)                              # i k v_hat, cut on the vectors' band
    dv[:, cols] = 1j * g.momentum_nodes()[cols] * vm_hat[:, cols]
    d1 = np.reshape([transform(GridFunction(g, Representation.MOMENTUM, d)).samples[on]
                     for d in dv], (N, on.size)).T
    data = _stationary_batch(model, xs, r[:, 0], r[:, 1], vm[:, on].T, d1)
    w = vm[:, on].T.conj() * lam                            # (n, N): lambda_j conj v_j(E)
    amp = np.zeros((g.points, N), dtype=complex)
    amp[on] = phi.samples[on, None] * (w - lam * np.einsum("ekj,ej->ek", data["X"], w))
    w_phi = phi.samples + np.sum(vm.T * _node_boundary(g, amp, Side.MINUS), axis=1)
    h, weight = g.spacing, np.abs(phi.samples[on]) ** 2
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

def spectral_shift_density_determinant(model: FiniteRankModel, xs) -> np.ndarray:
    """xi'(x) from the perturbation determinant's logarithmic derivative.

    Independent of the S-matrix assembly; used to cross-check the sign
    and normalization of the curve densities.
    """
    return _stationary_at(model, xs)["xi_det"]
