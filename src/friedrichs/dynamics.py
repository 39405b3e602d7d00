"""Time-domain quantities: propagation, wave operators, sojourn times.

Every entry point evolves the state it is given under the propagator it is
given; free evolution is the diagonal (rank-0) propagator of H0 = Q.  H0
translates momentum content downward at unit speed, so all sojourn
integrands live naturally in the momentum representation, where the
localization f(P/r) is diagonal.  The full evolution uses a one-time
eigendecomposition of H = Q + V, from the secular equation of diag(x) plus
rank N, never forming H or its M x M eigenvector matrix U: U is held as
one rank-one step per coupling, O(M) data each, and is applied, or its
columns built, through them; it is real when every vector is.  On its
eigenmodes a full sojourn over [-T, T] is an exact quadratic form, so no
time quadrature is left to err: only truncation at +-T and the spectral
window remain.

Discretization choices worth knowing about:

* f is averaged over momentum cells through its antiderivative.  The cell
  averages sum to the exact integral of f, so on the grid the free sojourn
  is the identity T0 = r ||phi||^2 int(f), with no time integral taken;
  sampling f at nodes would break it at O(dk/r).

* A full sojourn is Re sum_mn conj(c_m) c_n G_mn 2T sinc((E_m - E_n)T/pi)
  with G = dk Bw^* diag(fbar) Bw, Bw the kept eigenvectors in momentum,
  summed as dk sum_k fbar_k <Bw[k] o c, 2T sinc (Bw[k] o c)> over blocks of
  rows k, so G is never formed.  A sweep transforms its scales' union of
  kept columns (Propagator.columns, built as rows) once, in blocks, by a real
  FFT of each column's parts, keeping only the rows some window reads.  The
  fitted decay tail reads the integrand only at _TAIL_SAMPLES uniform times a
  side on T/2 <= |t| <= T, +-t from one real product on two phase tables.

* The momentum box is periodic: content leaving one edge re-enters at the
  other.  Horizons are chosen from the state's measured momentum extent,
  and the wrapped tail mass is folded into the reported tail estimate.

* A full sojourn runs on a spectral window.  By the intertwining relation
  E_H(D) W- = W- E_H0(D), W- phi carries H-spectral mass only where phi
  carries position mass (H0 = Q), so on the grid most eigenmodes hold
  almost none of it.  The lightest modes are dropped while the most they
  can move the integral by stays within 1e-3 tol.  Of the kept modes, the
  lightest holding eps ||psi||^2 between them (about 420 of 440 on the
  demo) enter the form only through their cross terms with the rest, so
  the sinc kernel has a row per heavy mode only; their own block lies in
  [0, span m_L], below the form's round-off.  Both bounds are charged to
  the tail estimate.

* Cook's W+- phi = phi + i s int_0^T e^{i s tau H} V e^{-i s tau H0} phi dtau
  is exact on H's eigenmodes and the grid nodes, so its cost does not
  depend on T, which is always the revival cap pi/h - _MARGIN.  Only the
  integrand beyond the cap, probed and fitted, and the round-off of the
  phases are left as error.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._errors import ToleranceError, ValidationError
from .grid import (
    GridFunction,
    GridSpec,
    Representation,
    _as_momentum,
    norm,
)
from .localization import LocalizationProfile
from .resolvent import FiniteRankModel, Side, _apply_steps, _as_side, _blocks
from .scattering import _state_scattering
from .states import MomentumDensity

__all__ = [
    "Propagator",
    "SojournRecord",
    "build_propagator",
    "evolve",
    "wave_operator",
    "sojourn",
    "time_delay_sweep",
    "propagation_functional",
]

_T_BLOCK = 2048        # direct-route times per batch; their blocks do not grow with M
_TAIL_SAMPLES = 128    # full-sojourn integrand samples a side for the tail fit
_MARGIN = 5.0          # horizon padding beyond momentum extent + window
_MASS_EPS = 1e-8       # momentum tail mass treated as already escaped
                       # (the neglected mass is charged to the tail estimate;
                       #  a larger horizon would instead inflate the
                       #  periodic-wraparound error, which grows with T)


# ---------------------------------------------------------------------------
# propagator

@dataclass(frozen=True)
class Propagator:
    """Eigendecomposition of the discretized H = Q + V.

    U = Q_1 ... Q_n is held as its rank-one steps, O(M) data each, never
    as an M x M matrix: _apply_steps runs U or U^* through them and
    columns builds the columns asked for.  For V = 0 there are no steps
    and U is the identity: the eigenvalues are the grid nodes.
    """

    model: FiniteRankModel
    eigenvalues: np.ndarray
    steps: tuple

    @property
    def grid(self) -> GridSpec:
        return self.model.grid

    @property
    def is_diagonal(self) -> bool:
        return not self.steps

    def coefficients(self, phi: GridFunction) -> np.ndarray:
        """Eigenbasis coefficients of a position-representation state."""
        return _apply_steps(self.steps, phi.samples, adjoint=True)

    def columns(self, idx) -> np.ndarray:
        """U[:, idx], the eigenvectors of the eigenvalues idx, as an (M, n) array: the
        last step's columns, the transpose of contiguous rows, then the earlier steps."""
        idx = np.asarray(idx, dtype=int)
        if self.is_diagonal:
            return (np.arange(self.grid.points)[:, None] == idx).astype(float)
        return _apply_steps(self.steps[:-1], self.steps[-1].columns(idx))


def build_propagator(model: FiniteRankModel) -> Propagator:
    return Propagator(model, *model.eigendecomposition)


def _require_position_state(prop: Propagator, phi: GridFunction, what: str) -> None:
    if phi.representation is not Representation.POSITION:
        raise ValidationError(f"{what} expects a position-representation state")
    if phi.grid != prop.grid:
        raise ValidationError("state lives on a different grid than the propagator")


def evolve(prop: Propagator, phi: GridFunction, t: float) -> GridFunction:
    """e^{-itH} phi under the propagator's H: a phase per eigenmode, which
    is a phase per node when the propagator is diagonal (H = H0 = Q)."""
    _require_position_state(prop, phi, "evolve")
    out = _apply_steps(prop.steps, np.exp(-1j * t * prop.eigenvalues) * prop.coefficients(phi))
    return GridFunction(prop.grid, Representation.POSITION, out)


# ---------------------------------------------------------------------------
# measured horizons and tails

def _momentum_extent(dens: np.ndarray, grid: GridSpec, mass_eps: float) -> float:
    """Smallest K such that the density mass outside |k| <= K is <= mass_eps."""
    k = grid.momentum_nodes()
    order = np.argsort(np.abs(k))[::-1]          # outermost first
    outside = grid.momentum_spacing * np.cumsum(dens[order])
    keep = np.nonzero(outside > mass_eps)[0]
    if keep.size == 0:
        return 0.0
    return float(np.abs(k[order[keep[0]]]))


def _sojourn_horizon(dens: np.ndarray, grid: GridSpec, f: LocalizationProfile,
                     r: float) -> tuple:
    """(K, T): momentum extent and time horizon.

    T covers the state's momentum extent K plus the window f(./r) out to
    its support radius, with a fixed margin.
    """
    K = _momentum_extent(dens, grid, _MASS_EPS * max(dens.sum() * grid.momentum_spacing, 1e-30))
    return K, K + r * f.support_radius + _MARGIN


def _fitted_tail(tax: np.ndarray, gabs: np.ndarray) -> tuple:
    """(tail, zeta): |g| ~ C t^-zeta fitted over the tail half of the axis,
    and the fit's integral beyond the axis' end T, inf when not integrable.

    An integrand that is numerically dead over the fit window reports
    (0, inf): there is nothing left to truncate.
    """
    T = tax[-1]
    floor = max(gabs.max(), 1e-300) * 1e-14
    sel = (tax > 0.5 * T) & (gabs > floor)
    if sel.sum() < 4:
        return 0.0, math.inf
    slope, intercept = np.polyfit(np.log(tax[sel]), np.log(gabs[sel]), 1)
    C, zeta = math.exp(intercept), -slope
    if C == 0.0:
        return 0.0, zeta
    return (C * T ** (1.0 - zeta) / (zeta - 1.0) if zeta > 1.0 else math.inf), zeta


def _f_cell_averages(f: LocalizationProfile, grid: GridSpec, r: float) -> np.ndarray:
    k = grid.momentum_nodes()
    half = 0.5 * grid.momentum_spacing
    return f.window_average(k - half, k + half, r)


def _require_scales(rs) -> None:
    bad = [r for r in rs if not 0.0 < r < math.inf]
    if bad:
        raise ValidationError(f"localization scale r must be positive and finite, got {bad[0]:g}")


def _sweep_scales(r_list) -> np.ndarray:
    """The scales of a sweep, ascending: at least one, each positive and
    finite, none repeated."""
    rs = np.asarray(sorted(float(r) for r in r_list))
    if rs.size == 0:
        raise ValidationError("r_list must contain at least one scale")
    _require_scales(rs)
    if np.any(rs[1:] == rs[:-1]):
        # a repeated scale leaves a zero gap, which would certify a
        # convergence never shown
        raise ValidationError("r_list must not repeat a scale")
    return rs


# ---------------------------------------------------------------------------
# wave operators

def _cook_couplings(prop: Propagator, phi: GridFunction, taus: np.ndarray) -> np.ndarray:
    """c_j(tau) = <v_j, e^{-i tau Q} phi> for all tau at once: (N, Ntau).

    Nodes where phi vanishes add exact zeros, so the phases are formed on
    phi's support only.
    """
    g = prop.grid
    on = np.flatnonzero(phi.samples)
    vm = prop.model.vector_matrix()[:, on]
    phases = -1j * np.outer(g.position_nodes()[on], taus)
    np.exp(phases, out=phases)
    phases *= phi.samples[on, None]
    return g.spacing * (vm.conj() @ phases)


def _cook_tail(prop: Propagator, phi: GridFunction, s: float, cap: float) -> tuple:
    """(tail, zeta): Cook's integrand sum_j |lambda_j| |c_j(s tau)| beyond
    the cap, from a coarse probe of the couplings Cook integrates, plus the
    round-off of the closed form below it.

    The probe stops at the cap, half the discrete revival period 2 pi / h
    less _MARGIN: beyond it the trigonometric-polynomial couplings alias
    back up and no longer approximate the continuum integrand.  The tail
    is the last probed amplitude over the probe interval holding the cap
    (a left-endpoint sum), plus a power law C tau^-zeta, fitted over the
    probe's tail half, past the probe's end.  The closed form's phases
    theta = s T (E_m - x) reach T max|E| rad, each rounded to eps
    relative, which leaves eps T max|E| ||phi|| in W+- phi.  The probe
    times go in _blocks as wide as phi's support.
    """
    step = 0.5
    probe = np.arange(step, cap, step)
    if probe.size == 0:
        raise ValidationError(
            f"grid too coarse for the wave operator: its revival cap pi/h - {_MARGIN:g} "
            f"= {cap:.3g} leaves no probe step; raise grid.M")
    amps = np.concatenate([np.abs(_cook_couplings(prop, phi, s * probe[b])).max(axis=0)
                           for b in _blocks(probe.size, np.count_nonzero(phi.samples))])
    beyond, zeta = _fitted_tail(probe, amps)
    lam_sum = float(np.sum(np.abs(prop.model.coupling_array())))
    roundoff = np.finfo(float).eps * cap * float(np.abs(prop.eigenvalues).max()) * norm(phi)
    return lam_sum * float(step * amps[-1] + beyond) + roundoff, zeta


def wave_operator(prop: Propagator, phi: GridFunction, sign: str = "minus",
                  tol: float = 1e-4, return_info: bool = False):
    """W+- phi by Cook's integral over [0, T], exact on H's eigenmodes, with
    T the revival cap pi/h - _MARGIN; the probed tail of the integrand
    beyond T, with the round-off of the phases, is held to tol.  The
    independent check of W- phi is the stationary formula in
    scattering._state_scattering.  sign is a Side, "minus" or "plus".

    With return_info the result comes with a dict: "horizon" (T, 0 when
    V = 0), "tail_estimate" (the error estimate held to tol) and "zeta"
    (the decay exponent of the integrand).
    """
    s = -1.0 if _as_side(sign) is Side.MINUS else 1.0
    _require_position_state(prop, phi, "wave_operator")
    if prop.is_diagonal:
        info = {"horizon": 0.0, "tail_estimate": 0.0, "zeta": math.inf}
        return (phi, info) if return_info else phi

    g = prop.grid
    cap = g.momentum_cutoff - _MARGIN
    tail, zeta = _cook_tail(prop, phi, s, cap)
    if tail > max(tol, 1e-12):
        raise ToleranceError(
            f"wave-operator tail estimate {tail:.2e} beyond the revival cap "
            f"{cap:g} exceeds tolerance {tol:g}; raise grid.M")
    if zeta <= 2.0:
        warnings.warn(
            f"measured integrand decay zeta = {zeta:.2f} <= 2; wave-operator "
            "convergence is outside the certified regime", stacklevel=2)
    result = GridFunction(g, Representation.POSITION, _cook_integral(prop, phi, s, cap))
    info = {"horizon": cap, "tail_estimate": tail, "zeta": zeta}
    return (result, info) if return_info else result


def _cook_integral(prop: Propagator, phi: GridFunction, s: float,
                   horizon: float) -> np.ndarray:
    """phi + i s int_0^T e^{i s tau H} V e^{-i s tau H0} phi dtau, T = horizon.

    H is diagonal on its eigenmodes and H0 on the grid, so on mode m and
    node x the time integral is exact: int_0^T e^{i s tau (E_m - x)} dtau
    = T e^{i theta/2} sinc(theta/2pi), theta = s T (E_m - x).  Nodes where
    phi vanishes add nothing; the kernel is built mode-major, in _blocks
    of modes as wide as phi's support, so each mode's sum over the nodes
    is one product.
    """
    g = prop.grid
    lam = prop.model.coupling_array()
    vm = prop.model.vector_matrix()
    on = np.flatnonzero(phi.samples)
    x, E = g.position_nodes()[on], prop.eigenvalues
    b = (g.spacing * vm[:, on].conj() * phi.samples[on]).T  # (n, N): h conj(v_j) phi
    kb = np.empty((E.size, lam.size), dtype=complex)
    for rows in _blocks(E.size, on.size):
        theta = (s * horizon) * np.subtract.outer(E[rows], x)
        kb[rows] = (np.exp(0.5j * theta) * np.sinc(theta / (2.0 * math.pi))) @ b
    W_eig = _apply_steps(prop.steps, (lam[:, None] * vm).T, True)  # (M, N): U^* lambda_j v_j
    return phi.samples + 1j * s * horizon * _apply_steps(prop.steps, np.sum(W_eig * kb, axis=1))


# ---------------------------------------------------------------------------
# sojourn times

def _sliding_sum(dens: np.ndarray, grid: GridSpec, f: LocalizationProfile,
                 r: float, tgrid: np.ndarray) -> np.ndarray:
    """g(t) = dk * sum_j dens_j fbar((k_j - t)/r) over a t grid.

    fbar is the cell average of f(./r); only cells meeting the window
    support [t - r rho, t + r rho], rho = f.support_radius, are touched.
    """
    k = grid.momentum_nodes()
    dk = grid.momentum_spacing
    half = 0.5 * dk
    out = np.zeros(tgrid.size)
    span = r * f.support_radius + dk
    for lo in range(0, tgrid.size, _T_BLOCK):
        tb = tgrid[lo:lo + _T_BLOCK]
        i0 = np.searchsorted(k, tb.min() - span)
        i1 = np.searchsorted(k, tb.max() + span)
        if i0 >= i1:
            continue
        offs = k[None, i0:i1] - tb[:, None]
        fb = f.window_average(offs - half, offs + half, r)
        out[lo:lo + _T_BLOCK] = dk * (fb @ dens[i0:i1])
    return out


def _momentum_density(phi: GridFunction) -> np.ndarray:
    return np.abs(_as_momentum(phi)) ** 2


def _free_tails(dens: np.ndarray, grid: GridSpec, f: LocalizationProfile,
                r: float, T: float) -> tuple:
    """(hi, lo): the exact integrals over t > T of the free integrands
    dk sum_k dens_k f((k - t)/r) and dk sum_k dens_k f((k + t)/r).

    Each leaves r*(I/2 +- A((k -+ T)/r)) per momentum node, a closed form
    in the profile antiderivative.  No decay fit is involved, so a plateau
    in the integrand (narrow state, large r) cannot mislead them, and both
    vanish identically once T covers the momentum extent plus r times the
    window's support radius.
    """
    k = grid.momentum_nodes()
    half_int = 0.5 * f.integral()
    w = r * grid.momentum_spacing
    hi = w * float(np.sum(dens * (half_int + f.antiderivative((k - T) / r))))
    lo = w * float(np.sum(dens * (half_int - f.antiderivative((k + T) / r))))
    return hi, lo


def _free_time_grid(T: float, r: float) -> np.ndarray:
    """Trapezoid nodes on [0, T] for the free sliding-window integrands."""
    dt = min(0.05, 0.005 * math.sqrt(max(r, 1.0)))
    return np.linspace(0.0, T, int(math.ceil(T / dt)) + 1)


def _free_sojourn(psi: GridFunction, f: LocalizationProfile, r: float) -> float:
    """T0_r(psi) = r ||psi||^2 int(f), exact on the grid: under H0 each
    momentum node's content crosses the window at unit speed, and over all
    t the cell average of f((k - t)/r) integrates to r int(f) at every node."""
    return r * norm(psi) ** 2 * f.integral()


def _tail_phases(E: np.ndarray, half: np.ndarray) -> np.ndarray:
    """e^{-iE half} on uniform times half, e^{-iE half[Jp + q]} formed as e^{-iE half[Jp]}
    e^{-iE q dt}: n/J + J exponentials a mode, not n (J = 16 at n = 128)."""
    n, J = half.size, 1 << (half.size.bit_length() // 2)
    coarse = np.exp(np.multiply.outer(E, -1j * half[::J]))[:, :, None]
    fine = np.exp(np.multiply.outer(E, -1j * (half[-1] - half[0]) / (n - 1) * np.arange(J)))
    return (coarse * fine[:, None, :]).reshape(E.size, coarse.shape[1] * J)[:, :n]


def _window_form(B: np.ndarray, pick: np.ndarray, at: np.ndarray, fbar: np.ndarray,
                 c: np.ndarray, E: np.ndarray, T: float, half: np.ndarray,
                 light: np.ndarray) -> tuple:
    """(sum_k fbar_k <a_k, S a_k> less its light block, sum_k fbar_k |a_k . e^{-iEt}|^2
    at t = -half and at t = half, two rows) over the window rows k in at, a_k = B[pick, k] o c.

    S = 2T sinc((E_m - E_n)T/pi) is real and symmetric, so with a_k split as
    a_H + a_L on the modes light marks, <a, S a> = Re <a_H, S[H, :] (a_H + 2 a_L)>
    + <a_L, S_LL a_L>: only the heavy rows of S are formed, and the light block,
    which lies in [0, span m_L], is left to the caller's charge.  Each of the
    _blocks of rows, 4 (modes + 2 _TAIL_SAMPLES) reals wide, takes two real products
    on the float view of A = B[pick, block] o c, the form's and the tail's, which
    reads every mode: U = sum A cos(Et), V = -sum A sin(Et), a_k . e^{-iEt} = U +- iV."""
    heavy = ~light
    x = np.multiply(np.subtract.outer(E[heavy], E), T)   # sinc((E_m - E_n)T/pi) = sin(x)/x
    x[x == 0.0] = np.finfo(float).eps                    # where sin(x) = x
    sinc = np.divide(np.sin(x) * np.where(light, 2.0, 1.0), x, out=x)  # S[H, :] (a_H + 2 a_L)
    R = _tail_phases(E, half).view(float)                # cos(Et), -sin(Et) interleaved
    form, samples = 0.0, np.zeros((2, half.size))
    for rows in _blocks(at.size, 4 * (c.size + 2 * half.size)):
        A = (B[:, at[rows]][pick[:, 0]] * c[:, None]).view(float)  # parts interleaved
        (ur, ui), (vr, vi) = np.moveaxis((R.T @ A).reshape(half.size, 2, -1, 2), (1, 3), (0, 1))
        samples[0] += ((ur + vi) ** 2 + (ui - vr) ** 2) @ fbar[rows]   # |U - iV|^2 at -half
        samples[1] += ((ur - vi) ** 2 + (ui + vr) ** 2) @ fbar[rows]   # |U + iV|^2 at half
        SA = sinc @ A
        SA *= A[heavy]
        form += float(fbar[rows] @ SA.sum(axis=0).reshape(-1, 2).sum(axis=1))
    return 2.0 * T * form, samples


def _sojourns(prop: Propagator, psi: GridFunction, f: LocalizationProfile,
              rs, tol: float) -> list:
    """(value, tail, zeta, modes kept, discarded mass) of the sojourn at each
    r in rs; what depends on psi alone, B among it, is formed once for all of
    them, and each scale sums its form over blocks of its window's rows of B
    (_window_form).  A diagonal propagator gives the free sojourn, exact."""
    g = prop.grid
    if prop.is_diagonal:
        return [(_free_sojourn(psi, f, r), 0.0, math.inf, g.points, 0.0) for r in rs]
    dk, M = g.momentum_spacing, g.points
    dens_psi = _momentum_density(psi)
    c_all = prop.coefficients(psi)
    horizons = [_sojourn_horizon(dens_psi, g, f, r) for r in rs]
    fbars = [_f_cell_averages(f, g, r) for r in rs]
    spans = [2.0 * T * float(np.abs(fbar).max()) for (_, T), fbar in zip(horizons, fbars)]
    windows = _spectral_windows(c_all, g.spacing, spans, tol)
    union = np.flatnonzero(np.bincount(np.concatenate([kept for kept, _, _, _ in windows])))
    wins = [np.flatnonzero(np.abs(fbar) > 1e-16 * max(float(np.abs(fbar).max()), 1e-300))
            for fbar in fbars]
    rows = np.flatnonzero(np.bincount(np.concatenate(wins), minlength=M))
    B = _momentum_rows(prop, union, rows)
    kn = np.abs(g.momentum_nodes())
    out = []
    for r, (K, T), fbar, win, (kept, light, discarded, window_term) in zip(
            rs, horizons, fbars, wins, windows):
        half = np.linspace(0.5 * T, T, _TAIL_SAMPLES)
        form, samples = _window_form(B, np.searchsorted(union, kept)[:, None],
                                     np.searchsorted(rows, win), fbar[win], c_all[kept],
                                     prop.eigenvalues[kept], T, half, light)
        (tail_lo, z_lo), (tail_hi, z_hi) = (_fitted_tail(half, s) for s in np.abs(dk * samples))
        # The momentum box is periodic with period 2*cutoff: content at node k
        # re-enters the window spuriously once |t| reaches period - |k| - r*rho,
        # and stays in it for at most one full window transit.  Charge that
        # occupancy, and the mass beyond the truncation extent K, to the tail.
        reach = r * f.support_radius
        overlap = np.clip(T - (2.0 * g.momentum_cutoff - kn - reach), 0.0, 2.0 * reach)
        tail = tail_hi + tail_lo + float((dens_psi * overlap).sum() * dk)
        tail += float(dens_psi[kn > K].sum() * dk) * 2.0 * reach
        out.append((dk * form, tail + window_term, min(z_hi, z_lo), kept.size, discarded))
    return out


def _momentum_rows(prop: Propagator, modes: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """B[m, i]: the momentum coefficient at node rows[i] of the eigenvector of
    mode modes[m], (modes, rows).

    The columns go in _blocks 2M reals wide, each a contiguous row of
    Propagator.columns' transpose rolled into a row of one real buffer (a complex
    column into two, its parts) and transformed there by rfft along the rows; a
    row k >= 0 reads the transform at k/dk, k < 0 the conjugate at -k/dk."""
    g = prop.grid
    M, h = g.points, g.points // 2
    blocks = _blocks(modes.size, 2 * M)
    at, neg = np.abs(rows - h), rows < h
    B = np.empty((modes.size, rows.size), dtype=complex)
    buf = np.empty((2 * blocks[0].stop if blocks else 0, M))
    for part in blocks:
        cols = np.ascontiguousarray(prop.columns(modes[part]).T)           # a row a column
        X = np.moveaxis(cols.view(float).reshape(cols.shape[0], M, -1), 2, 1)  # a row a part
        rolled = buf[:X.shape[0] * X.shape[1]].reshape(X.shape)
        rolled[..., :M - h], rolled[..., M - h:] = X[..., h:], X[..., :h]
        F = np.fft.rfft(rolled.reshape(-1, M))[:, at]
        F.imag[:, neg] *= -1.0
        B[part] = F[0::2] + 1j * F[1::2] if np.iscomplexobj(cols) else F
    B *= g.spacing / math.sqrt(2.0 * math.pi)
    return B


def _spectral_windows(c: np.ndarray, h: float, spans, tol: float) -> list:
    """(kept, light, discarded mass, charge) of the eigenmodes a sojourn runs
    on, per span; light marks the kept modes _window_form leaves to the charge.

    Dropping modes that hold a share delta of ||psi||^2 moves each sample
    dk sum_k fbar_k |psi_t(k)|^2 by at most max|fbar| ||psi||^2 (2 sqrt(delta)
    + delta); span = 2T max|fbar| turns that into a bound on the integral.
    The smallest modes go while that bound stays within 1e-3 tol, a
    negligible part of the tolerance the tail is held to.  Of the kept
    modes, the lightest whose mass m_L stays within eps ||psi||^2 are light:
    their own block of the form is an integral of dk sum_k fbar_k |psi_L,t(k)|^2,
    in [0, span m_L], below the form's round-off.  The charge is both bounds.
    """
    mass = h * np.abs(c) ** 2
    order = np.argsort(mass, kind="stable")
    dropped = np.concatenate(([0.0], np.cumsum(mass[order])))  # the i lightest
    total = float(dropped[-1])
    share = dropped / max(total, 1e-300)
    growth = 2.0 * np.sqrt(share) + share
    out = []
    for span in spans:
        charges = span * total * growth
        n_drop = int(np.searchsorted(charges, 1e-3 * tol, side="right")) - 1
        n_light = n_drop - 1 + int(np.searchsorted(
            dropped[n_drop:] - dropped[n_drop], np.finfo(float).eps * total, side="right"))
        kept = np.sort(order[n_drop:])
        out.append((kept, np.isin(kept, order[n_drop:n_light]), float(dropped[n_drop]),
                    float(charges[n_drop] + span * (dropped[n_light] - dropped[n_drop]))))
    return out


def _require_tail(value: float, tail: float, tol: float, psi: GridFunction,
                  f: LocalizationProfile, r: float) -> None:
    """Refuse a tail beyond tol, naming a horizon past the momentum cutoff
    (the periodic box wraps psi back into the window) when that is the cause."""
    if tail <= max(tol, 1e-12) * max(abs(value), 1.0):
        return
    T, cut = _sojourn_horizon(_momentum_density(psi), psi.grid, f, r)[1], psi.grid.momentum_cutoff
    cause = (f"its horizon {T:.4g} exceeds the momentum cutoff pi/h = {cut:.4g}; raise grid.M"
             if T > cut else f"it exceeds tolerance {tol:g}")
    raise ToleranceError(f"sojourn tail estimate {tail:.2e} at r = {r:g}: {cause}")


def sojourn(prop: Propagator, psi: GridFunction, f: LocalizationProfile, r: float,
            tol: float = 1e-6, return_info: bool = False):
    """Sojourn time int ||f(P/r) e^{-itH} psi||^2 dt of psi under the
    propagator's H at scale r: the free sojourn of phi when the propagator
    is diagonal (H = H0), which is r ||phi||^2 int(f) exactly, and the full
    one when psi = W- phi and H = Q + V.

    With return_info the result comes with a dict: "tail_estimate" (the
    error estimate held to tol, the spectral-window charge included),
    "zeta" (the measured decay exponent of the integrand), "modes_kept"
    (the eigenmodes the evolution ran on; M for a diagonal propagator,
    which drops none) and "discarded_mass" (the part of ||psi||^2 on the
    dropped modes).
    """
    _require_scales((r,))
    _require_position_state(prop, psi, "sojourn")
    value, tail, zeta, modes, discarded = _sojourns(prop, psi, f, (r,), tol)[0]
    _require_tail(value, tail, tol, psi, f, r)
    info = {"tail_estimate": tail, "zeta": zeta, "modes_kept": modes,
            "discarded_mass": discarded}
    return (value, info) if return_info else value


# ---------------------------------------------------------------------------
# propagation functional

def _closed_form_grid(phi: GridFunction, f: LocalizationProfile, r: float) -> float:
    g = phi.grid
    A = f.antiderivative(g.momentum_nodes() / r)
    return 2.0 * r * g.momentum_spacing * float(_momentum_density(phi) @ A)


def _hinge_moment(dens: MomentumDensity, sign: float, q: float, n: int) -> float:
    """E[(sign X - q)_+^n] for X uniform on dens.mean +- dens.scale, n = 1 or 2."""
    a, s = sign * dens.mean - q, dens.scale
    return (max(a + s, 0.0) ** (n + 1) - max(a - s, 0.0) ** (n + 1)) / (2 * (n + 1) * s)


def _closed_form_density(dens: MomentumDensity, f: LocalizationProfile, r: float) -> float:
    """I_r = 2 (<P> - cut), cut = E[k - r A(k/r)]: for a band, hinge moments
    of dens and its mirror at r delta, and for a ramp at r (delta + width)
    too.  A Gaussian's would reach scale^2 / 2 and cancel (_gaussian_functional)."""
    q = r * f.delta
    if dens.family == "gaussian":
        return _gaussian_functional(dens.mean, dens.scale, q, r * f.support_radius)
    if f.width == 0.0:
        cut = _hinge_moment(dens, 1.0, q, 1) - _hinge_moment(dens, -1.0, q, 1)
    else:
        q2 = r * f.support_radius
        cut = sum(sign * (_hinge_moment(dens, sign, q, 2) - _hinge_moment(dens, sign, q2, 2))
                  for sign in (1.0, -1.0)) / (2.0 * r * f.width)
    return 2.0 * (dens.mean - cut)


def _gaussian_functional(m: float, s: float, q: float, q2: float) -> float:
    """I_r for X ~ N(m, s^2) under a window of plateau q and support q2, from
    terms no larger than I_r's own scale: I_r = 2 int_0^q2 f D with D(u) =
    P(X > u) - P(X < -u) is, by parts, 2 clip - (q2 - q) D(q2) - head / (q2 - q).
    clip = E[clip(X, -q2, q2)] = sign(m) (T(q2 + |m|) - T(q2 - |m|)) / 2 with
    T(a) = E[(|a| - s |Z|)_+]; head = int_q^q2 (u - q)^2 (p(u) - p(-u)) du by
    20-point Gauss-Legendre on panels at most s wide, where p is above underflow."""
    def T(a):
        return a * math.erf(a / (s * math.sqrt(2.0))) + s * math.sqrt(2.0 / math.pi) * math.expm1(
            -0.5 * (a / s) ** 2)
    clip = math.copysign(0.5 * (T(q2 + abs(m)) - T(q2 - abs(m))), m)
    if q2 == q:
        return 2.0 * clip
    D = 0.5 * (math.erfc((q2 - m) / (math.sqrt(2.0) * s))
               - math.erfc((q2 + m) / (math.sqrt(2.0) * s)))
    lo = max(q, abs(m) - 40.0 * s)
    hi = max(lo, min(q2, abs(m) + 40.0 * s))
    n = max(1, math.ceil((hi - lo) / s))
    x, w = np.polynomial.legendre.leggauss(20)
    half = 0.5 * (hi - lo) / n
    u = (lo + half * (2.0 * np.arange(n)[:, None] + 1.0 + x)).ravel()
    odd = np.exp(-0.5 * ((u - m) / s) ** 2) - np.exp(-0.5 * ((u + m) / s) ** 2)
    head = half * float(np.tile(w, n) @ ((u - q) ** 2 * odd)) / (s * math.sqrt(2.0 * math.pi))
    return 2.0 * clip - (q2 - q) * D - head / (q2 - q)


def _direct_functional(phi: GridFunction, f: LocalizationProfile, r: float,
                       tol: float) -> float:
    """int_0^T (g-(t) - g+(t)) dt with g-+ the free integrands centred at
    +-t; the part beyond T is exactly hi - lo of _free_tails."""
    g = phi.grid
    dens = _momentum_density(phi)
    _, T = _sojourn_horizon(dens, g, f, r)
    tgrid = _free_time_grid(T, r)
    diff = _sliding_sum(dens, g, f, r, tgrid) - _sliding_sum(dens, g, f, r, -tgrid)
    value = float(np.trapezoid(diff, tgrid))
    hi, lo = _free_tails(dens, g, f, r, T)
    if abs(hi - lo) > max(tol, 1e-12) * max(abs(value), 1.0):
        raise ToleranceError(
            f"propagation-functional horizon insufficient (tail {hi - lo:.2e})")
    return value


def propagation_functional(phi, f: LocalizationProfile, r: float,
                           half: str = "closedform", tol: float = 1e-8) -> float:
    """Half-line propagation functional I_r.

    half = "closedform" evaluates the momentum-space reduction
    I_r = 2r int dens(k) A(k/r) dk (A the signed antiderivative of f);
    it accepts either a GridFunction or an analytic MomentumDensity, whose
    I_r = 2<P> - cut is closed form (cut: what the window f(./r) removes).
    half = "direct" integrates the commutator expression over time and is
    grid-only; the part beyond its horizon, known in closed form, is held
    to tol.
    """
    if half not in ("closedform", "direct"):
        raise ValidationError(f"functional route must be 'closedform' or 'direct', got {half!r}")
    _require_scales((r,))
    if isinstance(phi, MomentumDensity):
        if half == "direct":
            raise ValidationError("the direct route needs a grid state, not an analytic density")
        return _closed_form_density(phi, f, r)
    if half == "closedform":
        return _closed_form_grid(phi, f, r)
    return _direct_functional(phi, f, r, tol)


# ---------------------------------------------------------------------------
# the sweep

@dataclass(frozen=True)
class SojournRecord:
    r: float
    T0: float
    T0_S: float
    T: float
    tau_in: float
    tau_sym: float
    tau_free: float
    tail_estimate: float


def _median(values: list) -> float:
    """statistics.median of a nonempty list, without the fractions and decimal imports."""
    s, mid = sorted(values), len(values) // 2
    return s[mid] if len(values) % 2 else (s[mid - 1] + s[mid]) / 2


def time_delay_sweep(prop: Propagator, curve, phi: GridFunction,
                     f: LocalizationProfile, r_list, tol: float = 1e-6) -> tuple:
    """Sojourn-time sweep over r.

    Returns (records, summary): one SojournRecord per r, and a summary
    dict.  tau_inf is tau_in at the largest r: for every state built here
    tau_r tends to tau_EW faster than any power of r, so there is nothing
    to extrapolate.  fit_residual is the last gap |tau(r_n) - tau(r_{n-1})|
    (nan for one scale); fit_ok says it lies within twice the larger tail
    estimate of those two sojourns plus 4e-13 max(1, max|tau|), and a
    sweep that has not settled warns.  The dict also holds ew_value,
    abs_gap, rel_gap, zeta_measured and wave_operator_route_gap (the norm
    of Cook's W- phi less the stationary one).
    """
    rs = _sweep_scales(r_list)
    if curve.model is not prop.model:
        raise ValidationError("the scattering curve was tabulated for another model "
                              "than the propagator's")
    s_phi, ew, _, w_stat = _state_scattering(curve.model, phi, curve.exclusions)

    w_phi = wave_operator(prop, phi, "minus", tol=max(10.0 * tol, 1e-5))
    route_gap = norm(GridFunction(phi.grid, Representation.POSITION,
                                  w_phi.samples - w_stat.samples))

    records, zetas = [], []
    for r, (T, tail, zeta, _, _) in zip(rs, _sojourns(prop, w_phi, f, rs, tol)):
        _require_tail(T, tail, tol, w_phi, f, r)
        zetas.append(zeta)
        T0 = _free_sojourn(phi, f, r)
        T0_S = _free_sojourn(s_phi, f, r)
        tau_in = T - T0
        tau_sym = T - 0.5 * (T0 + T0_S)
        i_phi = propagation_functional(phi, f, r, "closedform")
        i_s = propagation_functional(s_phi, f, r, "closedform")
        tau_free = 0.5 * (i_s - i_phi)
        records.append(SojournRecord(float(r), T0, T0_S, T, tau_in, tau_sym, tau_free, tail))

    taus = np.array([rec.tau_in for rec in records])
    gap, floor, reason = math.nan, 0.0, "a single scale shows no gap"
    if rs.size >= 2:
        gap = float(abs(taus[-2] - taus[-1]))
        floor = 2.0 * max(records[-2].tail_estimate, records[-1].tail_estimate)
        floor += 4e-13 * max(1.0, float(np.max(np.abs(taus))))
        reason = f"its last gap {gap:.3g} exceeds the floor {floor:.3g}"
    summary = {"tau_inf": float(taus[-1]), "fit_residual": gap, "fit_ok": gap <= floor}
    if not summary["fit_ok"]:
        warnings.warn(f"time-delay sweep has not settled: {reason}; tau_inf is "
                      f"tau_in at the largest r = {rs[-1]:g}", stacklevel=2)
    summary["ew_value"] = float(ew)
    summary["abs_gap"] = abs(summary["tau_inf"] - ew)
    summary["rel_gap"] = summary["abs_gap"] / abs(ew) if abs(ew) > 1e-9 else math.nan
    finite_z = [z for z in zetas if math.isfinite(z)]
    summary["zeta_measured"] = _median(finite_z) if finite_z else math.inf
    summary["wave_operator_route_gap"] = route_gap
    return records, summary
