"""Time-domain quantities: propagation, wave operators, sojourn times.

The free Hamiltonian is multiplication by x, so free evolution translates
momentum content downward at unit speed; all sojourn integrands therefore
live naturally in the momentum representation, where the localization
f(P/r) is diagonal.  The full evolution uses a one-time eigendecomposition
of H = Q + V, from the secular equation of diag(x) plus rank N, never
forming H; it is real when every vector is.  On its eigenmodes a full
sojourn over [-T, T] is an exact quadratic form, so no time quadrature is
left to err: only truncation at +-T and the spectral window remain.

Discretization choices worth knowing about:

* f is averaged over momentum cells through its antiderivative.  The cell
  averages sum to the exact integral of f, so the free sojourn identity
  T0 = r ||phi||^2 int(f) survives discretization; sampling f at nodes
  would break it at O(dk/r).

* A full sojourn is Re sum_mn conj(c_m) c_n G_mn 2T sinc((E_m - E_n)T/pi)
  with G = dk Bw^* diag(fbar) Bw, Bw the kept eigenvectors in momentum.
  The fitted decay tail reads the integrand only at _TAIL_SAMPLES times a
  side on T/2 <= |t| <= T.

* The momentum box is periodic: content leaving one edge re-enters at the
  other.  Horizons are chosen from the state's measured momentum extent,
  and the wrapped tail mass is folded into the reported tail estimate.

* A full sojourn runs on a spectral window.  By the intertwining relation
  E_H(D) W- = W- E_H0(D), W- phi carries H-spectral mass only where phi
  carries position mass (H0 = Q), so on the grid most eigenmodes hold
  almost none of it.  The lightest modes are dropped while the most they
  can move the integral by stays within 1e-3 tol, and that bound is
  charged to the tail estimate.

* Cook's W+- phi = phi + i s int_0^T e^{i s tau H} V e^{-i s tau H0} phi dtau
  is exact on H's eigenmodes and the grid nodes, so its cost does not
  depend on T, which is always the revival cap pi/h - _MARGIN.  Only the
  integrand beyond the cap, probed and fitted, is left as error.
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
    certify_support,
    norm,
    sobolev_norm,
    transform,
)
from .localization import LocalizationProfile, localization_integral
from .resolvent import FiniteRankModel
from .scattering import _state_scattering, state_support
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

_T_BLOCK = 2048        # free-route times, or Cook's support nodes, per batch
                       # (memory control)
_TAIL_SAMPLES = 128    # full-sojourn integrand samples a side for the tail fit
_MARGIN = 5.0          # horizon padding beyond momentum extent + window
_MASS_EPS = 1e-8       # momentum tail mass treated as already escaped
                       # (the neglected mass is charged to the tail estimate;
                       #  a larger horizon would instead inflate the
                       #  periodic-wraparound error, which grows with T)


def _canon(value, allowed, what):
    key = str(value).lower().replace("_", "").replace("-", "")
    if key not in allowed:
        raise ValidationError(f"{what} must be one of {sorted(allowed)}, got {value!r}")
    return key


# ---------------------------------------------------------------------------
# propagator

@dataclass(frozen=True)
class Propagator:
    """Eigendecomposition of the discretized H = Q + V.

    For V = 0 the decomposition is trivial: eigenvalues are the grid nodes
    and `eigenvectors` is None, meaning the identity.
    """

    model: FiniteRankModel
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None

    @property
    def grid(self) -> GridSpec:
        return self.model.grid

    @property
    def is_diagonal(self) -> bool:
        return self.eigenvectors is None

    def coefficients(self, phi: GridFunction) -> np.ndarray:
        """Eigenbasis coefficients of a position-representation state."""
        if self.is_diagonal:
            return np.asarray(phi.samples)
        return self._apply(phi.samples, adjoint=True)

    def _apply(self, z: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """U z, or U^* z, for complex z.

        A real U is applied to the real and imaginary parts of z in turn:
        a mixed product would first copy U to complex.
        """
        U = self.eigenvectors
        if np.isrealobj(U):
            A = U.T if adjoint else U
            return A @ z.real + 1j * (A @ z.imag)
        return (U.conj().T if adjoint else U) @ z


def build_propagator(model: FiniteRankModel) -> Propagator:
    if model.rank == 0 or not np.any(model.coupling_array()):
        return Propagator(model, model.grid.position_nodes().copy(), None)
    return Propagator(model, *model.eigendecomposition)


def evolve(prop: Propagator, phi: GridFunction, t: float, which: str = "full") -> GridFunction:
    which = _canon(which, {"free", "full"}, "evolution kind")
    if phi.grid != prop.grid:
        raise ValidationError("state lives on a different grid than the propagator")
    if phi.representation is not Representation.POSITION:
        raise ValidationError("evolve expects a position-representation state")
    if which == "free" or prop.is_diagonal:
        out = np.exp(-1j * t * prop.grid.position_nodes()) * phi.samples
    else:
        c = prop.coefficients(phi)
        out = prop._apply(np.exp(-1j * t * prop.eigenvalues) * c)
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


def _effective_radius(f: LocalizationProfile, tol: float) -> float:
    """Radius beyond which the remaining integral of f is negligible."""
    if math.isfinite(f.support_radius):
        return float(f.support_radius)
    total = abs(localization_integral(f))
    target = max(tol, 1e-12) * total / 100.0
    u = max(1.0, 2.0 * f.delta)
    half = total / 2.0
    for _ in range(60):
        if abs(half - float(np.real(f.antiderivative(np.array([u]))[0]))) < target:
            return u
        u *= 1.5
    raise ValidationError("localization profile decays too slowly for a finite horizon")


def _sojourn_horizon(dens: np.ndarray, grid: GridSpec, f: LocalizationProfile,
                     r: float, tol: float) -> tuple:
    """(radius, K, T): window radius, momentum extent, time horizon.

    T covers the state's momentum extent K plus the window f(./r) out to
    its effective radius, with a fixed margin.
    """
    radius = _effective_radius(f, tol)
    K = _momentum_extent(dens, grid, _MASS_EPS * max(dens.sum() * grid.momentum_spacing, 1e-30))
    return radius, K, K + r * radius + _MARGIN


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
    return np.real(f.window_average(k - half, k + half, r))


def _require_sojourn_profile(f: LocalizationProfile):
    if not getattr(f, "nonnegative", False):
        raise ValidationError("sojourn times require a nonnegative localization profile")


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
    phases = np.exp(-1j * np.outer(g.position_nodes()[on], taus))
    return g.spacing * (vm.conj() @ (phases * phi.samples[on, None]))


def _cook_tail(prop: Propagator, phi: GridFunction, s: float, cap: float) -> tuple:
    """(tail, zeta): Cook's integrand sum_j |lambda_j| |c_j(s tau)| beyond
    the cap, from a coarse probe of the couplings Cook integrates.

    The probe stops at the cap, half the discrete revival period 2 pi / h
    less _MARGIN: beyond it the trigonometric-polynomial couplings alias
    back up and no longer approximate the continuum integrand.  The tail
    is the last probed amplitude over the probe interval holding the cap
    (a left-endpoint sum), plus a power law C tau^-zeta, fitted over the
    probe's tail half, past the probe's end.
    """
    step = 0.5
    probe = np.arange(step, cap, step)
    if probe.size == 0:
        raise ValidationError(
            f"grid too coarse for the wave operator: its revival cap pi/h - {_MARGIN:g} "
            f"= {cap:.3g} leaves no probe step; raise grid.M")
    amps = np.abs(_cook_couplings(prop, phi, s * probe)).max(axis=0)
    beyond, zeta = _fitted_tail(probe, amps)
    lam_sum = float(np.sum(np.abs(prop.model.coupling_array())))
    return lam_sum * float(step * amps[-1] + beyond), zeta


def wave_operator(prop: Propagator, phi: GridFunction, sign: str = "minus",
                  tol: float = 1e-4, return_info: bool = False):
    """W+- phi by Cook's integral over [0, T], exact on H's eigenmodes, with
    T the revival cap pi/h - _MARGIN; the probed tail of the integrand
    beyond T is held to tol.  The independent check of W- phi is the
    stationary formula in scattering._state_scattering.

    With return_info the result comes with a dict: "horizon" (T, 0 when
    V = 0), "tail_estimate" (the error estimate held to tol) and "zeta"
    (the decay exponent of the integrand).
    """
    sign = _canon(sign, {"minus", "plus"}, "wave-operator sign")
    if phi.representation is not Representation.POSITION:
        raise ValidationError("wave_operator expects a position-representation state")
    if phi.grid != prop.grid:
        raise ValidationError("state lives on a different grid than the propagator")
    if prop.is_diagonal:
        info = {"horizon": 0.0, "tail_estimate": 0.0, "zeta": math.inf}
        return (phi, info) if return_info else phi

    s = -1.0 if sign == "minus" else 1.0
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
    phi vanishes add nothing; the kernel is built _T_BLOCK of phi's
    support nodes at a time.
    """
    g = prop.grid
    lam = prop.model.coupling_array()
    vm = prop.model.vector_matrix()
    on = np.flatnonzero(phi.samples)
    x, E = g.position_nodes()[on], prop.eigenvalues
    b = (g.spacing * vm[:, on].conj() * phi.samples[on]).T  # (n, N): h conj(v_j) phi
    kb = np.zeros((E.size, lam.size), dtype=complex)
    for lo in range(0, on.size, _T_BLOCK):
        theta = (s * horizon) * np.subtract.outer(E, x[lo:lo + _T_BLOCK])
        kb += (np.exp(0.5j * theta) * np.sinc(theta / (2.0 * math.pi))) @ b[lo:lo + _T_BLOCK]
    W_eig = prop._apply((lam[:, None] * vm).T, adjoint=True)  # (M, N): U^* lambda_j v_j
    return phi.samples + 1j * s * horizon * prop._apply(np.sum(W_eig * kb, axis=1))


# ---------------------------------------------------------------------------
# sojourn times

def _sliding_sum(dens: np.ndarray, grid: GridSpec, f: LocalizationProfile,
                 r: float, tgrid: np.ndarray, radius: float) -> np.ndarray:
    """g(t) = dk * sum_j dens_j fbar((k_j - t)/r) over a t grid.

    fbar is the cell average of f(./r); only cells meeting the window
    support [t - r radius, t + r radius] are touched.
    """
    k = grid.momentum_nodes()
    dk = grid.momentum_spacing
    half = 0.5 * dk
    out = np.zeros(tgrid.size)
    span = r * radius + dk
    for lo in range(0, tgrid.size, _T_BLOCK):
        tb = tgrid[lo:lo + _T_BLOCK]
        i0 = np.searchsorted(k, tb.min() - span)
        i1 = np.searchsorted(k, tb.max() + span)
        if i0 >= i1:
            continue
        offs = k[None, i0:i1] - tb[:, None]
        fb = np.real(f.window_average(offs - half, offs + half, r))
        out[lo:lo + _T_BLOCK] = dk * (fb @ dens[i0:i1])
    return out


def _momentum_density(phi: GridFunction) -> np.ndarray:
    if phi.representation is Representation.POSITION:
        return np.abs(transform(phi).samples) ** 2
    return np.abs(phi.samples) ** 2


def _free_tails(dens: np.ndarray, grid: GridSpec, f: LocalizationProfile,
                r: float, T: float) -> tuple:
    """(hi, lo): the exact integrals over t > T of the free integrands
    dk sum_k dens_k f((k - t)/r) and dk sum_k dens_k f((k + t)/r).

    Each leaves r*(I/2 +- A((k -+ T)/r)) per momentum node, a closed form
    in the profile antiderivative.  No decay fit is involved, so a plateau
    in the integrand (narrow state, large r) cannot mislead them; for
    compactly supported profiles both vanish identically once T covers the
    momentum extent plus r times the window radius.  Neither is clamped at
    zero: a signed profile may leave a negative side.
    """
    k = grid.momentum_nodes()
    half_int = 0.5 * float(np.real(f.integral()))
    w = r * grid.momentum_spacing
    hi = w * float(np.sum(dens * (half_int + np.real(f.antiderivative((k - T) / r)))))
    lo = w * float(np.sum(dens * (half_int - np.real(f.antiderivative((k + T) / r)))))
    return hi, lo


def _free_time_grid(t0: float, T: float, r: float) -> np.ndarray:
    """Trapezoid nodes on [t0, T] for the free sliding-window integrands."""
    dt = min(0.05, 0.005 * math.sqrt(max(r, 1.0)))
    return np.linspace(t0, T, int(math.ceil((T - t0) / dt)) + 1)


def _free_numeric(phi: GridFunction, f: LocalizationProfile, r: float,
                  tol: float) -> tuple:
    g = phi.grid
    dens = _momentum_density(phi)
    radius, _, T = _sojourn_horizon(dens, g, f, r, tol)
    tgrid = _free_time_grid(-T, T, r)
    value = float(np.trapezoid(_sliding_sum(dens, g, f, r, tgrid, radius), tgrid))
    return value, sum(_free_tails(dens, g, f, r, T)), math.inf


def _full_sojourn(prop: Propagator, psi: GridFunction, f: LocalizationProfile,
                  r: float, tol: float) -> tuple:
    g = prop.grid
    dk = g.momentum_spacing
    dens_psi = _momentum_density(psi)
    radius, K, T = _sojourn_horizon(dens_psi, g, f, r, tol)

    fbar = _f_cell_averages(f, g, r)
    fmax = float(np.abs(fbar).max())
    win = np.nonzero(np.abs(fbar) > 1e-16 * max(fmax, 1e-300))[0]
    c = prop.coefficients(psi)
    kept, discarded, window_term = _spectral_window(c, g.spacing, 2.0 * T * fmax, tol)
    Bw = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(prop.eigenvectors[:, kept], axes=0),
                                    axis=0), axes=0)[win]
    Bw *= g.spacing / math.sqrt(2.0 * math.pi)
    c, E = c[kept], prop.eigenvalues[kept]
    G = dk * (Bw.conj().T * fbar[win]) @ Bw
    kernel = 2.0 * T * np.sinc(np.subtract.outer(E, E) * (T / math.pi))
    value = float(np.real(c.conj() @ (G * kernel) @ c))

    half = np.linspace(0.5 * T, T, _TAIL_SAMPLES)
    times = np.concatenate((-half[::-1], half))
    hat = Bw @ (np.exp(-1j * np.outer(E, times)) * c[:, None])
    gabs = np.abs(dk * (fbar[win] @ (np.abs(hat) ** 2)))
    tail_hi, z_hi = _fitted_tail(half, gabs[_TAIL_SAMPLES:])
    tail_lo, z_lo = _fitted_tail(half, gabs[:_TAIL_SAMPLES][::-1])
    tail, zeta = tail_hi + tail_lo, min(z_hi, z_lo)
    # The momentum box is periodic with period 2*cutoff: content at node k
    # re-enters the window spuriously once |t| reaches period - |k| - r*rho,
    # and stays in it for at most one full window transit.  Charge that
    # occupancy, and the mass beyond the truncation extent K, to the tail.
    kn = np.abs(g.momentum_nodes())
    reach = r * radius
    overlap = np.clip(T - (2.0 * g.momentum_cutoff - kn - reach), 0.0, 2.0 * reach)
    tail += float((dens_psi * overlap).sum() * dk)
    tail += float(dens_psi[kn > K].sum() * dk) * 2.0 * reach
    return value, tail + window_term, zeta, kept.size, discarded


def _spectral_window(c: np.ndarray, h: float, span: float, tol: float) -> tuple:
    """(kept, discarded mass, charge) of the eigenmodes a sojourn runs on.

    Dropping modes that hold a share delta of ||psi||^2 moves each sample
    dk sum_k fbar_k |psi_t(k)|^2 by at most max|fbar| ||psi||^2 (2 sqrt(delta)
    + delta); span = 2T max|fbar| turns that into a bound on the integral,
    the charge.  The smallest modes go while the charge stays within
    1e-3 tol, a negligible part of the tolerance the tail is held to.
    """
    mass = h * np.abs(c) ** 2
    order = np.argsort(mass, kind="stable")
    dropped = np.concatenate(([0.0], np.cumsum(mass[order])))  # the i lightest
    total = float(dropped[-1])
    share = dropped / max(total, 1e-300)
    charges = span * total * (2.0 * np.sqrt(share) + share)
    n_drop = int(np.searchsorted(charges, 1e-3 * tol, side="right")) - 1
    return np.sort(order[n_drop:]), float(dropped[n_drop]), float(charges[n_drop])


def sojourn(prop: Propagator, phi: GridFunction, f: LocalizationProfile, r: float,
            which: str = "full", w_minus_phi: GridFunction | None = None,
            tol: float = 1e-6, return_info: bool = False):
    """Sojourn time of the localized evolution at scale r.

    With return_info the result comes with a dict: "tail_estimate" (the
    error estimate held to tol, the spectral-window charge included),
    "zeta" (the measured decay exponent of the integrand), "modes_kept"
    (the eigenmodes the full evolution ran on; M for the free routes,
    which drop none) and "discarded_mass" (the part of ||W- phi||^2 on the
    dropped modes).
    """
    which = _canon(which, {"freeanalytic", "freenumeric", "full"}, "sojourn kind")
    _require_sojourn_profile(f)
    if r <= 0:
        raise ValidationError("localization scale r must be positive")
    modes, discarded = phi.grid.points, 0.0
    if which == "freeanalytic":
        value = r * norm(phi) ** 2 * float(np.real(localization_integral(f)))
        tail, zeta = 0.0, math.inf
    elif which == "freenumeric":
        value, tail, zeta = _free_numeric(phi, f, r, tol)
    else:
        psi = w_minus_phi
        if psi is None:
            if not prop.is_diagonal:
                raise ValidationError(
                    "full sojourn needs w_minus_phi (the incoming wave-operator image)")
            psi = phi
        if prop.is_diagonal:
            # V = 0: the full evolution is the free one, bit for bit
            value, tail, zeta = _free_numeric(psi, f, r, tol)
        else:
            value, tail, zeta, modes, discarded = _full_sojourn(prop, psi, f, r, tol)
    if tail > max(tol, 1e-12) * max(abs(value), 1.0):
        raise ToleranceError(
            f"sojourn tail estimate {tail:.2e} exceeds tolerance; increase horizon")
    info = {"tail_estimate": tail, "zeta": zeta, "modes_kept": modes,
            "discarded_mass": discarded}
    return (value, info) if return_info else value


# ---------------------------------------------------------------------------
# propagation functional

def _closed_form_grid(phi: GridFunction, f: LocalizationProfile, r: float) -> float:
    if not math.isfinite(sobolev_norm(phi, 1.5)):
        raise ValidationError("propagation functional needs a state with s > 1 smoothness")
    g = phi.grid
    dens = _momentum_density(phi)
    k = g.momentum_nodes()
    A = np.real(f.antiderivative(k / r))
    return 2.0 * r * g.momentum_spacing * float(dens @ A)


def _closed_form_density(dens: MomentumDensity, f: LocalizationProfile, r: float) -> float:
    from scipy.integrate import quad

    lo, hi = dens.support
    if not (math.isfinite(lo) and math.isfinite(hi)):
        span = 30.0
        lo = dens.mean - span if not math.isfinite(lo) else lo
        hi = dens.mean + span if not math.isfinite(hi) else hi
    pts = [p for p in (-r * f.delta, r * f.delta,
                       -r * f.support_radius, r * f.support_radius)
           if math.isfinite(p) and lo < p < hi]

    def integrand(k):
        return float(dens.fn(np.array([k]))[0] * np.real(f.antiderivative(np.array([k / r]))[0]))

    val, _ = quad(integrand, lo, hi, points=sorted(set(pts)) or None, limit=200)
    return 2.0 * r * val


def _direct_functional(phi: GridFunction, f: LocalizationProfile, r: float,
                       tol: float) -> float:
    """int_0^T (g-(t) - g+(t)) dt with g-+ the free integrands centred at
    +-t; the part beyond T is exactly hi - lo of _free_tails."""
    g = phi.grid
    dens = _momentum_density(phi)
    radius, _, T = _sojourn_horizon(dens, g, f, r, tol)
    tgrid = _free_time_grid(0.0, T, r)
    diff = (_sliding_sum(dens, g, f, r, tgrid, radius)
            - _sliding_sum(dens, g, f, r, -tgrid, radius))
    value = float(np.trapezoid(diff, tgrid))
    hi, lo = _free_tails(dens, g, f, r, T)
    if abs(hi - lo) > max(tol, 1e-12) * max(abs(value), 1.0):
        raise ToleranceError(
            f"propagation-functional horizon insufficient (tail {hi - lo:.2e})")
    return value


def propagation_functional(phi, f: LocalizationProfile, r: float,
                           half: str = "closedform", tol: float = 1e-8) -> float:
    """Half-line propagation functional I_r.

    half = ClosedForm evaluates the momentum-space reduction
    I_r = 2r int dens(k) A(k/r) dk (A the signed antiderivative of f);
    it accepts either a GridFunction or an analytic MomentumDensity.
    half = Direct integrates the commutator expression over time and is
    grid-only; the part beyond its horizon, known in closed form, is held
    to tol.
    """
    half = _canon(half, {"closedform", "direct"}, "functional route")
    if half == "closedform":
        if isinstance(phi, MomentumDensity):
            return _closed_form_density(phi, f, r)
        return _closed_form_grid(phi, f, r)
    if isinstance(phi, MomentumDensity):
        raise ValidationError("the direct route needs a grid state, not an analytic density")
    if not math.isfinite(sobolev_norm(phi, 1.5)):
        raise ValidationError("propagation functional needs a state with s > 1 smoothness")
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


def _fit_power_law(rs: np.ndarray, taus: np.ndarray, floor: float) -> dict:
    """tau(r) = tau_inf + c r^-beta through the last three points.

    beta solves a one-dimensional root problem on the gap ratio; the
    residual is evaluated at the earliest fitted-adjacent point when one
    exists (three points determine the model exactly).  A final gap at or
    below ``floor`` counts as converged rather than as a fit failure: once
    the sequence stops moving at the level of the quadrature tails there
    is nothing left to extrapolate, and the largest-r value is the limit.
    """
    from scipy.optimize import brentq

    r1, r2, r3 = rs[-3], rs[-2], rs[-1]
    t1, t2, t3 = taus[-3], taus[-2], taus[-1]
    g12, g23 = t1 - t2, t2 - t3
    if abs(g23) <= floor:
        return {"tau_inf": float(t3), "beta": math.inf,
                "fit_residual": float(max(abs(g12), abs(g23))), "fit_ok": True}
    if g12 / g23 <= 1.0:
        warnings.warn("time-delay sweep gaps are not contracting; extrapolation "
                      "falls back to the largest-r value", stacklevel=3)
        return {"tau_inf": float(t3), "beta": math.nan,
                "fit_residual": math.nan, "fit_ok": False}

    target = g12 / g23

    def h(beta):
        return (r1 ** -beta - r2 ** -beta) / (r2 ** -beta - r3 ** -beta) - target

    try:
        beta = brentq(h, 1e-3, 16.0)
    except ValueError:
        warnings.warn("power-law exponent out of bracket; extrapolation falls "
                      "back to the largest-r value", stacklevel=3)
        return {"tau_inf": float(t3), "beta": math.nan,
                "fit_residual": math.nan, "fit_ok": False}
    c = g23 / (r2 ** -beta - r3 ** -beta)
    tau_inf = t3 - c * r3 ** -beta
    if rs.size >= 4:
        pred = tau_inf + c * rs[-4] ** -beta
        residual = abs(pred - taus[-4])
    else:
        residual = math.nan
    return {"tau_inf": float(tau_inf), "beta": float(beta),
            "fit_residual": float(residual), "fit_ok": True}


def time_delay_sweep(prop: Propagator, curve, phi: GridFunction,
                     f: LocalizationProfile, r_list, tol: float = 1e-6) -> tuple:
    """Sojourn-time sweep over r with power-law extrapolation.

    Returns (records, summary): one SojournRecord per r, and a summary
    dict with tau_inf, beta, fit_residual, ew_value, rel_gap, the
    measured integrand decay exponent and wave_operator_route_gap, the
    norm of Cook's W- phi less the stationary one.
    """
    _require_sojourn_profile(f)
    rs = np.asarray(sorted(float(r) for r in r_list))
    if rs.size == 0 or rs[0] <= 0:
        raise ValidationError("r_list must contain positive scales")

    if curve.model is not prop.model:
        raise ValidationError("the scattering curve was tabulated for another model "
                              "than the propagator's")
    support = state_support(phi)
    certify_support(phi, support, s=3.0, excluded=curve.exclusions)
    s_phi, ew, _, w_stat = _state_scattering(curve.model, phi, curve.exclusions)

    w_phi = wave_operator(prop, phi, "minus", tol=max(10.0 * tol, 1e-5))
    route_gap = norm(GridFunction(phi.grid, Representation.POSITION,
                                  w_phi.samples - w_stat.samples))

    int_f = float(np.real(localization_integral(f)))
    # V = 0 collapses the full sojourn to the free one as an operator
    # identity; take the analytic route so the tau columns are exact zeros
    # rather than quadrature residue
    which = "freeanalytic" if prop.is_diagonal else "full"
    records = []
    zetas = []
    for r in rs:
        T0 = r * norm(phi) ** 2 * int_f
        T0_S = r * norm(s_phi) ** 2 * int_f
        T, info = sojourn(prop, phi, f, r, which, w_minus_phi=w_phi,
                          tol=tol, return_info=True)
        zetas.append(info["zeta"])
        tau_in = T - T0
        tau_sym = T - 0.5 * (T0 + T0_S)
        i_phi = propagation_functional(phi, f, r, "closedform")
        i_s = propagation_functional(s_phi, f, r, "closedform")
        tau_free = 0.5 * (i_s - i_phi)
        records.append(SojournRecord(float(r), T0, T0_S, T, tau_in, tau_sym,
                                     tau_free, info["tail_estimate"]))

    taus = np.array([rec.tau_in for rec in records])
    if rs.size >= 3:
        # gaps below the quadrature tails carry no information about the
        # r -> infinity approach; treat them as converged, not as data
        floor = 2.0 * max(rec.tail_estimate for rec in records[-3:])
        floor += 4e-13 * max(1.0, float(np.max(np.abs(taus))))
        summary = _fit_power_law(rs, taus, floor=floor)
    else:
        summary = {"tau_inf": float(taus[-1]), "beta": math.nan,
                   "fit_residual": math.nan, "fit_ok": rs.size > 0}
    summary["ew_value"] = float(ew)
    summary["abs_gap"] = abs(summary["tau_inf"] - ew)
    summary["rel_gap"] = summary["abs_gap"] / abs(ew) if abs(ew) > 1e-9 else math.nan
    finite_z = [z for z in zetas if math.isfinite(z)]
    summary["zeta_measured"] = float(np.median(finite_z)) if finite_z else math.inf
    summary["wave_operator_route_gap"] = route_gap
    return records, summary
