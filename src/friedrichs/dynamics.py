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
from .resolvent import FiniteRankModel, _stationary_wave_operator
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

_T_BLOCK = 2048        # free-route times (Cook: panels) per batch (memory control)
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


def build_propagator(model: FiniteRankModel, spec: GridSpec | None = None) -> Propagator:
    if spec is not None and spec != model.grid:
        raise ValidationError("model vectors do not live on the requested grid")
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


def _tail_fit(tax: np.ndarray, gabs: np.ndarray) -> tuple:
    """Fit |g| ~ C t^-zeta over the tail half of the axis; return (C, zeta).

    An integrand that is numerically dead over the fit window reports
    (0, inf): there is nothing left to truncate.
    """
    T = tax[-1]
    floor = max(gabs.max(), 1e-300) * 1e-14
    sel = (tax > 0.5 * T) & (gabs > floor)
    if sel.sum() < 4:
        return 0.0, math.inf
    slope, intercept = np.polyfit(np.log(tax[sel]), np.log(gabs[sel]), 1)
    return math.exp(intercept), -slope


def _tail_integral(C: float, zeta: float, T: float) -> float:
    """Integral of the fitted power law beyond T; inf when not integrable."""
    if C == 0.0:
        return 0.0
    if zeta <= 1.0:
        return math.inf
    return C * T ** (1.0 - zeta) / (zeta - 1.0)


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


def _wave_horizon(prop: Propagator, phi: GridFunction) -> tuple:
    """Probe |c_j(tau)| coarsely; return (horizon, tail, zeta).

    The probe stops at half the discrete revival period 2 pi / h: beyond
    that the trigonometric-polynomial couplings alias back up and no
    longer approximate the continuum integrand.  tail(T) estimates Cook's
    integrand sum_j |lambda_j| |c_j| beyond T: the probed amplitudes past
    T, plus a power law C tau^-zeta, fitted over the probe's tail half,
    past the probe's end.
    """
    g = prop.grid
    t_cap = g.momentum_cutoff - _MARGIN
    step = 0.5
    probe = np.arange(step, t_cap, step)
    amps = np.abs(_cook_couplings(prop, phi, probe)).max(axis=0)
    cut = max(amps.max() * 1e-11, 1e-300)
    alive = np.nonzero(amps > cut)[0]
    T = probe[alive[-1]] + _MARGIN if alive.size else _MARGIN
    C, zeta = _tail_fit(probe, amps)
    beyond = _tail_integral(C, zeta, probe[-1])
    lam_sum = float(np.sum(np.abs(prop.model.coupling_array())))

    def tail(horizon: float) -> float:
        return lam_sum * float(step * amps[probe > horizon].sum() + beyond)

    return min(float(T), t_cap), tail, zeta


def wave_operator(prop: Propagator, phi: GridFunction, sign: str = "minus",
                  horizon: float | None = None, tol: float = 1e-4,
                  return_info: bool = False):
    """W+- phi by Cook's integral over [0, horizon], with Gauss-Legendre
    panels; while the tail estimate beyond the horizon exceeds tol the
    horizon grows by 1.5x, up to the revival cap.  The independent check of
    W- phi is resolvent._stationary_wave_operator.

    With return_info the result comes with a dict: "horizon" (the Cook
    horizon), "tail_estimate" (the error estimate held to tol), "zeta" (the
    decay exponent of the integrand) and "attempts" (the number of horizons
    tried, 0 when V = 0).
    """
    sign = _canon(sign, {"minus", "plus"}, "wave-operator sign")
    if phi.representation is not Representation.POSITION:
        raise ValidationError("wave_operator expects a position-representation state")
    if phi.grid != prop.grid:
        raise ValidationError("state lives on a different grid than the propagator")
    if prop.is_diagonal:
        info = {"horizon": 0.0, "tail_estimate": 0.0, "zeta": math.inf, "attempts": 0}
        return (phi, info) if return_info else phi

    probe_T, tail, zeta = _wave_horizon(prop, phi)
    g = prop.grid
    cap = g.momentum_cutoff - _MARGIN
    if horizon is None:
        horizon = probe_T
    if not 0.0 < horizon <= cap:
        raise ValidationError(
            f"horizon must lie in (0, {cap:g}] on this grid: beyond "
            "that the discrete couplings recur and the tail estimate "
            "is void")
    attempts = 1
    while tail(horizon) > max(tol, 1e-12):
        if 1.5 * horizon > cap:
            raise ToleranceError(
                f"wave-operator tail estimate {tail(horizon):.2e} exceeds "
                f"tolerance {tol:g}; increase horizon or enlarge the grid")
        horizon = 1.5 * horizon
        attempts += 1
    if zeta <= 2.0:
        warnings.warn(
            f"measured integrand decay zeta = {zeta:.2f} <= 2; wave-operator "
            "convergence is outside the certified regime", stacklevel=2)
    result = GridFunction(g, Representation.POSITION, _cook_integral(
        prop, phi, -1.0 if sign == "minus" else 1.0, horizon))
    info = {"horizon": horizon, "tail_estimate": tail(horizon), "zeta": zeta,
            "attempts": attempts}
    return (result, info) if return_info else result


def _cook_integral(prop: Propagator, phi: GridFunction, s: float,
                   horizon: float) -> np.ndarray:
    """phi + i s int_0^horizon e^{i s tau H} V e^{-i s tau H0} phi dtau."""
    lam = prop.model.coupling_array()
    nodes, weights = np.polynomial.legendre.leggauss(10)
    n_panels = max(int(math.ceil(horizon / 0.2)), 1)
    edges = np.linspace(0.0, horizon, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    hw = 0.5 * (edges[1] - edges[0])
    E = prop.eigenvalues
    W_eig = prop._apply((lam[:, None] * prop.model.vector_matrix()).T, adjoint=True)  # (M, N)
    # e^{iE tau} at tau = s (mid + hw node) factors into a panel phase and
    # a node phase, so the exponentials number M per panel, not per node
    acc = np.zeros((E.size, nodes.size), dtype=complex)
    for lo in range(0, n_panels, _T_BLOCK):
        mb = mid[lo:lo + _T_BLOCK]
        cc = _cook_couplings(prop, phi, s * (mb[:, None] + hw * nodes).ravel())
        summed = np.exp(1j * s * np.outer(E, mb)) @ cc.reshape(lam.size, mb.size, nodes.size)
        acc += np.einsum("mj,jmq->mq", W_eig, summed)
    node_phase = np.exp(1j * s * hw * np.outer(E, nodes))
    return phi.samples + 1j * s * prop._apply(node_phase * acc @ (hw * weights))


# ---------------------------------------------------------------------------
# sojourn times

def _sliding_sum(dens: np.ndarray, grid: GridSpec, f: LocalizationProfile,
                 r: float, tgrid: np.ndarray, sgn: float, radius: float) -> np.ndarray:
    """g(t) = dk * sum_j dens_j fbar((k_j - sgn t)/r) over a t grid.

    fbar is the cell average of f(./r); only cells meeting the window
    support [sgn t - r radius, sgn t + r radius] are touched.
    """
    k = grid.momentum_nodes()
    dk = grid.momentum_spacing
    half = 0.5 * dk
    out = np.zeros(tgrid.size)
    span = r * radius + dk
    for lo in range(0, tgrid.size, _T_BLOCK):
        tb = tgrid[lo:lo + _T_BLOCK]
        centers = sgn * tb
        i0 = np.searchsorted(k, centers.min() - span)
        i1 = np.searchsorted(k, centers.max() + span)
        if i0 >= i1:
            continue
        ks = k[i0:i1]
        offs = ks[None, :] - centers[:, None]
        fb = np.real(f.window_average(offs - half, offs + half, r))
        out[lo:lo + _T_BLOCK] = dk * (fb @ dens[i0:i1])
    return out


def _momentum_density(phi: GridFunction) -> np.ndarray:
    if phi.representation is Representation.POSITION:
        return np.abs(transform(phi).samples) ** 2
    return np.abs(phi.samples) ** 2


def _two_sided_tail(tgrid: np.ndarray, gvals: np.ndarray) -> tuple:
    """Truncation estimate beyond both ends of a symmetric time window."""
    half = tgrid.size // 2
    C_hi, z_hi = _tail_fit(tgrid[half:], np.abs(gvals[half:]))
    C_lo, z_lo = _tail_fit(-tgrid[:half][::-1], np.abs(gvals[:half][::-1]))
    tail = _tail_integral(C_hi, z_hi, tgrid[-1]) + _tail_integral(C_lo, z_lo, -tgrid[0])
    return tail, min(z_hi, z_lo)


def _free_tail_exact(dens: np.ndarray, grid: GridSpec, f: LocalizationProfile,
                     r: float, T: float) -> float:
    """Exact truncation tail of the free sojourn integral beyond [-T, T].

    Integrating the window f((k -+ t)/r) over t past T leaves
    r*(I/2 +- A((k -+ T)/r)) per momentum node, a closed form in the
    profile antiderivative.  No decay fit is involved, so a plateau in
    the integrand (narrow state, large r) cannot mislead the estimate;
    for compactly supported profiles the tail vanishes identically once
    T covers the momentum extent plus r times the window radius.
    """
    k = grid.momentum_nodes()
    half_int = 0.5 * float(np.real(f.integral()))
    beyond_hi = half_int + np.real(f.antiderivative((k - T) / r))
    beyond_lo = half_int - np.real(f.antiderivative((k + T) / r))
    per_node = np.maximum(beyond_hi, 0.0) + np.maximum(beyond_lo, 0.0)
    return float(r * grid.momentum_spacing * np.sum(dens * per_node))


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
    gvals = _sliding_sum(dens, g, f, r, tgrid, 1.0, radius)
    value = float(np.trapezoid(gvals, tgrid))
    tail = _free_tail_exact(dens, g, f, r, T)
    return value, tail, math.inf


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
    tail, zeta = _two_sided_tail(times, dk * (fbar[win] @ (np.abs(hat) ** 2)))
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
    if not math.isfinite(sobolev_norm(phi, 1.5, 0.0)):
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
    g = phi.grid
    dens = _momentum_density(phi)
    radius, _, T = _sojourn_horizon(dens, g, f, r, tol)
    tgrid = _free_time_grid(0.0, T, r)
    g_minus = _sliding_sum(dens, g, f, r, tgrid, 1.0, radius)
    g_plus = _sliding_sum(dens, g, f, r, tgrid, -1.0, radius)
    diff = g_minus - g_plus
    value = float(np.trapezoid(diff, tgrid))
    C, zeta = _tail_fit(tgrid[1:], np.abs(diff[1:]))
    tail = _tail_integral(C, zeta, tgrid[-1])
    if tail > max(tol, 1e-12) * max(abs(value), 1.0):
        raise ToleranceError(
            f"propagation-functional horizon insufficient (tail {tail:.2e})")
    return value


def propagation_functional(phi, f: LocalizationProfile, r: float,
                           half: str = "closedform", tol: float = 1e-8) -> float:
    """Half-line propagation functional I_r.

    half = ClosedForm evaluates the momentum-space reduction
    I_r = 2r int dens(k) A(k/r) dk (A the signed antiderivative of f);
    it accepts either a GridFunction or an analytic MomentumDensity.
    half = Direct integrates the commutator expression over time and is
    grid-only.
    """
    half = _canon(half, {"closedform", "direct"}, "functional route")
    if half == "closedform":
        if isinstance(phi, MomentumDensity):
            return _closed_form_density(phi, f, r)
        return _closed_form_grid(phi, f, r)
    if isinstance(phi, MomentumDensity):
        raise ValidationError("the direct route needs a grid state, not an analytic density")
    if not math.isfinite(sobolev_norm(phi, 1.5, 0.0)):
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


def _fit_power_law(rs: np.ndarray, taus: np.ndarray, floor: float = 0.0) -> dict:
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
    from .scattering import apply_scattering, ew_time_delay, state_support

    _require_sojourn_profile(f)
    rs = np.asarray(sorted(float(r) for r in r_list))
    if rs.size == 0 or rs[0] <= 0:
        raise ValidationError("r_list must contain positive scales")

    support = state_support(phi)
    certify_support(phi, support, s=3.0, excluded=getattr(curve, "exclusions", ()))
    s_phi = apply_scattering(curve, phi)
    ew = ew_time_delay(curve, phi)

    w_phi = wave_operator(prop, phi, "minus", tol=max(10.0 * tol, 1e-5))
    route_gap = norm(GridFunction(phi.grid, Representation.POSITION, w_phi.samples
                                  - _stationary_wave_operator(prop.model, phi).samples))

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
