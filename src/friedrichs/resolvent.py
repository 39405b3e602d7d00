"""Boundary values of resolvents on the real axis for finite-rank models.

The free Hamiltonian is multiplication by x, so every resolvent matrix
element is a Cauchy-type integral of a pair density g_jk = conj(v_j) v_k
over the position grid.  The boundary values r(x +- i0) are computed by a
principal-value quadrature plus the Sokhotski-Plemelj jump; higher orders
come from moving derivatives onto g_jk (integration by parts), never from
hypersingular kernels.

P.V. scheme: subtract a Gaussian-damped copy of the singular numerator,

    P.V. int g(k)/(k-x) dk
      = int [g(k) - g(x) e^{-((k-x)/w)^2}] / (k-x) dk
        + g(x) * (1/2) [E1(((L+x)/w)^2) - E1(((L-x)/w)^2)],

so the quadrature sees a smooth, boundary-decaying integrand (trapezoid
is then spectrally accurate) and the box correction is exact in terms of
the exponential integral.  The damping width w shrinks near the box edge.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np
from scipy.special import exp1

from ._errors import PointSpectrumProximity, ValidationError
from .grid import (
    GridFunction,
    GridSpec,
    Representation,
    boundary_decay,
    derivative,
    evaluate_many,
    evaluation_matrix,
    inner_product,
    sobolev_norm,
    transform,
)

__all__ = [
    "Side",
    "FiniteRankModel",
    "finite_rank_model",
    "BoundaryData",
    "PointSpectrum",
    "pv_integral",
    "boundary_matrix",
    "resolvent_matrix",
    "perturbation_determinant",
    "point_spectrum",
]

_ORTHO_TOL = 1e-10
_DECAY_TOL = 1e-12
_DET_FLOOR = 1e-8  # "at or near point spectrum" guard
_BOUNDARY_MARGIN = 10  # pv_integral refuses x within 10 h of the box edge
_DET_BLOCK = 1024  # energies per P.V. geometry in perturbation_determinant


class Side(Enum):
    PLUS = "plus"
    MINUS = "minus"


def _as_side(side) -> Side:
    if isinstance(side, Side):
        return side
    try:
        return Side(str(side).lower())
    except ValueError:
        raise ValidationError(f"side must be 'plus' or 'minus', got {side!r}") from None


@dataclass(frozen=True)
class FiniteRankModel:
    """Rank-N perturbation V = sum_j lambda_j |v_j><v_j| of H0 = Q.

    mu is the declared regularity of the vectors; it gates warnings for
    derivative orders, not evaluation.  Arrays derived from the vectors are
    computed on first use and kept for the model's lifetime.
    """

    grid: GridSpec
    couplings: tuple
    vectors: tuple
    mu: float = math.inf

    @property
    def rank(self) -> int:
        return len(self.couplings)

    def coupling_array(self) -> np.ndarray:
        return np.asarray(self.couplings, dtype=float)

    def vector_matrix(self) -> np.ndarray:
        """(N, M) array of vector samples; empty (0, M) for V = 0."""
        return self._vector_samples

    @cached_property
    def _vector_samples(self) -> np.ndarray:
        if self.rank:
            vm = np.vstack([v.samples for v in self.vectors])
        else:
            vm = np.zeros((0, self.grid.points), dtype=complex)
        vm.setflags(write=False)
        return vm

    @cached_property
    def vectors_momentum(self) -> np.ndarray:
        """(N, M) stacked momentum coefficients of the vectors."""
        if not self.rank:
            return np.zeros((0, self.grid.points), complex)
        return np.stack([transform(v).samples for v in self.vectors])

    @cached_property
    def eigendecomposition(self) -> tuple:
        """(E, U) with H = U diag(E) U^* for the discretized H = Q + V.

        When no vector has an imaginary part H is built, and decomposed, as
        a real symmetric matrix: U is then real, and the solve is several
        times faster than the complex one.
        """
        g = self.grid
        vm = self.vector_matrix()
        if not np.any(vm.imag):
            vm = vm.real
        V = g.spacing * (vm.T * self.coupling_array()) @ vm.conj()
        H = np.diag(g.position_nodes()) + V
        res = np.max(np.abs(H - H.conj().T)) / max(1.0, np.max(np.abs(H)))
        if res > 1e-12:
            raise ValidationError(f"discretized Hamiltonian asymmetry {res:.2e}")
        return np.linalg.eigh(H)

    @cached_property
    def _pair_store(self) -> dict:
        return {}

    def pair_density(self, j: int, k: int, order: int = 0) -> tuple:
        """(position samples, momentum coefficients) of the order-th spectral
        derivative of conj(v_j) v_k; the coefficients are the transform of
        those same samples, taken once per model."""
        key = (j, k, order)
        if key not in self._pair_store:
            if order == 0:
                g = np.conj(self.vectors[j].samples) * self.vectors[k].samples
            else:
                base = GridFunction(self.grid, Representation.POSITION,
                                    self.pair_density(j, k, 0)[0])
                g = derivative(base, order).samples
            phi = GridFunction(self.grid, Representation.POSITION, g)
            self._pair_store[key] = (phi.samples, transform(phi).samples)
        return self._pair_store[key]


def finite_rank_model(grid: GridSpec, vectors, couplings, mu: float = math.inf) -> FiniteRankModel:
    vectors = tuple(vectors)
    couplings = tuple(float(c) for c in couplings)
    if len(vectors) != len(couplings):
        raise ValidationError(
            f"got {len(vectors)} vectors but {len(couplings)} couplings")
    if not all(math.isfinite(c) for c in couplings):
        raise ValidationError("couplings must be finite reals")
    if not mu > 0:
        raise ValidationError("mu must be positive (inf is fine for Schwartz-class vectors)")
    for j, v in enumerate(vectors):
        if not isinstance(v, GridFunction):
            raise ValidationError(f"vector {j} is not a GridFunction")
        if v.grid != grid:
            raise ValidationError(f"vector {j} lives on a different grid")
        if v.representation is not Representation.POSITION:
            raise ValidationError(f"vector {j} must be in position representation")
        if boundary_decay(v) > _DECAY_TOL:
            raise ValidationError(
                f"vector {j} does not decay at the grid boundary "
                f"(level {boundary_decay(v):.2e} > {_DECAY_TOL:.0e})")
        s_chk = min(mu, 8.0)
        if not math.isfinite(sobolev_norm(v, s_chk, 0.0)):
            raise ValidationError(f"vector {j} has non-finite smoothness norm")
    for j in range(len(vectors)):
        for k in range(j, len(vectors)):
            ip = inner_product(vectors[j], vectors[k])
            target = 1.0 if j == k else 0.0
            if abs(ip - target) > _ORTHO_TOL:
                raise ValidationError(
                    f"vectors {j},{k} violate orthonormality: "
                    f"|<v{j},v{k}> - {target:g}| = {abs(ip - target):.2e}")
    return FiniteRankModel(grid, couplings, vectors, float(mu))


@dataclass(frozen=True)
class BoundaryData:
    """r^(n)(x +- i0) matrix with its determinant (order 1 only)."""

    energy: float
    side: Side
    order: int
    matrix: np.ndarray
    determinant: complex | None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class PointSpectrum:
    eigenvalues: tuple
    radii: tuple


# ---------------------------------------------------------------------------
# principal-value machinery

class _PVPrepared:
    """Shared geometry for P.V. integrals of many densities at the same x's."""

    def __init__(self, grid: GridSpec, xs: np.ndarray):
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        L, h = grid.half_width, grid.spacing
        if np.any(L - np.abs(xs) < _BOUNDARY_MARGIN * h):
            worst = xs[np.argmax(np.abs(xs))]
            raise ValidationError(
                f"energy {worst:g} is within {_BOUNDARY_MARGIN} grid spacings "
                f"of the box edge +-{L:g}")
        self.grid = grid
        self.xs = xs
        nodes = grid.position_nodes()
        self.K = nodes[None, :] - xs[:, None]          # (Nx, M)
        self.w = np.minimum(1.0, (L - np.abs(xs)) / 6.0)
        self.damp = np.exp(-(self.K / self.w[:, None]) ** 2)
        self.near = np.abs(self.K) < 1e-6
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            self.inv = np.where(self.near, 0.0, 1.0 / self.K)
        # exact box correction for the damped singular part
        a2 = ((L + xs) / self.w) ** 2
        b2 = ((L - xs) / self.w) ** 2
        self.correction = 0.5 * (exp1(a2) - exp1(b2))
        self.eval_mat = evaluation_matrix(grid, xs)    # (Nx, M) band-limited

    def pv(self, samples, vals, d1_vals, d2_vals) -> np.ndarray:
        """P.V. integral of samples/(k - x) at every x, vectorized.

        vals, d1_vals and d2_vals are the density and its first two
        derivatives at the xs; the derivatives enter only at near-node xs.
        """
        num = samples[None, :] - vals[:, None] * self.damp
        integrand = num * self.inv
        if self.near.any():
            # limit of the subtracted quotient across the singularity
            taylor = (d1_vals[:, None]
                      + self.K * (0.5 * d2_vals[:, None]
                                  + vals[:, None] / (self.w ** 2)[:, None]))
            integrand = np.where(self.near, taylor, integrand)
        total = self.grid.spacing * integrand.sum(axis=1)
        return total + vals * self.correction


def pv_integral(g: GridFunction, x: float) -> complex:
    """P.V. of g(k)/(k-x) dk over the box, x allowed anywhere off the edge."""
    if g.representation is not Representation.POSITION:
        raise ValidationError("pv_integral expects a position-representation density")
    prep = _PVPrepared(g.grid, np.array([float(x)]))
    vals, d1, d2 = (evaluate_many(derivative(g, o), prep.xs) for o in range(3))
    return complex(prep.pv(np.asarray(g.samples), vals, d1, d2)[0])


# ---------------------------------------------------------------------------
# boundary matrices and the determinant

def _boundary_batch(model: FiniteRankModel, prep: _PVPrepared, side: Side,
                    orders=(1,)) -> list:
    """r^(n)(x +- i0) at every energy of prep, one (Nx, N, N) array per n in
    orders; each pair density's orders min-1 .. max+1 are interpolated once."""
    side = _as_side(side)
    if min(orders) < 1:
        raise ValidationError("derivative order n must be >= 1")
    for n in sorted(orders):
        if model.mu < n + 1:
            warnings.warn(
                f"declared regularity mu = {model.mu:g} is below n + 1 = {n + 1}; "
                "boundary values of this order are outside the vectors' certified class",
                stacklevel=3)
    N = model.rank
    lo = min(orders) - 1
    outs = [np.zeros((prep.xs.size, N, N), dtype=complex) for _ in orders]
    sign = 1.0 if side is Side.PLUS else -1.0
    for j in range(N):
        for k in range(N):
            vals = [prep.eval_mat @ model.pair_density(j, k, o)[1]
                    for o in range(lo, max(orders) + 2)]
            for out, n in zip(outs, orders):
                v, d1, d2 = vals[n - 1 - lo:n + 2 - lo]
                pv = prep.pv(model.pair_density(j, k, n - 1)[0], v, d1, d2)
                out[:, j, k] = (pv + sign * 1j * math.pi * v) / math.factorial(n - 1)
    return outs


def boundary_matrix(model: FiniteRankModel, x: float, side, n: int = 1) -> BoundaryData:
    side = _as_side(side)
    mat = _boundary_batch(model, _PVPrepared(model.grid, float(x)), side, (n,))[0][0]
    det = None
    if n == 1:
        det = complex(np.linalg.det(np.eye(model.rank) + mat @ np.diag(model.coupling_array())))
    return BoundaryData(float(x), side, n, mat, det)


def resolvent_matrix(model: FiniteRankModel, bd: BoundaryData) -> np.ndarray:
    """X_jk = <v_j, R(x +- i0) v_k> from the rank-N linear system."""
    if bd.order != 1:
        raise ValidationError("resolvent_matrix needs order n = 1 boundary data")
    if abs(bd.determinant) < _DET_FLOOR:
        raise PointSpectrumProximity(
            f"energy {bd.energy:g} is at or near the point spectrum "
            f"(|D| = {abs(bd.determinant):.2e})")
    A = np.eye(model.rank) + bd.matrix @ np.diag(model.coupling_array())
    return np.linalg.solve(A, bd.matrix)


def perturbation_determinant(model: FiniteRankModel, x: float | np.ndarray,
                             side) -> complex | np.ndarray:
    """D(x +- i0) = det(I + r(x +- i0) diag(lambda)).

    x is a number (returns complex) or a 1-D array of energies (returns a
    complex array); one P.V. geometry serves each block of _DET_BLOCK energies.
    """
    xs = np.asarray(x, dtype=float)
    if xs.ndim > 1:
        raise ValidationError("energies must be a number or a 1-D array")
    flat = np.atleast_1d(xs)
    out = np.ones(flat.size, dtype=complex)
    lam = np.diag(model.coupling_array())
    for lo in range(0, flat.size if model.rank else 0, _DET_BLOCK):
        prep = _PVPrepared(model.grid, flat[lo:lo + _DET_BLOCK])
        r1 = _boundary_batch(model, prep, side)[0]
        out[lo:lo + _DET_BLOCK] = np.linalg.det(np.eye(model.rank) + r1 @ lam)
    return complex(out[0]) if xs.ndim == 0 else out


# ---------------------------------------------------------------------------
# point spectrum

def _eigenvector_window(model: FiniteRankModel) -> tuple:
    """Interval expected to carry an embedded eigenfunction's mass."""
    x = model.grid.position_nodes()
    vm = np.abs(model.vector_matrix())
    alive = x[(vm > 1e-8 * vm.max()).any(axis=0)]
    lo, hi = alive.min(), alive.max()
    pad = 0.5 * (hi - lo) + 1.0
    return lo - pad, hi + pad


def point_spectrum(model: FiniteRankModel, scan=None, threshold: float = 1e-6,
                   localization: float = 0.99) -> PointSpectrum:
    """Two-stage eigenvalue search: determinant dips, then matrix cross-check.

    A real eigenvalue needs D(x0 + i0) = 0, which forces the Plemelj part
    pi * sum_j lambda_j^2 |v_j(x0)|^2-type content to vanish: that joint
    condition filters scan minima before refinement.  Survivors must also
    reproduce as localized eigenvectors of the discretized Hamiltonian.
    """
    if model.rank == 0 or not np.any(model.coupling_array()):
        return PointSpectrum((), ())
    L, h = model.grid.half_width, model.grid.spacing
    if scan is None:
        scan = np.linspace(-0.8 * L, 0.8 * L, 4001)
    scan = np.asarray(scan, dtype=float)
    dets = perturbation_determinant(model, scan, Side.PLUS)
    dvals = np.abs(dets)

    # candidate brackets: |D| behaves like |x - x0| near a real zero, so a
    # scan rarely dips under the threshold itself; the robust detector is a
    # sign change of Re D (the zero is transversal there), with deep |D|
    # minima kept as a fallback for grazing cases
    crossings = np.nonzero(np.sign(dets.real[:-1]) * np.sign(dets.real[1:]) < 0)[0]
    interior = (dvals[1:-1] <= dvals[:-2]) & (dvals[1:-1] <= dvals[2:])
    dips = np.nonzero(interior & (dvals[1:-1] < threshold))[0]
    idx = sorted(set(crossings) | set(dips))

    from scipy.optimize import minimize_scalar

    candidates = []
    lam = model.coupling_array()
    for i in idx:
        x0 = scan[i] if dvals[i] <= dvals[i + 1] else scan[i + 1]
        # necessary condition: all vectors (jointly) vanish at the root
        vx = np.array([evaluate_many(v, [x0])[0] for v in model.vectors])
        plemelj = math.pi * float(np.sum(lam ** 2 * np.abs(vx) ** 2))
        if plemelj > 1e-3:
            continue
        res = minimize_scalar(
            lambda t: abs(perturbation_determinant(model, t, Side.PLUS)),
            bounds=(scan[max(i - 1, 0)], scan[min(i + 2, scan.size - 1)]),
            method="bounded", options={"xatol": 1e-10})
        if res.fun < threshold:
            candidates.append(float(res.x))

    if not candidates:
        return PointSpectrum((), ())
    step = scan[1] - scan[0]
    merged = []
    for c in sorted(candidates):
        if not merged or c - merged[-1] > 0.5 * step:
            merged.append(c)
    candidates = merged

    # cross-validate against the discretized Hamiltonian
    E, U = model.eigendecomposition
    x_nodes = model.grid.position_nodes()
    lo, hi = _eigenvector_window(model)
    inside = (x_nodes >= lo) & (x_nodes <= hi)
    confirmed, radii = [], []
    for x0 in sorted(candidates):
        m = int(np.argmin(np.abs(E - x0)))
        vec = U[:, m]
        frac = float(np.sum(np.abs(vec[inside]) ** 2) / np.sum(np.abs(vec) ** 2))
        if abs(E[m] - x0) < 1e-3 and frac >= localization:
            confirmed.append(x0)
            # exclusion ball: where |D| climbs back above 100x threshold,
            # probed on the scan step and kept clear of the box edge
            probes = x0 + step * np.arange(1, 200)
            probes = probes[L - np.abs(probes) >= _BOUNDARY_MARGIN * h]
            hits = np.nonzero(np.abs(perturbation_determinant(
                model, probes, Side.PLUS)) > 100.0 * threshold)[0]
            width = step * (hits[0] + 1) if hits.size else step
            radii.append(float(max(0.02, 2.0 * width)))
    return PointSpectrum(tuple(confirmed), tuple(radii))
