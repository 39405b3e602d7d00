"""Boundary values of resolvents on the real axis for finite-rank models.

The free Hamiltonian is multiplication by x, so every resolvent matrix
element is a Cauchy-type integral of a pair density g_jk = conj(v_j) v_k
over the position grid.  Higher orders come from moving derivatives onto
g_jk (integration by parts), never from hypersingular kernels:
r^(n)(x + i0) is the first-order boundary value of g^(n-1) over (n-1)!.

Boundary-value scheme: a one-sided spectral projection,

    r(x + i0) = int g(k) / (k - x - i0) dk
              = 2 pi i (P+ g)(x) + h sum_k c(k - x) g(k),
    c(u)      = 1/u - a cot(a u),   a = pi / 2L.

On the periodic box 2 pi i P+ is a mask on the momentum coefficients the
model stores for each pair density (1 for k > 0, 1/2 at k = 0, 0 below),
read out by the band-limited interpolant.  The line integral differs from
the periodic one by the kernel c, which is odd and analytic for |u| < 2L,
so its trapezoid sum is spectrally accurate with no singularity to
subtract; near u = 0 c is summed as its odd series.  The other side is
r(x - i0) = r(x + i0) - 2 pi i g(x).  A uniform energy grid, the
point-spectrum scan's or a scattering curve's, reads the periodic part by
chirp-z and the smooth correction by Chebyshev interpolation; a single
energy or an arbitrary array of them uses the dense projection, and
_dense_blocks is the one loop that serves an array _DET_BLOCK energies
at a time.  The chain route's two determinants at one energy share a
single dense projection (_cut_determinants), each side slicing out its own
half of the coefficients rather than taking the jump from the other.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

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
_BOUNDARY_MARGIN = 10  # boundary values refuse x within 10 h of the box edge
_DET_BLOCK = 1024  # energies per dense projection of an arbitrary array
_CHEB_POINTS = 64  # Chebyshev nodes carrying a uniform grid's line correction
_COLUMN_BLOCK = 256  # eigenvector columns per block of the residual check
_LOCALIZED_SHARE = 0.99  # norm share a confirming eigenvector holds in _eigenvector_window


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
        """(E, U) with H = U diag(E) U^* for the discretized H = Q + V,
        E ascending.

        H = diag(x) + h sum_j lambda_j v_j v_j^* is never formed: each
        nonzero coupling is one rank-one update of the eigenpairs so far,
        solved from its secular equation (_rank_one_eigh), and every
        update after the first multiplies U by that update's eigenvectors.
        U is real when no vector has an imaginary part.  The result is
        refused unless it diagonalizes H to 1e-12 of H's scale.
        """
        g = self.grid
        vm, lam = self.vector_matrix(), self.coupling_array()
        if not np.any(vm.imag):
            vm = vm.real
        x = g.position_nodes()
        E, U = x.copy(), None
        for lj, v in zip(lam, vm):
            if lj:
                E, Q = _rank_one_eigh(E, v if U is None else U.conj().T @ v, g.spacing * lj)
                U = Q if U is None else U @ Q
        U = np.eye(g.points) if U is None else U
        weight = g.spacing * np.sum(np.abs(vm) ** 2, axis=1)
        scale = max(1.0, np.max(np.abs(x)) + np.sum(np.abs(lam) * weight))
        res = 0.0
        for lo in range(0, g.points, _COLUMN_BLOCK):
            B = U[:, lo:lo + _COLUMN_BLOCK]
            R = np.subtract.outer(x, E[lo:lo + _COLUMN_BLOCK]) * B
            R += g.spacing * vm.T @ (lam[:, None] * (vm.conj() @ B))
            res = max(res, np.max(np.abs(R)))
        if not res <= 1e-12 * scale:
            raise ValidationError(f"eigenpairs of the discretized Hamiltonian leave residual "
                                  f"{res:.2e} > 1e-12 x scale {scale:.3g}")
        return E, U

    @cached_property
    def _pair_store(self) -> dict:
        return {}

    def pair_densities(self, order: int = 0) -> tuple:
        """(position samples, momentum coefficients), each (M, N^2) with
        column j N + k holding the order-th spectral derivative of
        conj(v_j) v_k; the coefficients are the transform of those same
        samples, taken once per model and order."""
        if order not in self._pair_store:
            N = self.rank
            dens = np.zeros((2, self.grid.points, N * N), dtype=complex)
            for p in range(N * N):
                vj, vk = self.vectors[p // N].samples, self.vectors[p % N].samples
                g = derivative(GridFunction(self.grid, Representation.POSITION,
                                            np.conj(vj) * vk), order)
                dens[:, :, p] = g.samples, transform(g).samples
            dens.setflags(write=False)
            self._pair_store[order] = (dens[0], dens[1])
        return self._pair_store[order]


def _rank_one_eigh(d: np.ndarray, w: np.ndarray, rho: float) -> tuple:
    """(mu, Q): eigenpairs of diag(d) + rho w w^*, d ascending, mu ascending.

    Deflation follows LAPACK's dlaed2: an entry with |rho w_k| <= tol keeps
    (d_k, e_k), and a Givens rotation zeroes one w entry of two poles closer
    than tol allows.  The remaining roots come from dlasd4 on the poles
    sqrt(d - d_first), which returns d_j - mu_i = delta_j work_j to working
    precision; w is then recomputed from those products, as in dlaed3, so
    the eigenvectors w / (d - mu_i) are orthogonal (Golub, SIAM Rev. 15
    (1973) 318; Gu and Eisenstat, SIMAX 15 (1994) 1266).  rho < 0 solves
    -diag(d) - rho w w^* with the order reversed; complex w solves with |w|
    and puts the phases back on the rows of Q.
    """
    from scipy.linalg.lapack import dlasd4

    phase = None
    if np.iscomplexobj(w):
        a = np.abs(w)
        phase = np.where(a > 0, w / np.where(a > 0, a, 1.0), 1.0)
        w = a
    nw = np.linalg.norm(w)
    z, rho = w / nw, rho * nw * nw
    flip = rho < 0
    if flip:
        d, z, rho = -d[::-1], z[::-1], -rho
    d, z = d.copy(), z.copy()
    M = d.size
    tol = 8.0 * np.finfo(float).eps * max(np.max(np.abs(d)), rho)
    keep, rotations, prev = [], [], None
    for j in np.flatnonzero(rho * np.abs(z) > tol):
        if prev is not None:
            tau = math.hypot(z[prev], z[j])
            c, s = z[j] / tau, -z[prev] / tau
            if abs((d[j] - d[prev]) * c * s) <= tol:
                # prev takes the combination orthogonal to w and deflates
                rotations.append((prev, j, c, s))
                z[prev], z[j] = 0.0, tau
                d[prev], d[j] = d[prev] * c * c + d[j] * s * s, d[prev] * s * s + d[j] * c * c
                prev = j
                continue
            keep.append(prev)
        prev = j
    keep = np.array(keep + ([] if prev is None else [prev]), dtype=int)
    defl = np.setdiff1d(np.arange(M), keep)

    K = keep.size
    D = np.sqrt(d[keep] - d[keep[0]]) if K else np.empty(0)
    gaps = np.empty((K, K))                  # gaps[j, i] = d_j - mu_i
    for i in range(K):
        delta, sigma, work, info = dlasd4(i, D, z[keep], rho)
        if info:
            raise ValidationError(f"secular equation root {i} of {K} did not converge "
                                  f"(dlasd4 info {info})")
        gaps[:, i] = delta * work
    poles = (D[:, None] - D[None, :]) * (D[:, None] + D[None, :])
    np.fill_diagonal(poles, -rho)
    zhat = np.copysign(np.sqrt(np.prod(np.divide(gaps, poles, out=poles), axis=1)), z[keep])
    S = zhat[:, None] / gaps
    S /= np.linalg.norm(S, axis=0)
    d[keep] -= gaps.diagonal()

    # slot k holds row k of Q (row M-1-k when flipped) and its eigenvalue
    # d[k]; col places each slot's eigenvector in ascending order
    order = np.argsort(d, kind="stable")
    col, rows = np.empty(M, dtype=int), np.arange(M)
    col[order] = rows
    if flip:
        rows, col, d = rows[::-1], M - 1 - col, -d
    Q = np.zeros((M, M))
    Q[np.ix_(rows[keep], col[keep])] = S
    Q[rows[defl], col[defl]] = 1.0
    for i, j, c, s in reversed(rotations):
        i, j = rows[i], rows[j]
        Q[[i, j]] = c * Q[i] - s * Q[j], s * Q[i] + c * Q[j]
    mu = np.empty(M)
    mu[col] = d
    return mu, (Q if phase is None else phase[:, None] * Q)


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
        if not math.isfinite(sobolev_norm(v, s_chk)):
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
# the one-sided projection

def _interior(grid: GridSpec, xs) -> np.ndarray:
    """xs as a 1-D array, refused if any is not finite or lies within the
    boundary margin."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    L, h = grid.half_width, grid.spacing
    if not np.all(L - np.abs(xs) >= _BOUNDARY_MARGIN * h):     # false for NaN too
        worst = xs[np.argmax(np.abs(xs))]                       # a NaN if there is one
        if not math.isfinite(worst):
            raise ValidationError(f"energy {worst:g} is not finite")
        raise ValidationError(
            f"energy {worst:g} is within {_BOUNDARY_MARGIN} grid spacings "
            f"of the box edge +-{L:g}")
    return xs


def _line_kernel(grid: GridSpec, xs: np.ndarray) -> np.ndarray:
    """(Nx, M) weights h c(k - x); below |u| = 1e-2 c is summed as its odd
    series, which the direct form loses to cancellation."""
    a = math.pi / (2.0 * grid.half_width)
    u = grid.position_nodes()[None, :] - xs[:, None]
    near = np.abs(u) < 1e-2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c = 1.0 / u - a / np.tan(a * u)
    z = a * u[near]
    c[near] = (a / 3.0) * z * (1.0 + z * z / 15.0 + (2.0 / 315.0) * z ** 4)
    return grid.spacing * c


def _projection_mask(grid: GridSpec, side: Side) -> np.ndarray:
    """P+ on the momentum coefficients: 1 for k > 0 and 1/2 at k = 0, which
    sits at index M/2.  The minus side takes P+ - 1, which moves r by
    -2 pi i g(x)."""
    half = grid.points // 2
    p = np.zeros(grid.points)
    p[half], p[half + 1:] = 0.5, 1.0
    return p - (side is Side.MINUS)


class _Projection:
    """The periodic read-out and the line sum at any batch of energies.

    periodic(c) is the band-limited interpolant of (M, P) momentum
    coefficients c; line(g) is h sum_k c(k - x) g(k) for (M, P) position
    samples g.
    """

    def __init__(self, grid: GridSpec, xs):
        xs = _interior(grid, xs)
        self.eval_mat = evaluation_matrix(grid, xs)         # (Nx, M) band-limited
        self.kernel = _line_kernel(grid, xs)                # (Nx, M) real

    def periodic(self, coeffs: np.ndarray) -> np.ndarray:
        return self.eval_mat @ coeffs

    def line(self, samples: np.ndarray) -> np.ndarray:
        # the real kernel meets the interleaved real and imaginary parts
        return (self.kernel @ samples.view(float)).view(complex)


def _half_turns(q: float, m: np.ndarray) -> np.ndarray:
    """e^{i pi q m} for integers |m| < 2^52, with q m reduced mod 2 exactly:
    q is split at 26 bits (Dekker) and m at 2^26, so each partial product,
    and its remainder, is exact in binary64."""
    c = 134217729.0 * q                                     # (2^27 + 1) q
    q_hi = c - (c - q)
    m = np.asarray(m, dtype=np.int64)
    turns = np.zeros(m.shape)
    for a in (q_hi, q - q_hi):
        for b in ((m >> 26) << 26, m & (2 ** 26 - 1)):
            turns = np.mod(turns + np.mod(a * b.astype(float), 2.0), 2.0)
    return np.exp(1j * math.pi * turns)


class _ChirpProjection:
    """The same two maps on the uniform grid x_m = lo + m (hi - lo)/(n - 1).

    With k_l = (l - M/2) pi/L and q = step/2L, x_m k_l is
    pi (lo/L)(l - M/2) + 2 pi q m l - pi q M m.  The outer phases are a lead
    on l and a tail on m, and e^{2 pi i q m l} =
    e^{i pi q m^2} e^{i pi q l^2} e^{-i pi q (m - l)^2} turns the read-out
    into one FFT convolution (Bluestein, IEEE Trans. Audio Electroacoust.
    18 (1970) 451).  The line sum is smooth in x, its poles lying at
    k +- 2L, and is interpolated from _CHEB_POINTS Chebyshev energies.
    """

    def __init__(self, grid: GridSpec, lo: float, hi: float, n: int):
        _interior(grid, [lo, hi])
        M, L = grid.points, grid.half_width
        step = (hi - lo) / (n - 1)
        q = step / (2.0 * L)
        l, m = np.arange(M), np.arange(n)
        self.lead = (_half_turns(lo / L, l - M // 2) * _half_turns(q, l * l))[:, None]
        self.size = 1 << (n + M - 2).bit_length()           # >= n + M - 1
        lags = np.arange(1 - M, n)                          # m - l, wrapped
        chirp = np.zeros(self.size, complex)
        chirp[lags] = np.conj(_half_turns(q, lags * lags))
        self.chirp = np.fft.fft(chirp)[:, None]
        self.tail = (grid.momentum_spacing / math.sqrt(2.0 * math.pi)
                     * _half_turns(q, m * m) * _half_turns(-q * M, m))[:, None]
        cheb = np.polynomial.chebyshev
        nodes = np.cos(math.pi * (np.arange(_CHEB_POINTS) + 0.5) / _CHEB_POINTS)
        at = (lo + step * m - 0.5 * (lo + hi)) / (0.5 * (hi - lo))
        self.interp = (cheb.chebvander(at, _CHEB_POINTS - 1)
                       @ np.linalg.inv(cheb.chebvander(nodes, _CHEB_POINTS - 1)))
        self.kernel = _line_kernel(grid, 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes)

    def periodic(self, coeffs: np.ndarray) -> np.ndarray:
        spectrum = np.fft.fft(self.lead * coeffs, self.size, axis=0) * self.chirp
        return self.tail * np.fft.ifft(spectrum, axis=0)[:self.tail.shape[0]]

    def line(self, samples: np.ndarray) -> np.ndarray:
        return self.interp @ (self.kernel @ samples.view(float)).view(complex)


def pv_integral(g: GridFunction, x: float) -> complex:
    """P.V. of g(k)/(k-x) dk over the box, x allowed anywhere off the edge:
    r(x + i0) - i pi g(x), read from the same projection."""
    if g.representation is not Representation.POSITION:
        raise ValidationError("pv_integral expects a position-representation density")
    proj = _Projection(g.grid, float(x))
    mask = _projection_mask(g.grid, Side.PLUS) - 0.5
    periodic = 2j * math.pi * proj.periodic(mask * transform(g).samples)
    return complex(periodic[0] + proj.line(g.samples[:, None])[0, 0])


# ---------------------------------------------------------------------------
# boundary matrices and the determinant

def _dense_blocks(grid: GridSpec, xs: np.ndarray):
    """(rows, _Projection at xs[rows]) for each block of _DET_BLOCK energies
    of the 1-D array xs, so memory stays bounded for any number of them."""
    for lo in range(0, xs.size, _DET_BLOCK):
        rows = slice(lo, lo + _DET_BLOCK)
        yield rows, _Projection(grid, xs[rows])


def _warn_regularity(model: FiniteRankModel, orders) -> None:
    """Warn the caller's caller of each order n that mu < n + 1 leaves uncertified."""
    for n in (n for n in sorted(orders) if model.mu < n + 1):
        warnings.warn(f"declared regularity mu = {model.mu:g} is below n + 1 = {n + 1}; "
                      "boundary values of this order are outside the vectors' certified "
                      "class", stacklevel=4)


def _boundary_batch(model: FiniteRankModel, proj, side: Side, orders=(1,)) -> list:
    """r^(n)(x +- i0) at every energy of proj (a _Projection or a
    _ChirpProjection), one (Nx, N, N) array per n in orders: the
    order-(n-1) derivative of each pair density over (n-1)!."""
    side = _as_side(side)
    if min(orders) < 1:
        raise ValidationError("derivative order n must be >= 1")
    _warn_regularity(model, orders)
    N = model.rank
    mask = _projection_mask(model.grid, side)[:, None]
    outs = []
    for n in orders:
        samples, coeffs = model.pair_densities(n - 1)
        r = 2j * math.pi * proj.periodic(mask * coeffs) + proj.line(samples)
        outs.append((r / math.factorial(n - 1)).reshape(r.shape[0], N, N))
    return outs


def _determinant(model: FiniteRankModel, proj, side) -> np.ndarray:
    """D(x +- i0) at every energy of proj."""
    r1 = _boundary_batch(model, proj, side)[0]
    return np.linalg.det(np.eye(model.rank) + r1 * model.coupling_array())


def boundary_matrix(model: FiniteRankModel, x: float, side, n: int = 1) -> BoundaryData:
    side = _as_side(side)
    mat = _boundary_batch(model, _Projection(model.grid, float(x)), side, (n,))[0][0]
    det = None
    if n == 1:
        det = complex(np.linalg.det(np.eye(model.rank) + mat * model.coupling_array()))
    return BoundaryData(float(x), side, n, mat, det)


def resolvent_matrix(model: FiniteRankModel, bd: BoundaryData) -> np.ndarray:
    """X_jk = <v_j, R(x +- i0) v_k> from the rank-N linear system."""
    if bd.order != 1:
        raise ValidationError("resolvent_matrix needs order n = 1 boundary data")
    _refuse_point_spectrum([bd.energy], [bd.determinant])
    A = np.eye(model.rank) + bd.matrix @ np.diag(model.coupling_array())
    return np.linalg.solve(A, bd.matrix)


def _refuse_point_spectrum(xs, dets) -> None:
    """Raise PointSpectrumProximity, naming the energy, where a determinant
    D(x + i0) at the energies xs has |D| < _DET_FLOOR."""
    D = np.abs(dets)
    k = int(np.argmin(D))
    if D[k] < _DET_FLOOR:
        raise PointSpectrumProximity(
            f"energy {xs[k]:g} is at or near the point spectrum (|D| = {D[k]:.2e})")


def perturbation_determinant(model: FiniteRankModel, x: float | np.ndarray,
                             side) -> complex | np.ndarray:
    """D(x +- i0) = det(I + r(x +- i0) diag(lambda)).

    x is a number (returns complex) or a 1-D array of energies (returns a
    complex array); one projection serves each block of _DET_BLOCK energies.
    """
    xs = np.asarray(x, dtype=float)
    if xs.ndim > 1:
        raise ValidationError("energies must be a number or a 1-D array")
    out = np.ones(xs.size, dtype=complex)
    for rows, proj in _dense_blocks(model.grid, np.atleast_1d(xs)):
        out[rows] = _determinant(model, proj, side)
    return complex(out[0]) if xs.ndim == 0 else out


def _cut_determinants(model: FiniteRankModel, x: float) -> tuple:
    """(D(x - i0), D(x + i0)) from one dense projection at x: the evaluation
    row and the line sum are read once, and each side slices its own half of
    the order-0 pair coefficients, x + i0 the k > 0 sum plus half the k = 0
    term (P+), x - i0 minus the k < 0 sum and minus that half (P+ - 1).
    Neither side is formed from the other through the jump 2 pi i g(x)."""
    _warn_regularity(model, (1,))
    proj = _Projection(model.grid, float(x))
    samples, coeffs = model.pair_densities(0)
    row, half, N = proj.eval_mat[0], model.grid.points // 2, model.rank
    line = proj.line(samples)[0]
    mid = 0.5 * row[half] * coeffs[half]
    upper = row[half + 1:] @ coeffs[half + 1:] + mid
    lower = -(row[:half] @ coeffs[:half]) - mid
    return tuple(complex(np.linalg.det(np.eye(N) + (2j * math.pi * p + line).reshape(N, N)
                                       * model.coupling_array())) for p in (lower, upper))


# ---------------------------------------------------------------------------
# point spectrum

def _scan_triple(grid: GridSpec, scan) -> tuple:
    """(lo, hi, n) of a point-spectrum scan, refused with its cause."""
    try:
        lo, hi, n = scan
        lo, hi, n = float(lo), float(hi), operator.index(n)
    except (TypeError, ValueError):
        raise ValidationError("scan must be a (lo, hi, n) triple with an integer n") from None
    if not lo < hi:
        raise ValidationError(f"scan needs lo < hi, got {lo:g} and {hi:g}")
    if n < 8:
        raise ValidationError(f"scan needs at least 8 points, got {n}")
    _interior(grid, [lo, hi])
    return lo, hi, n


def _eigenvector_window(model: FiniteRankModel) -> tuple:
    """Interval expected to carry an embedded eigenfunction's mass."""
    x = model.grid.position_nodes()
    vm = np.abs(model.vector_matrix())
    alive = x[(vm > 1e-8 * vm.max()).any(axis=0)]
    lo, hi = alive.min(), alive.max()
    pad = 0.5 * (hi - lo) + 1.0
    return lo - pad, hi + pad


def point_spectrum(model: FiniteRankModel, scan=None, threshold: float = 1e-6) -> PointSpectrum:
    """Two-stage eigenvalue search: determinant dips, then matrix cross-check.

    A real eigenvalue needs D(x0 + i0) = 0, which forces the Plemelj part
    pi * sum_j lambda_j^2 |v_j(x0)|^2-type content to vanish: that joint
    condition filters scan minima before refinement.  Survivors must also
    reproduce as localized eigenvectors of the discretized Hamiltonian.

    scan is the (lo, hi, n) triple of the uniform energy grid searched,
    (-0.8 L, 0.8 L, 4001) by default; its step also sets how close two
    roots may lie and the spacing of the exclusion-ball probes.
    """
    L, h = model.grid.half_width, model.grid.spacing
    lo, hi, n = _scan_triple(model.grid, (-0.8 * L, 0.8 * L, 4001) if scan is None else scan)
    if model.rank == 0 or not np.any(model.coupling_array()):
        return PointSpectrum((), ())
    step = (hi - lo) / (n - 1)
    xs = np.linspace(lo, hi, n)
    dets = _determinant(model, _ChirpProjection(model.grid, lo, hi, n), Side.PLUS)
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
        x0 = xs[i] if dvals[i] <= dvals[i + 1] else xs[i + 1]
        # necessary condition: all vectors (jointly) vanish at the root
        vx = np.array([evaluate_many(v, [x0])[0] for v in model.vectors])
        plemelj = math.pi * float(np.sum(lam ** 2 * np.abs(vx) ** 2))
        if plemelj > 1e-3:
            continue
        res = minimize_scalar(
            lambda t: abs(perturbation_determinant(model, t, Side.PLUS)),
            bounds=(xs[max(i - 1, 0)], xs[min(i + 2, n - 1)]),
            method="bounded", options={"xatol": 1e-10})
        if res.fun < threshold:
            candidates.append(float(res.x))

    if not candidates:
        return PointSpectrum((), ())
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
    vm = model.vector_matrix()
    confirmed, radii = [], []
    for x0 in sorted(candidates):
        # the witness must couple to V: a node where every vector vanishes
        # decouples as (x_k, e_k), localized by construction
        near = np.flatnonzero(np.abs(E - x0) < 1e-3)
        near = near[np.max(np.abs(vm.conj() @ U[:, near]), axis=0) > 0]
        if not near.size:
            continue
        vec = U[:, near[np.argmin(np.abs(E[near] - x0))]]
        frac = float(np.sum(np.abs(vec[inside]) ** 2) / np.sum(np.abs(vec) ** 2))
        if frac >= _LOCALIZED_SHARE:
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
