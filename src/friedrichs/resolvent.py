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
chirp-z and the smooth correction by Chebyshev interpolation of line sums
on the densities' node band.  Other energies, one or an array
(perturbation_determinant, boundary_matrix, the chain route, the stationary
assembly off the grid), are read one float at a time (_cut_read) on the pair
densities' band, kept per model and order with its row plan (_Cut): one exp
over the fine phases and the coarse blocks the momentum band meets gives its
plane-wave row (135 of M for Hermite 0-2, at any M), then one line-kernel row
on the node band; each side reads its own half of the coefficients, not the
jump.  At the grid nodes both parts are convolutions, read by FFT (_node_boundary).

Point spectrum: scan zeros of D(x + i0) are confirmed by spectrum slicing,
inertia counts on the N x N Schur complement of the discretized H (_Slices).
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np
from numpy.polynomial.chebyshev import chebvander

from ._errors import PointSpectrumProximity, ValidationError
from .grid import (
    GridFunction,
    GridSpec,
    Representation,
    _as_momentum,
    _plane_rows,
    _row_plan,
    boundary_decay,
    derivative,
    evaluate_many,
    evaluation_matrix,
    inner_product,
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
_CHEB_POINTS = 64  # Chebyshev nodes carrying a uniform grid's line correction
_BLOCK_ENTRIES = 1 << 18  # entries per working block; read only by _blocks
_SECULAR_PASSES = 30  # evaluations a secular root may take before it is refused
_RESIDUAL = 1e-12  # eigenpair residual bound, relative to H's scale
_LOCALIZED_SHARE = 0.99  # norm share a confirming eigenvector holds in _eigenvector_window
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # golden-section shrink factor of the root refine


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

    Construction refuses bad data by name.  Arrays derived from the vectors
    are computed on first use and kept for the model's lifetime.
    """

    grid: GridSpec
    couplings: tuple
    vectors: tuple

    def __post_init__(self):
        if len(self.vectors) != self.rank:
            raise ValidationError(f"got {len(self.vectors)} vectors but {self.rank} couplings")
        if not all(math.isfinite(c) for c in self.couplings):
            raise ValidationError("couplings must be finite reals")
        for j, v in enumerate(self.vectors):
            if not isinstance(v, GridFunction):
                raise ValidationError(f"vector {j} is not a GridFunction")
            if v.grid != self.grid:
                raise ValidationError(f"vector {j} lives on a different grid")
            if v.representation is not Representation.POSITION:
                raise ValidationError(f"vector {j} must be in position representation")
            if boundary_decay(v) > _DECAY_TOL:
                raise ValidationError(
                    f"vector {j} does not decay at the grid boundary "
                    f"(level {boundary_decay(v):.2e} > {_DECAY_TOL:.0e})")
        for j in range(self.rank):
            for k in range(j, self.rank):
                ip = inner_product(self.vectors[j], self.vectors[k])
                target = 1.0 if j == k else 0.0
                if abs(ip - target) > _ORTHO_TOL:
                    raise ValidationError(
                        f"vectors {j},{k} violate orthonormality: "
                        f"|<v{j},v{k}> - {target:g}| = {abs(ip - target):.2e}")

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
        return np.stack([_as_momentum(v) for v in self.vectors])

    @cached_property
    def _vector_band(self) -> tuple:  # the vectors' band: its _row_plan, [v_hat | i k v_hat] on it
        vm, k, cols = self.vectors_momentum, self.grid._nodes[1], _band(self.vectors_momentum.T)
        return _row_plan(self.grid, cols), np.concatenate([vm, 1j * k * vm])[:, cols]

    @cached_property
    def eigendecomposition(self) -> tuple:
        """(E, steps): H = U diag(E) U^* for the discretized H = Q + V, E
        ascending, U = Q_1 ... Q_n the steps' product (_apply_steps).

        Neither H nor U is formed: each nonzero coupling is one rank-one
        update diag(E) + h lambda_j w w^*, w = U^* v_j through the steps so
        far, solved from its secular equation and held in O(M) data
        (_rank_one_eigh); U is real when no vector has an imaginary part.
        By H U_j - U_j E_j = (H U_{j-1} - U_{j-1} E_{j-1}) Q_j + U_{j-1} R_j,
        ||HU - UE||_2 is at most the sum of the steps' own residuals R_j,
        each with what the rounding of w (|U w - v_j|) moves h lambda_j w w^*
        by; the first step whose sum exceeds 1e-12 of H's scale is refused.
        """
        g = self.grid
        vm, lam = self.vector_matrix(), self.coupling_array()
        if not np.any(vm.imag):
            vm = vm.real
        x = g.position_nodes()
        weight = g.spacing * np.sum(np.abs(vm) ** 2, axis=1)
        scale = max(1.0, np.max(np.abs(x)) + np.sum(np.abs(lam) * weight))
        E, steps, res = x.copy(), (), 0.0
        for j, (lj, v) in enumerate(zip(lam, vm)):
            if lj:
                w = _apply_steps(steps, v, adjoint=True)
                dw = np.linalg.norm(_apply_steps(steps, w) - v)
                E, step = _rank_one_eigh(E, w, g.spacing * lj)
                steps += (step,)
                res += step.residual + g.spacing * abs(lj) * dw * (2.0 * np.linalg.norm(w) + dw)
                if not res <= _RESIDUAL * scale:
                    raise ValidationError(
                        f"eigenpairs of the discretized Hamiltonian: the step of coupling {j} "
                        f"leaves residual {res:.2e} > {_RESIDUAL:g} x scale {scale:.3g}")
        return E, steps

    @cached_property
    def _pair_store(self) -> dict:
        return {}

    def pair_densities(self, order: int = 0) -> tuple:
        """(samples, coeffs, cols, nodes), taken once per model and order:
        position samples and their momentum coefficients, each (M, N^2),
        column j N + k the order-th spectral derivative of conj(v_j) v_k, and
        the band where some column exceeds eps times the largest entry,
        momentum indices cols and position nodes."""
        return self._pair_data(order)[:4]

    def _pair_data(self, order: int) -> tuple:  # pair_densities(order) and its _Cut
        if order not in self._pair_store:
            N, grid = self.rank, self.grid
            dens = np.zeros((2, grid.points, N * N), dtype=complex)
            for p in range(N * N):
                vj, vk = self.vectors[p // N].samples, self.vectors[p % N].samples
                g = derivative(GridFunction(grid, Representation.POSITION,
                                            np.conj(vj) * vk), order)
                dens[:, :, p] = g.samples, transform(g).samples
            dens.setflags(write=False)
            cols, nodes = _band(dens[1]), _band(dens[0])
            k0 = grid.points // 2 - cols.start                  # where k = 0 falls on the band
            zero = slice(max(k0, 0), max(k0 + 1, 0))            # empty if the band misses it
            band, x, plan = dens[1][cols].copy(), grid.position_nodes(), _row_plan(grid, cols)
            band[zero] *= 0.5                                   # P+ at k = 0, exact in binary64
            self._pair_store[order] = (dens[0], dens[1], cols, nodes, _Cut(
                plan, band[:zero.stop], band[zero.start:], x[nodes], float(x[nodes.start]),
                dens[0][nodes].view(float), np.eye(N, dtype=complex), self.coupling_array() + 0j))
        return self._pair_store[order]


def _band(values: np.ndarray) -> slice:
    """The contiguous rows of (M, P) values whose largest entry exceeds eps
    times the largest of all; empty if none does."""
    peak = np.max(np.abs(values), axis=1, initial=0.0)
    rows = np.flatnonzero(peak > np.finfo(float).eps * peak.max())
    return slice(int(rows[0]), int(rows[-1]) + 1) if rows.size else slice(0, 0)


# One order's pair-density band as _cut_read reads it (see _pair_data), and I and Lambda.
_Cut = namedtuple("_Cut", "plan lower upper pos x0 dens eye lam")


def _rank_one_eigh(d: np.ndarray, w: np.ndarray, rho: float) -> tuple:
    """(mu, step): eigenpairs of diag(d) + rho w w^*, d ascending, mu
    ascending, the eigenvectors held as a _RankOneStep.

    Deflation follows LAPACK's dlaed2: an entry with |rho w_k| <= tol keeps
    (d_k, e_k), and a Givens rotation zeroes one w entry of two poles closer
    than tol allows.  w is recomputed from the other roots' gaps d_j - mu_i
    (_secular_roots), as in dlaed3, so the eigenvectors w / (d - mu_i) are
    orthogonal (Golub, SIAM Rev. 15 (1973) 318; Gu and Eisenstat, SIMAX 15
    (1994) 1266).  rho < 0 solves -diag(d) - rho w w^* with the order
    reversed; complex w solves with |w| and puts the phases back on the rows
    of Q.
    """
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
    keep, rotations, prev, off = [], [], None, 0.0
    for j in np.flatnonzero(rho * np.abs(z) > tol):
        if prev is not None:
            tau = math.hypot(z[prev], z[j])
            c, s = z[j] / tau, -z[prev] / tau
            if abs((d[j] - d[prev]) * c * s) <= tol:
                # prev takes the combination orthogonal to w and deflates,
                # leaving (d_j - d_prev) c s off the diagonal
                off += abs((d[j] - d[prev]) * c * s)
                rotations.append((prev, j, c, s))
                z[prev], z[j] = 0.0, tau
                d[prev], d[j] = d[prev] * c * c + d[j] * s * s, d[prev] * s * s + d[j] * c * c
                prev = j
                continue
            keep.append(prev)
        prev = j
    keep = np.array(keep + ([] if prev is None else [prev]), dtype=int)
    dk, zk = d[keep], z[keep]
    origin, tau = _secular_roots(dk, zk, rho)
    base, K = dk[origin], keep.size
    # zhat_j^2 = prod_i (d_j - mu_i) / (d_j - d_i), the i = j term over -rho
    prod = np.ones(K)
    for rows, G in _gap_blocks(dk, base, tau):    # P: the first block's buffer, reused
        P = np.subtract(dk, dk[rows, None], out=P[:G.shape[0]] if rows.start else None)
        P[np.arange(P.shape[0]), np.arange(K)[rows]] = -rho
        prod *= np.prod(np.divide(G, P, out=G), axis=0)
    P = G = None                                  # released before the norms' blocks
    zhat = np.copysign(np.sqrt(prod), zk)
    # column norms, and the live residual (diag(d) + rho z z^T - mu_i) q_i
    # = (zhat + rho z t_i) / n_i with t_i = sum_j z_j zhat_j / (d_j - mu_i),
    # both formed in the gap block itself
    norms, live2 = np.empty(K), 0.0
    for rows, G in _gap_blocks(dk, base, tau):
        np.reciprocal(G, out=G)
        t = G @ (zk * zhat)
        norms[rows] = np.linalg.norm(np.multiply(G, zhat, out=G), axis=1)
        live = np.add(zhat, np.multiply(rho * t[:, None], zk, out=G), out=G)
        live2 += np.sum((np.linalg.norm(live, axis=1) / norms[rows]) ** 2)
    d[keep] = base + tau
    # the deflated weights leave rho (z z_defl^T + z_defl z_keep^T), |z| = 1
    residual = (math.sqrt(live2) + 2.0 * rho * float(np.linalg.norm(np.delete(z, keep)))
                + off + np.finfo(float).eps * float(np.max(np.abs(d))))
    # col[k]: slot k's place in ascending order; flipped, slot k is row M - 1 - k
    col = np.empty(M, dtype=int)
    col[np.argsort(d, kind="stable")] = np.arange(M)
    if flip:
        col, d = M - 1 - col, -d
    mu = np.empty(M)
    mu[col] = d
    if flip:
        col, keep = col[::-1], M - 1 - keep
        rotations = [(M - 1 - i, M - 1 - j, c, s) for i, j, c, s in rotations]
    return mu, _RankOneStep(phase, keep, dk, base, tau, zhat, norms, tuple(rotations),
                            col, np.argsort(col), residual)


def _blocks(total: int, width: int) -> list:
    """The slices of range(total), in order, of max(1, _BLOCK_ENTRIES // width)
    rows each: the one entry budget of every rows x width working block, in
    _gap_blocks and dynamics' _cook_tail, _cook_integral, _window_form and
    _momentum_rows."""
    n = max(1, _BLOCK_ENTRIES // max(width, 1))
    return [slice(lo, min(lo + n, total)) for lo in range(0, total, n)]


def _gap_blocks(d: np.ndarray, base: np.ndarray, tau: np.ndarray):
    """(rows, block[i, j] = (d_j - base_i) - tau_i) for the roots base + tau
    in rows, root-major, in _blocks of width d.size: every gap keeps its
    relative accuracy, where d_j - mu_i would lose digits near the poles.
    The blocks share one buffer: each is valid until the next is drawn."""
    blocks = _blocks(tau.size, d.size)
    buf = np.empty((blocks[0].stop if blocks else 0, d.size))
    for rows in blocks:
        G = np.subtract(d, base[rows, None], out=buf[:rows.stop - rows.start])
        G -= tau[rows, None]
        yield rows, G


class _RankOneStep(namedtuple("_RankOneStep", "phase keep poles base tau zhat norms "
                                             "rotations col row residual")):
    """The eigenvectors Q of one rank-one update in O(M) data: live root i's
    column is zhat / (poles - mu_i) / norms_i on the rows keep, any other
    column a unit vector at its row, then the deflating rotations act on the
    rows and a complex w's phases scale them.  col[k] is the column whose
    unit vector, or whose root's pole, sits at row k; row is its inverse.
    residual bounds ||A Q - Q diag(mu)||_2 for the update A."""

    def _rotate(self, t: np.ndarray, adjoint: bool) -> None:
        """The rotations on the rows of t, in place: G_1 ... G_n, or its transpose."""
        for i, j, c, s in (self.rotations if adjoint else self.rotations[::-1]):
            s = -s if adjoint else s
            t[[i, j]] = c * t[i] - s * t[j], s * t[i] + c * t[j]

    def apply(self, y: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """Q y, or Q^* y, for y of shape (M,) or (M, P): the live rows are one
        real product per gap block, a complex y read as interleaved parts."""
        t = y.reshape(y.shape[0], -1)
        if adjoint:
            t = np.array(t if self.phase is None else self.phase.conj()[:, None] * t)
            self._rotate(t, adjoint)
        else:
            t = t[self.col]
        X = np.ascontiguousarray(t[self.keep]).view(float)
        blocks = _gap_blocks(self.poles, self.base, self.tau)   # none when X is empty
        if adjoint:
            Z = self.zhat[:, None] * X
            live = np.concatenate([np.reciprocal(G, out=G) @ Z for _, G in blocks] or [X])
            live /= self.norms[:, None]
        else:
            Z = X / self.norms[:, None]
            live = sum((np.reciprocal(G, out=G).T @ Z[rows] for rows, G in blocks),
                       np.zeros_like(X)) * self.zhat[:, None]
        t[self.keep] = live.view(t.dtype)
        if adjoint:
            return t[self.row].reshape(y.shape)
        self._rotate(t, adjoint)
        return (t if self.phase is None else self.phase[:, None] * t).reshape(y.shape)

    def columns(self, idx: np.ndarray) -> np.ndarray:
        """Q[:, idx], built directly as the transpose of a row-major (idx.size, M) array:
        a live root puts its Cauchy entries on the kept rows into its row, O(M) a column."""
        row = self.row[idx]
        root = np.full(self.col.size, -1)
        root[self.keep] = np.arange(self.keep.size)
        on = np.flatnonzero(root[row] >= 0)
        t = np.zeros((row.size, self.col.size))
        t[np.arange(row.size), row] = 1.0
        r = root[row[on]]
        for rows, G in _gap_blocks(self.poles, self.base[r], self.tau[r]):
            G = np.divide(np.divide(self.zhat, G, out=G), self.norms[r[rows], None], out=G)
            np.put(t, on[rows, None] * self.col.size + self.keep, G)
        self._rotate(t.T, adjoint=False)
        return t.T if self.phase is None else self.phase[:, None] * t.T


def _apply_steps(steps: tuple, z: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """U z, or U^* z, for U = Q_1 ... Q_n the steps' product; z when n = 0."""
    for step in (steps if adjoint else steps[::-1]):
        z = step.apply(z, adjoint)
    return z


def _secular_roots(d: np.ndarray, z: np.ndarray, rho: float) -> tuple:
    """(origin, tau): the roots d[origin_i] + tau_i of f(mu) = 1/rho +
    sum_j z_j^2 / (d_j - mu), one above each pole of ascending d, rho > 0.
    As in LAPACK's dlaed4, each is measured from the nearer end of its
    interval, so the gaps (d_j - d_origin) - tau_i keep their relative
    accuracy, and takes fixed-weight rational steps (R.-C. Li, LAPACK Working
    Note 89) in a bisection bracket until |f| is within dlaed4's error bound,
    or until no float lies strictly inside the bracket."""
    K, top = d.size, rho * (z @ z)
    if K < 2:
        return np.zeros(K, dtype=int), np.full(K, top)
    # a pole of weight 0 at d_K-1 + rho |z|^2 closes the last root's interval
    d, z2 = np.append(d, d[-1] + top), np.append(z * z, 0.0)
    a, width = np.arange(K), np.diff(d)
    origin, tau = a, 0.5 * width

    def terms(idx):
        out = np.empty((5, idx.size))
        for b, R in _gap_blocks(d, d[origin[idx]], tau[idx]):
            i, n = idx[b], np.arange(R.shape[0])
            out[3:, b] = R[n, i], R[n, i + 1]
            np.reciprocal(R, out=R)
            out[:3, b] = R @ z2, np.abs(R, out=R) @ z2, np.square(R, out=R) @ z2
        out[0] += 1.0 / rho
        return out

    # the guess, at the midpoint: the origin's term exact, the rest frozen
    f, _, _, ga, gb = terms(a)
    origin, go, fix = a + (f <= 0), np.where(f > 0, ga, gb), np.where(f > 0, 1.0, -1.0)
    lo, hi = np.minimum(fix * tau, 0.0), np.maximum(fix * tau, 0.0)
    tau = z2[origin] / (f - z2[origin] / go)
    tau = np.where((lo < tau) & (tau < hi), tau, 0.5 * (lo + hi))

    eps, active, prev = np.finfo(float).eps, a, np.zeros(K)
    for _ in range(_SECULAR_PASSES):
        f, err, df, ga, gb = terms(active)
        live = np.abs(f) > eps * (8.0 * err + 2.0 / rho + np.abs(tau[active]) * df)
        live &= np.nextafter(lo[active], hi[active]) < hi[active]
        active, f, df, t, ga, gb = (x[live] for x in (active, f, df, tau[active], ga, gb))
        if not active.size:
            return np.minimum(origin, K - 1), np.where(origin == K, tau + (d[K] - d[K - 1]), tau)
        lo[active], hi[active] = np.where(f < 0, t, lo[active]), np.where(f > 0, t, hi[active])
        # pole a (s = 1) or b keeps its weight; as in dlaed4 they swap when |f| stalls
        s = np.where((f * prev[active] > 0) & (10.0 * np.abs(f) > np.abs(prev[active])),
                     -fix[active], fix[active])
        fix[active], prev[active] = s, f
        go, gf = np.where(s > 0, ga, gb), np.where(s > 0, gb, ga)
        C = f - gf * df + s * width[active] * z2[active + (s < 0)] / (go * go)
        q, r = ga * gb * df - (ga + gb) * f, ga * gb * f
        root = np.sqrt(np.abs(q * q - 4.0 * C * r))
        with np.errstate(divide="ignore", invalid="ignore"):
            eta = np.where(q < 0, 2.0 * r / (root - q), (-q - root) / (2.0 * C))
        eta = np.where(f * eta >= 0, -f / df, eta)
        new, bound = t + eta, np.where(f < 0, hi[active], lo[active])
        tau[active] = np.where((lo[active] < new) & (new < hi[active]), new, 0.5 * (t + bound))
    raise ValidationError(f"secular equation root {active[0]} of {K} did not converge")


def finite_rank_model(grid: GridSpec, vectors, couplings) -> FiniteRankModel:
    """FiniteRankModel from any iterables: couplings as floats, both as tuples."""
    return FiniteRankModel(grid, tuple(float(c) for c in couplings), tuple(vectors))


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

def _interior(grid: GridSpec, xs, one: bool = False) -> np.ndarray | float:
    """xs as a 1-D array, or with one as a float checked on itself, refused if it has
    more axes (with one, any), or if an energy is not finite or is within the margin."""
    if one and not isinstance(xs, float) and np.ndim(xs):
        raise ValidationError(f"energy must be one number, got an array of shape {np.shape(xs)}")
    if one and grid.half_width - abs(xs := float(xs)) >= _BOUNDARY_MARGIN * grid.spacing:
        return xs
    xs = np.array(xs, dtype=float, ndmin=1, copy=None)
    if xs.ndim > 1:
        raise ValidationError("energies must be a number or a 1-D array")
    L, bound = grid.half_width, _BOUNDARY_MARGIN * grid.spacing
    if not all(L - abs(x) >= bound for x in xs.tolist()):      # false for NaN too
        worst = xs[np.argmax(np.abs(xs))]                       # a NaN if there is one
        if not math.isfinite(worst):
            raise ValidationError(f"energy {worst:g} is not finite")
        raise ValidationError(
            f"energy {worst:g} is within {_BOUNDARY_MARGIN} grid spacings "
            f"of the box edge +-{L:g}")
    return xs


def _line_kernel(grid: GridSpec, xs: np.ndarray, nodes: slice = slice(None)) -> np.ndarray:
    """(Nx, n) weights h c(k - x) at the grid nodes, or their slice nodes: the
    direct form over the whole array at once, and each row's near-node run
    by _line_row's window rule, every row's window gathered at once."""
    a, h, x = math.pi / (2.0 * grid.half_width), grid.spacing, grid.position_nodes()
    x0, u = float(x[nodes.indices(grid.points)[0]]), x[nodes] - xs[:, None]
    if not u.size:
        return u
    lo = np.maximum(np.floor((xs - 1e-2 - x0) / h), 0).astype(int)[:, None]
    cols = np.minimum(lo + np.arange(int(2e-2 / h) + 3), u.shape[1] - 1)
    rows, k = np.nonzero(np.abs(np.take_along_axis(u, cols, 1)) < 1e-2)
    cols = cols[rows, k]
    z = a * u[rows, cols]
    u[rows, cols] = 1.0
    c = np.divide(1.0, u)
    u *= a
    c -= np.divide(a, np.tan(u, out=u), out=u)
    c[rows, cols] = (a / 3.0) * z * (1.0 + z * z / 15.0 + (2.0 / 315.0) * np.power(z, 4))
    c *= h
    return c


def _line_row(grid: GridSpec, pos: np.ndarray, x0: float, x: float) -> np.ndarray:
    """h c(k - x) at the nodes pos = x0 + j h, c(u) = 1/u - a cot(a u), a = pi/2L.
    Below |u| = 1e-2 c is its odd series (z ** 4 numpy's power), as the direct
    form cancels; those nodes are a run, found in a window read off (x - x0)/h
    with a node of margin a side, where the direct form reads u = 1."""
    a, h, u = math.pi / (2.0 * grid.half_width), grid.spacing, pos - x
    lo = max(math.floor((x - 1e-2 - x0) / h), 0)
    window = u[lo:max(math.floor((x + 1e-2 - x0) / h) + 2, 0)].tolist()
    i, j = bisect_right(window, -1e-2), bisect_left(window, 1e-2)
    z, near = [a * w for w in window[i:j]], slice(lo + i, lo + j)
    u[near] = 1.0
    c = np.divide(1.0, u)
    u *= a
    c -= np.divide(a, np.tan(u, out=u), out=u)
    c[near] = [(a / 3.0) * t * (1.0 + t * t / 15.0 + (2.0 / 315.0) * q)
               for t, q in zip(z, np.power(z, 4).tolist())]
    c *= h
    return c


def _projection_mask(grid: GridSpec, side: Side) -> np.ndarray:
    """P+ on the momentum coefficients: 1 for k > 0 and 1/2 at k = 0, which
    sits at index M/2.  The minus side takes P+ - 1, which moves r by
    -2 pi i g(x)."""
    half = grid.points // 2
    p = np.zeros(grid.points)
    p[half], p[half + 1:] = 0.5, 1.0
    return p - (side is Side.MINUS)


def _node_boundary(grid: GridSpec, samples: np.ndarray, side: Side) -> np.ndarray:
    """r(x_m +- i0) at every grid node for (M, P) position samples g, both
    parts as convolutions (Kak, Proc. IEEE 58 (1970) 585; Weideman, Math.
    Comp. 64 (1995) 745): 2 pi i (P+- g)(x_m) by the masked FFT pair, and
    the line sum h sum_k c(x_k - x_m) g_k, a Toeplitz product whose symbol
    h c(j h), |j| < M, is one _line_row over the lags, by one zero-padded
    FFT of length 2M."""
    M, h = grid.points, grid.spacing
    coeffs = np.fft.fft(np.fft.ifftshift(samples, axes=0), axis=0)     # unshifted momentum order
    coeffs *= np.fft.ifftshift(_projection_mask(grid, side))[:, None]
    periodic = np.fft.fftshift(np.fft.ifft(coeffs, axis=0), axes=0)
    symbol = np.zeros(2 * M)                                # lag j at j + M; lag -M meets padding
    symbol[1:] = _line_row(grid, h * np.arange(1 - M, M), h * (1 - M), 0.0)
    # sum_j s_j g_{m+j} is a correlation: conj of the real symbol's spectrum
    spectrum = np.conj(np.fft.fft(np.fft.ifftshift(symbol)))[:, None]
    line = np.fft.ifft(spectrum * np.fft.fft(samples, 2 * M, axis=0), axis=0)[:M]
    return 2j * math.pi * periodic + line


def _half_turns(q: float, m: np.ndarray) -> np.ndarray:
    """e^{i pi q m} for integers |m| < 2^52, with q m reduced mod 2 exactly:
    q is split at 26 bits (Dekker) and m at 2^26, so each partial product,
    and its remainder, is exact in binary64."""
    c = 134217729.0 * q                                     # (2^27 + 1) q
    q_hi = c - (c - q)
    m = np.asarray(m, dtype=np.int64)
    turns = np.zeros(m.shape)
    parts = [b.astype(float) for b in ((m >> 26) << 26, m & (2 ** 26 - 1)) if b.any()]
    for a in (q_hi, q - q_hi):
        for b in parts:                                     # an all-zero part adds nothing
            turns = np.mod(turns + np.mod(a * b, 2.0), 2.0)
    return np.exp(1j * math.pi * turns)


class _ChirpProjection:
    """The read-out of (M, P) momentum coefficients, periodic(c), and the line
    sum of (M, P) samples, line(g), on the grid x_m = lo + m (hi - lo)/(n - 1).

    With k_l = (l - M/2) pi/L and q = step/2L, x_m k_l is
    pi (lo/L)(l - M/2) + 2 pi q m l - pi q M m.  The outer phases are a lead
    on l and a tail on m, and e^{2 pi i q m l} =
    e^{i pi q m^2} e^{i pi q l^2} e^{-i pi q (m - l)^2} turns the read-out
    into one FFT convolution (Bluestein, IEEE Trans. Audio Electroacoust.
    18 (1970) 451).  The line sum is smooth in x, its poles lying at
    k +- 2L; it is read at _CHEB_POINTS Chebyshev energies on the node band
    of the densities given and interpolated by real products.
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
        nodes = np.cos(math.pi * (np.arange(_CHEB_POINTS) + 0.5) / _CHEB_POINTS)
        self.xs = lo + step * m
        at = (self.xs - 0.5 * (lo + hi)) / (0.5 * (hi - lo))
        self.vander = chebvander(at, _CHEB_POINTS - 1)      # (n, 64) real
        self.fit = np.linalg.inv(chebvander(nodes, _CHEB_POINTS - 1))
        self.grid, self.cheb = grid, 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes

    def periodic(self, coeffs: np.ndarray) -> np.ndarray:
        spectrum = np.fft.fft(self.lead * coeffs, self.size, axis=0) * self.chirp
        return self.tail * np.fft.ifft(spectrum, axis=0)[:self.tail.shape[0]]

    def line(self, samples: np.ndarray) -> np.ndarray:
        nodes = _band(samples)
        sums = _line_kernel(self.grid, self.cheb, nodes) @ samples[nodes].view(float)
        return (self.vander @ (self.fit @ sums)).view(complex)


def pv_integral(g: GridFunction, x: float) -> complex:
    """P.V. of g(k)/(k-x) dk over the box, x allowed anywhere off the edge:
    r(x + i0) - i pi g(x), from one plane-wave row and one line-kernel row."""
    if g.representation is not Representation.POSITION:
        raise ValidationError("pv_integral expects a position-representation density")
    grid, x = g.grid, _interior(g.grid, x, one=True)
    mask = _projection_mask(grid, Side.PLUS) - 0.5
    periodic = 2j * math.pi * (evaluation_matrix(grid, x)[0] @ (mask * _as_momentum(g)))
    return complex(periodic + _line_row(grid, grid.position_nodes(), -grid.half_width, x)
                   @ g.samples)


# ---------------------------------------------------------------------------
# boundary matrices and the determinant

def _boundary_batch(model: FiniteRankModel, proj, orders=(1,)) -> list:
    """r^(n)(x + i0) at every energy of the _ChirpProjection proj, one
    (Nx, N, N) array per n in orders: the order-(n-1) derivative of each
    pair density over (n-1)!."""
    N = model.rank
    mask = _projection_mask(model.grid, Side.PLUS)[:, None]
    outs = []
    for n in orders:
        samples, coeffs = model.pair_densities(n - 1)[:2]
        r = 2j * math.pi * proj.periodic(mask * coeffs) + proj.line(samples)
        outs.append((r / math.factorial(n - 1)).reshape(r.shape[0], N, N))
    return outs


@np.errstate(over="ignore", invalid="ignore")
def _cut_det(model: FiniteRankModel, xs, r1: np.ndarray) -> np.ndarray:
    """det(I + r1 Lambda) for order-1 boundary values r1 at the energies xs, refused
    by name where it overflows: a non-finite D has no digits left to report."""
    cut = model._pair_data(0)[4]
    D = np.linalg.det(cut.eye + r1 * cut.lam)
    if not all(map(math.isfinite, D.view(float).tolist())):
        k = int(np.argmin(np.isfinite(D)))                     # the first that is not
        raise ValidationError(f"perturbation determinant at energy {xs[k]:g} overflows to "
                              f"{D.flat[k]}: the couplings are too large for binary64")
    return D


def boundary_matrix(model: FiniteRankModel, x: float, side, n: int = 1) -> BoundaryData:
    side = _as_side(side)
    if n < 1:
        raise ValidationError("derivative order n must be >= 1")
    r = _cut_read(model, x, n)[int(side is Side.PLUS)]
    det = complex(_cut_det(model, [x], r[None])[0]) if n == 1 else None
    return BoundaryData(float(x), side, n, r, det)


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
    D = np.abs(dets).tolist()
    if D and min(D) < _DET_FLOOR:                           # one min when nothing is near
        k = D.index(min(D))
        raise PointSpectrumProximity(
            f"energy {xs[k]:g} is at or near the point spectrum (|D| = {D[k]:.2e})")


def perturbation_determinant(model: FiniteRankModel, x: float | np.ndarray,
                             side) -> complex | np.ndarray:
    """D(x +- i0) = det(I + r(x +- i0) diag(lambda)).

    x is a number (returns complex) or a 1-D array of energies (returns a
    complex array), read on the pair densities' band by _cut_boundary.
    """
    r1 = _cut_boundary(model, x, 1)[int(_as_side(side) is Side.PLUS)]
    D = _cut_det(model, np.atleast_1d(x), r1)
    return complex(D[0]) if np.ndim(x) == 0 else D


def _cut_read(model: FiniteRankModel, x, n: int) -> np.ndarray:
    """(r^(n)(x - i0), r^(n)(x + i0)), (2, N, N), at one energy x: the order-(n-1) band's row
    (_Cut) up to k = 0 for the minus side (P+ - 1), from k = 0 for the plus side (P+), and
    its line-kernel row."""
    x, cut, N = _interior(model.grid, x, one=True), model._pair_data(n - 1)[4], model.rank
    row, out = _plane_rows(model.grid, cut.plan, x), np.empty((2, N * N), dtype=complex)
    np.negative(np.dot(row[:len(cut.lower)], cut.lower, out=out[0]), out=out[0])
    np.dot(row[row.size - len(cut.upper):], cut.upper, out=out[1])
    out *= 2j * math.pi
    out += _line_row(model.grid, cut.pos, cut.x0, x).dot(cut.dens).view(complex)
    return (out if n == 1 else out / math.factorial(n - 1)).reshape(2, N, N)


def _cut_boundary(model: FiniteRankModel, x, n: int) -> np.ndarray:
    """(r^(n)(x - i0), r^(n)(x + i0)), (2, Nx, N, N), at x, a number or a 1-D array,
    one _cut_read an energy, so an array's values are bitwise its single energies'."""
    xs = _interior(model.grid, x)
    r = np.empty((2, xs.size, model.rank, model.rank), dtype=complex)
    for i, e in enumerate(xs.tolist()):
        r[:, i] = _cut_read(model, e, n)
    return r


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


class _Slices:
    """Spectrum slicing of H on its coupled nodes, where some v_j with
    lambda_j != 0 is nonzero: by Haynsworth's inertia additivity H has
    #{x_k < mu} + n_-(S(mu)) - #{lambda_j > 0} eigenvalues there below mu,
    S(mu) = -(h Lambda)^-1 - V^*(X - mu)^-1 V; at an eigenvalue, S(mu) c = 0
    and (mu - X)^-1 V c is the eigenvector, held to eigendecomposition's bound."""

    def __init__(self, model: FiniteRankModel):
        g, lam = model.grid, model.coupling_array()
        vm = model.vector_matrix()[lam != 0]
        self.coupled = np.any(vm != 0, axis=0)
        self.x, self.V = g.position_nodes()[self.coupled], vm[:, self.coupled].T
        self.pole, self.above = -1.0 / (g.spacing * lam[lam != 0]), int(np.sum(lam > 0))
        self.bound = _RESIDUAL * max(1.0, g.half_width + np.sum(abs(self.V) ** 2 / abs(self.pole)))

    def schur(self, gap: np.ndarray) -> np.ndarray:
        return np.diag(self.pole) - (self.V.conj().T / gap) @ self.V

    def count(self, mu: float) -> int:
        """Eigenvalues below mu.  On a node x_k, the limit from above: x_k
        counts, and S is read off V_k^*, along which its x_k term is unbounded."""
        k, gap, Q = int(np.searchsorted(self.x, mu)), self.x - mu, np.eye(self.pole.size)
        if k < gap.size and gap[k] == 0:
            gap[k], Q, k = math.inf, np.linalg.svd(self.V[k:k + 1])[2][1:].conj().T, k + 1
        below = np.linalg.eigvalsh(Q.conj().T @ self.schur(gap) @ Q) < 0
        return k + int(np.sum(below)) - self.above

    def nearest(self, x0: float, radius: float) -> tuple | None:
        """(mu, unit eigenvector on the coupled nodes) nearest x0 within radius, or None."""
        first, at, end = (self.count(x0 + t) for t in (-radius, 0.0, radius))
        mu = math.inf
        for k, a, b in ((at - 1, x0 - radius, x0), (at, x0, x0 + radius)):
            while first <= k < end and a < 0.5 * (a + b) < b:   # count(a) <= k < count(b)
                mid = 0.5 * (a + b)
                a, b = (a, mid) if self.count(mid) > k else (mid, b)
            if first <= k < end and abs(b - x0) < abs(mu - x0):
                mu = b
        if mu == math.inf:
            return None
        u = self.V @ np.linalg.svd(self.schur(self.x - mu))[2][-1].conj() / (mu - self.x)
        u /= np.linalg.norm(u)
        res = np.linalg.norm((self.x - mu) * u - self.V @ (self.V.conj().T @ u / self.pole))
        if not res <= self.bound:
            raise ValidationError(f"eigenpair at {x0:g}: residual {res:.2e} > {self.bound:.2e}")
        return mu, u


def point_spectrum(model: FiniteRankModel, scan=None, threshold: float = 1e-6) -> PointSpectrum:
    """Two-stage eigenvalue search: determinant dips, then spectrum slicing.

    At a real root x0 of D(x + i0), the null vector c of I + r Lambda has
    Im c^* Lambda (I + r Lambda) c = pi |sum_j lambda_j v_j(x0) c_j|^2 = 0:
    scan minima where that exceeds 1e-3 are dropped.  Each survivor is
    refined by golden-section search on |D(x + i0)| over the three scan
    steps around it, to a bracket at most 1e-10 wide, and kept if |D| there
    is below threshold and the coupled eigenvalue of H nearest it within
    1e-3, found by inertia counts (_Slices), has a localized eigenvector.

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
    proj = _ChirpProjection(model.grid, lo, hi, n)
    dets = _cut_det(model, proj.xs, _boundary_batch(model, proj)[0])
    dvals = np.abs(dets)

    # candidate brackets: |D| behaves like |x - x0| near a real zero, so a
    # scan rarely dips under the threshold itself; the robust detector is a
    # sign change of Re D (the zero is transversal there), with deep |D|
    # minima kept as a fallback for grazing cases
    crossings = np.nonzero(np.sign(dets.real[:-1]) * np.sign(dets.real[1:]) < 0)[0]
    interior = (dvals[1:-1] <= dvals[:-2]) & (dvals[1:-1] <= dvals[2:])
    dips = np.nonzero(interior & (dvals[1:-1] < threshold))[0]
    idx = sorted(set(crossings) | set(dips))

    candidates = []
    lam = model.coupling_array()
    for i in idx:
        x0 = xs[i] if dvals[i] <= dvals[i + 1] else xs[i + 1]
        # necessary condition: the jump vanishes on the null vector c at the root
        r = boundary_matrix(model, x0, Side.PLUS).matrix
        c = np.linalg.svd(np.eye(model.rank) + r * lam)[2][-1].conj()
        vx = np.array([evaluate_many(v, [x0])[0] for v in model.vectors])
        if math.pi * abs(np.sum(lam * vx * c)) ** 2 > 1e-3:
            continue
        # golden section on |D| over the bracket, to a 1e-10 wide one
        a, b = xs[max(i - 1, 0)], xs[min(i + 2, n - 1)]
        c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
        fc, fd = (abs(perturbation_determinant(model, t, Side.PLUS)) for t in (c, d))
        while b - a > 1e-10:
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - _GOLDEN * (b - a)
                fc = abs(perturbation_determinant(model, c, Side.PLUS))
            else:
                a, c, fc = c, d, fd
                d = a + _GOLDEN * (b - a)
                fd = abs(perturbation_determinant(model, d, Side.PLUS))
        if min(fc, fd) < threshold:
            candidates.append(float(c if fc < fd else d))

    merged = []
    for c in sorted(candidates):
        if not merged or c - merged[-1] > 0.5 * step:
            merged.append(c)

    # cross-validate against the discretized Hamiltonian
    slices, (lo, hi) = _Slices(model), _eigenvector_window(model)
    inside = (slices.x >= lo) & (slices.x <= hi)
    confirmed, radii = [], []
    for x0 in merged:
        # a decoupled node (x_k, e_k), localized by construction, is no witness
        pair = slices.nearest(x0, 1e-3)
        if pair is not None and np.sum(np.abs(pair[1][inside]) ** 2) >= _LOCALIZED_SHARE:
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
