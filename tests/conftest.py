import math

import numpy as np
import pytest

import friedrichs as fr


@pytest.fixture(scope="session")
def grid():
    return fr.make_grid(16.0, 2048)


@pytest.fixture(scope="session")
def coarse_grid():
    return fr.make_grid(16.0, 512)


@pytest.fixture(scope="session")
def gaussian_model(grid):
    """Rank-one model with a unit Gaussian vector, coupling 1."""
    from friedrichs.resolvent import finite_rank_model

    v = fr.gaussian_state(grid)
    return finite_rank_model(grid, [v], [1.0])


@pytest.fixture(scope="session")
def rank2_model(grid):
    """Rank-two model: first two Hermite functions, mixed couplings."""
    from friedrichs.resolvent import finite_rank_model

    v0 = fr.hermite_state(grid, 0)
    v1 = fr.hermite_state(grid, 1)
    return finite_rank_model(grid, [v0, v1], [0.8, -0.5])


@pytest.fixture(scope="session")
def gaussian_curve(gaussian_model):
    from friedrichs.scattering import compute_curve

    return compute_curve(gaussian_model, (-6.0, 6.0), 1001)


@pytest.fixture(scope="session")
def gaussian_propagator(gaussian_model):
    from friedrichs.dynamics import build_propagator

    return build_propagator(gaussian_model)


@pytest.fixture(scope="session")
def free_propagator(grid):
    """The rank-0 propagator: free evolution under H0 = Q."""
    from friedrichs.dynamics import build_propagator
    from friedrichs.resolvent import finite_rank_model

    return build_propagator(finite_rank_model(grid, [], []))


def _masked_line_kernel(grid, xs):
    """h c(k - x) with the odd series put in through a mask over the whole row."""
    a = math.pi / (2.0 * grid.half_width)
    u = grid.position_nodes()[None, :] - xs[:, None]
    near = np.abs(u) < 1e-2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c = 1.0 / u - a / np.tan(a * u)
    z = a * u[near]
    c[near] = (a / 3.0) * z * (1.0 + z * z / 15.0 + (2.0 / 315.0) * z ** 4)
    return grid.spacing * c


def full_width_boundary(grid, samples, xs, side):
    """r(x +- i0), (Nx, P), for (M, P) position samples at a 1-D array of
    energies, from dense projections over every momentum coefficient and
    node, 2^18 / M energies a block: 2 pi i (P+- g)(x) by full plane-wave
    rows (grid.evaluation_matrix), plus the line sum by full masked kernel
    rows.  The full-width reference the banded, chirp-z and node readers are
    checked against, independent of their band cuts and convolutions."""
    from friedrichs.grid import evaluation_matrix

    M = grid.points
    mask = np.where(np.arange(M) > M // 2, 1.0, 0.0) - (side == "minus")
    mask[M // 2] = 0.5 - (side == "minus")              # P+ is 1/2 at k = 0
    coeffs = mask[:, None] * _coefficients(grid, samples)
    return np.concatenate([2j * math.pi * (evaluation_matrix(grid, xs) @ coeffs)
                           + _masked_line_kernel(grid, xs) @ samples
                           for xs in _dense_blocks(grid, xs)])


def full_width_stationary(model, xs):
    """The stationary assembly at a 1-D array of energies from
    full_width_boundary's r1 and r2 (plus side) and full plane-wave rows
    for v and v'."""
    from friedrichs.grid import evaluation_matrix
    from friedrichs.scattering import _stationary_batch

    g, N, vm = model.grid, model.rank, model.vectors_momentum
    r1, r2 = (full_width_boundary(g, model.pair_densities(n)[0], xs, "plus").reshape(-1, N, N)
              for n in (0, 1))
    coeffs = np.concatenate([vm, 1j * g.momentum_nodes() * vm]).T
    v = np.concatenate([evaluation_matrix(g, b) @ coeffs for b in _dense_blocks(g, xs)])
    return _stationary_batch(model, np.asarray(xs, dtype=float), r1, r2, v[:, :N], v[:, N:])


def _band_row_reference(grid, x, cols):
    """The plane-wave row on the momentum indices cols at the energy x, as
    grid.evaluation_matrix formed it one energy at a time before the read
    plans: every coarse block up to the band's last exponentiated, then the
    blocks cols meets times the fine phases, the columns cut out last."""
    J, nodes = grid._nodes[2:]
    lo, hi, _ = cols.indices(grid.points)
    first, last = lo - lo % J, -(-hi // J) * J
    phases = np.exp(1j * np.reshape(float(x), (-1, 1)) * nodes[:J + last // J])
    coarse = (grid.momentum_spacing / math.sqrt(2.0 * math.pi)) * phases[:, J + first // J:, None]
    block = (coarse * phases[:, None, :J]).reshape(1, last - first)
    return block[:, lo - first:hi - first][0]


def _line_row_reference(grid, pos, x0, x):
    """h c(k - x) at the nodes pos = x0 + j h, as resolvent._line_row forms it
    (odd series on the window's run of nodes within 1e-2, numpy's power)."""
    from bisect import bisect_left, bisect_right

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


def band_reference(model, x, n):
    """(r^(n)(x - i0), r^(n)(x + i0)), (2, N, N), at one energy by the
    per-energy band read as it stood before the read plans, from the
    order-(n-1) pair densities and their bands: _band_row_reference on the
    momentum band, its part up to k = 0 read by the minus side (P+ - 1) and
    from k = 0 by the plus side (P+, 1/2 at k = 0), and _line_row_reference
    on the node band; the bitwise pins' reference."""
    g, N = model.grid, model.rank
    samples, coeffs, cols, nodes = model.pair_densities(n - 1)
    k0 = g.points // 2 - cols.start
    zero = slice(max(k0, 0), max(k0 + 1, 0))
    band = coeffs[cols].copy()
    band[zero] *= 0.5
    lower, upper, pos = band[:zero.stop], band[zero.start:], g.position_nodes()[nodes]
    row = _band_row_reference(g, x, cols)
    out = np.empty((2, N * N), dtype=complex)
    np.negative(np.dot(row[:len(lower)], lower, out=out[0]), out=out[0])
    np.dot(row[row.size - len(upper):], upper, out=out[1])
    out *= 2j * math.pi
    line = _line_row_reference(g, pos, float(g.position_nodes()[nodes.start]), x)
    out += line.dot(samples[nodes].view(float)).view(complex)
    r = out.reshape(2, N, N)
    return r if n == 1 else r / math.factorial(n - 1)


def band_determinant_reference(model, r1):
    """det(I + r1 Lambda) for a stack of order-1 boundary values r1."""
    N = model.rank
    return np.linalg.det(np.eye(N, dtype=complex) + r1 * (model.coupling_array() + 0j))


def stationary_reference(model, xs):
    """The stationary assembly at the energies xs from band_reference's plus
    sides and, for v and v', _band_row_reference on the vectors' band."""
    from friedrichs.resolvent import _band
    from friedrichs.scattering import _stationary_batch

    g, N, vm = model.grid, model.rank, model.vectors_momentum
    r1, r2 = (np.array([band_reference(model, e, n)[1] for e in xs]).reshape(-1, N, N)
              for n in (1, 2))
    cols = _band(vm.T)
    coeffs = np.concatenate([vm, 1j * g.momentum_nodes() * vm])[:, cols]
    v = np.empty((len(xs), 2 * N), dtype=complex)
    for out, e in zip(v, xs):
        np.dot(coeffs, _band_row_reference(g, e, cols), out=out)
    return _stationary_batch(model, np.asarray(xs, dtype=float), r1, r2, v[:, :N], v[:, N:])


def _dense_blocks(grid, xs):
    """The 1-D array xs in blocks of 2^18 / M energies, one empty block for none."""
    xs, n = np.asarray(xs, dtype=float).reshape(-1), max(1, (1 << 18) // grid.points)
    return [xs[lo:lo + n] for lo in range(0, max(xs.size, 1), n)]


def _coefficients(grid, samples):
    """Momentum coefficients of (M, P) position samples, as grid.transform forms them."""
    return (grid.spacing / math.sqrt(2.0 * math.pi)) * np.fft.fftshift(
        np.fft.fft(np.fft.ifftshift(samples, axes=0), axis=0), axes=0)


def _band_models(g):
    """Hermite ranks 1-3, a complex vector, and a tent whose kinked pair
    density has no negligible momentum coefficient (its band is the grid)."""
    x = g.position_nodes()
    models = [fr.finite_rank_model(g, [fr.hermite_state(g, j) for j in range(n)],
                                   [0.8, -0.5, 0.3][:n]) for n in (1, 2, 3)]
    for v in (np.exp(-0.5 * (x - 0.3) ** 2 + 1.3j * x), np.clip(1.0 - np.abs(x) / 2.0, 0.0, None)):
        unit = fr.grid_function(g, v / (math.sqrt(g.spacing) * np.linalg.norm(v)))
        models.append(fr.finite_rank_model(g, [unit], [0.7]))
    assert models[-1].pair_densities(0)[2] == slice(0, g.points)
    return models


@pytest.fixture(scope="session")
def full_width_determinant():
    """D(x +- i0) at a 1-D array of energies from full_width_boundary."""

    def determinant(model, xs, side):
        N = model.rank
        r1 = full_width_boundary(model.grid, model.pair_densities(0)[0], xs, side)
        return np.linalg.det(np.eye(N) + r1.reshape(-1, N, N) * model.coupling_array())

    return determinant


def rng(seed):
    return np.random.default_rng(seed)


def _traced_peak(fn, *args):
    """(result, tracemalloc peak in bytes) of fn(*args)."""
    import tracemalloc

    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def tail_samples(A, fbar, E, half):
    """sum_k fbar_k |a_k . e^{-iEt}|^2 at t = -half and at t = half, two rows,
    over the columns a_k of A, unblocked, by the arithmetic of
    dynamics._window_form: its phase table Q = _tail_phases(E, half), one real
    product of Q's float view with A's for U = sum A cos(Et) and
    V = -sum A sin(Et), and a_k . e^{-iEt} = U +- iV."""
    from friedrichs import dynamics

    Y = dynamics._tail_phases(E, half).view(float).T @ np.ascontiguousarray(A).view(float)
    (ur, ui), (vr, vi) = np.moveaxis(Y.reshape(half.size, 2, -1, 2), (1, 3), (0, 1))
    return np.stack(((ur + vi) ** 2 + (ui - vr) ** 2, (ur - vi) ** 2 + (ui + vr) ** 2)) @ fbar


def full_window_form(B, pick, at, fbar, c, E, T, half):
    """(sum_k fbar_k <a_k, S a_k>, sum_k fbar_k |a_k . e^{-iEt}|^2 at t = -half and
    at t = half) over the window rows k in at, a_k = B[pick, k] o c, with every kept mode
    in the K x K kernel S = 2T sinc((E_m - E_n)T/pi): the all-modes form the
    split form of dynamics._window_form is held against, its tail samples
    summed over all rows at once (tail_samples)."""
    x = np.multiply(np.subtract.outer(E, E), T)
    x[x == 0.0] = np.finfo(float).eps
    sinc = np.sin(x) / x
    A = B[pick, at] * c[:, None]
    form = float(fbar @ np.sum(A.real * (sinc @ A.real) + A.imag * (sinc @ A.imag), axis=0))
    return 2.0 * T * form, tail_samples(A, fbar, E, half)
