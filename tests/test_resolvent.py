"""Boundary values of the resolvent: oracles and invariants.

Oracle notes.  For the unit Gaussian vector the diagonal matrix element
has the closed form r11(x + i0) = i sqrt(pi) w(x) with w the Faddeeva
function, whose real part is the principal value -2 dawsn(x).  Those
values are frozen below from an independent evaluation, and checked
against scipy's wofz over a dense set of energies, so regressions in the
boundary-value engine cannot hide behind a matching implementation.

A second, slower oracle smears the resolvent at finite epsilon on a
doubled grid and Neville-extrapolates epsilon -> 0; it agrees with the
projection route to ~1e-7, which is what the limiting-absorption
invariant asks.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

import friedrichs as fr
from friedrichs import (
    PointSpectrumProximity,
    StateNotAdmissible,
    ValidationError,
)
from friedrichs import resolvent
from friedrichs.resolvent import _apply_steps, _boundary_batch, _ChirpProjection, _cut_det

from conftest import (_band_models, _masked_line_kernel, _traced_peak, band_determinant_reference,
                      band_reference, full_width_boundary, full_width_stationary,
                      stationary_reference)

SQRT_PI = 1.7724538509055159

# P.V. of pi^{-1/2} e^{-k^2} / (k - x): frozen -2*dawsn(x) values
PV_GAUSSIAN = {
    0.0: 0.0,
    0.5: -0.8488727670040446,
    1.0: -1.0761590138255368,
    2.0: -0.6026807778475840,
    -1.3: 0.9667950347696485,
}

# r11(x + i0) = i sqrt(pi) w(x) at two energies
R11_PLUS = {
    0.5: -0.8488727670040445 + 1.3803884470431429j,
    2.0: -0.6026807778475839 + 0.0324636246801317j,
}


def test_pv_integral_gaussian_closed_form(grid):
    v = fr.gaussian_state(grid)
    g = fr.grid_function(grid, np.abs(v.samples) ** 2)
    for x, ref in PV_GAUSSIAN.items():
        got = fr.pv_integral(g, x)
        assert abs(got - ref) < 1e-13
        assert abs(got.imag) < 1e-15  # real density, real PV


def test_line_kernel_near_its_nodes_at_16384():
    # h c(u) = h (1/u - a cot(a u)): at M = 16384 ten or eleven nodes lie
    # within 1e-2 of an energy and take the odd series.  On a node, 1e-4
    # and exactly +-1e-2 from one, and between nodes, every weight within
    # 0.05 matches a 40-digit value to 1e-16 (measured 2.8e-17); the direct
    # form is inf on the node and 4e-15 off at 1e-4
    mpmath = pytest.importorskip("mpmath")
    grid = fr.make_grid(16.0, 16384)
    x, h, a = grid.position_nodes(), grid.spacing, math.pi / 32.0
    xs = x[8000] + np.array([0.0, 1e-4, 1e-2, -1e-2, 0.3 * h])
    kern = resolvent._line_kernel(grid, xs)
    with mpmath.workdps(40):
        for row, e in zip(kern, xs):
            near = np.flatnonzero(np.abs(x - e) < 0.05)
            assert np.count_nonzero(np.abs(x - e) < 1e-2) >= 10
            u = [mpmath.mpf(float(x[j])) - mpmath.mpf(float(e)) for j in near]
            ref = [0.0 if v == 0 else float(h * (1 / v - a / mpmath.tan(a * v))) for v in u]
            assert np.max(np.abs(row[near] - ref)) <= 1e-16


def test_boundary_matrix_faddeeva_closed_form(gaussian_model):
    for x, ref in R11_PLUS.items():
        bd = fr.boundary_matrix(gaussian_model, x, "plus")
        assert bd.matrix.shape == (1, 1)
        assert abs(bd.matrix[0, 0] - ref) < 1e-13
        bdm = fr.boundary_matrix(gaussian_model, x, "minus")
        assert abs(bdm.matrix[0, 0] - np.conj(ref)) < 1e-13


def test_boundary_matrix_matches_faddeeva_across_the_box(gaussian_model, grid):
    # interior energies, grid nodes, a tiny and a subnormal offset from the
    # node at 0, and the last energies the margin allows
    from scipy.special import wofz

    L, h = grid.half_width, grid.spacing
    xs = np.concatenate([np.linspace(-6.0, 6.0, 1001), grid.position_nodes()[[900, 1024, 1100]],
                         [1e-7, 5e-324, L - 11 * h, -(L - 11 * h)]])
    got = np.array([fr.boundary_matrix(gaussian_model, float(x), "plus").matrix[0, 0]
                    for x in xs])
    assert np.max(np.abs(got - 1j * SQRT_PI * wofz(xs))) <= 1e-14


def test_boundary_matrix_at_zero(gaussian_model):
    # PV vanishes by parity, leaving the pure Plemelj term
    bd = fr.boundary_matrix(gaussian_model, 0.0, "plus")
    assert abs(bd.matrix[0, 0] - 1j * SQRT_PI) < 1e-14


def test_plemelj_jump_random_energies(rank2_model):
    # r(x+i0) - r(x-i0) = 2 pi i (pair density at x), 50 seeded draws
    gen = np.random.default_rng(42)
    xs = gen.uniform(-5.0, 5.0, size=50)
    vm = rank2_model.vector_matrix()
    worst = 0.0
    for x in xs:
        plus = fr.boundary_matrix(rank2_model, float(x), "plus").matrix
        minus = fr.boundary_matrix(rank2_model, float(x), "minus").matrix
        vx = np.array([fr.evaluate_many(v, [float(x)])[0]
                       for v in rank2_model.vectors])
        expected = 2j * math.pi * np.outer(np.conj(vx), vx)
        worst = max(worst, np.max(np.abs(plus - minus - expected)))
    assert worst < 1e-6


def test_conjugation_symmetry_random_energies(rank2_model):
    # r(x-i0) = adjoint of r(x+i0) for these real vectors
    gen = np.random.default_rng(7)
    xs = gen.uniform(-5.0, 5.0, size=50)
    worst = 0.0
    for x in xs:
        plus = fr.boundary_matrix(rank2_model, float(x), "plus").matrix
        minus = fr.boundary_matrix(rank2_model, float(x), "minus").matrix
        worst = max(worst, np.max(np.abs(minus - plus.conj().T)))
    assert worst < 1e-10


def test_epsilon_sweep_limit_matches_boundary_value(gaussian_model):
    """Limiting absorption: smear at finite epsilon on a doubled grid,
    extrapolate epsilon -> 0 by Neville's scheme, compare to the
    projection route."""
    fine = fr.make_grid(16.0, 4096)
    vf = fr.gaussian_state(fine)
    k = fine.position_nodes()
    dens = np.abs(vf.samples) ** 2
    h = fine.spacing
    eps_nodes = [0.2 / 2 ** (j / 2) for j in range(7)]

    def neville(eps, vals):
        t = list(vals)
        for m in range(1, len(t)):
            for i in range(len(t) - m):
                t[i] = t[i + 1] + (t[i + 1] - t[i]) * eps[i + m] / (eps[i] - eps[i + m])
        return t[0]

    for x0 in [0.0, 0.7, 1.9, -2.6]:
        vals = [h * np.sum(dens / (k - x0 - 1j * e)) for e in eps_nodes]
        lim = neville(eps_nodes, vals)
        bd = fr.boundary_matrix(gaussian_model, x0, "plus")
        assert abs(lim - bd.matrix[0, 0]) < 1e-6


def test_higher_order_matches_derivative(rank2_model):
    # the family is r^(n) = integral g/(k-x)^n, so d/dx r^(n) = n r^(n+1):
    # r^(2) against a central difference of r^(1), and r^(3) against r^(2)
    h = 1e-4
    for x0 in [0.4, -1.7, 2.3]:
        for n in (1, 2):
            up = fr.boundary_matrix(rank2_model, x0 + h, "plus", n=n).matrix
            dn = fr.boundary_matrix(rank2_model, x0 - h, "plus", n=n).matrix
            fd = (up - dn) / (2.0 * h)
            analytic = n * fr.boundary_matrix(rank2_model, x0, "plus", n=n + 1).matrix
            scale = np.max(np.abs(analytic))
            assert np.max(np.abs(fd - analytic)) < 1e-5 * max(scale, 1.0)


def test_resolvent_matrix_rank_one_scalar_formula(gaussian_model):
    # X = F / (1 + lambda F) in the rank-one case
    for x0 in [0.5, 2.0]:
        bd = fr.boundary_matrix(gaussian_model, x0, "plus")
        X = fr.resolvent_matrix(gaussian_model, bd)
        F = bd.matrix[0, 0]
        assert abs(X[0, 0] - F / (1.0 + F)) < 1e-13  # lambda = 1


def test_resolvent_matrix_rank_two_adjugate(rank2_model):
    # independent 2x2 inversion through the adjugate formula
    bd = fr.boundary_matrix(rank2_model, 0.9, "plus")
    X = fr.resolvent_matrix(rank2_model, bd)
    lam = np.diag(rank2_model.coupling_array())
    A = np.eye(2) + bd.matrix @ lam
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    adj = np.array([[A[1, 1], -A[0, 1]], [-A[1, 0], A[0, 0]]])
    assert np.max(np.abs(X - adj @ bd.matrix / det)) < 1e-13


def test_zero_coupling_resolvent_is_free(grid):
    model = fr.finite_rank_model(grid, [fr.gaussian_state(grid)], [0.0])
    bd = fr.boundary_matrix(model, 0.5, "plus")
    X = fr.resolvent_matrix(model, bd)
    assert np.max(np.abs(X - bd.matrix)) == 0.0


def test_perturbation_determinant(gaussian_model, grid):
    # D(x + i0) = 1 + lambda r11; Gaussian lambda = 1 at x = 0: 1 + i sqrt(pi)
    d = fr.perturbation_determinant(gaussian_model, 0.0, "plus")
    assert abs(d - (1.0 + 1j * SQRT_PI)) < 1e-13
    dm = fr.perturbation_determinant(gaussian_model, 0.0, "minus")
    assert abs(dm - np.conj(d)) < 1e-14
    empty = fr.finite_rank_model(grid, [], [])
    assert fr.perturbation_determinant(empty, 0.3, "plus") == 1.0 + 0.0j


def test_determinant_on_an_array_matches_scalar_calls(rank2_model, grid):
    # bitwise: each energy's band sums are its own vector products, whatever
    # block of the array its rows are formed in
    xs = np.array([-2.3, 0.0, 1e-7, float(grid.position_nodes()[1100]), 0.9, 3.1])
    for side in ("plus", "minus"):
        batch = fr.perturbation_determinant(rank2_model, xs, side)
        scalar = np.array([fr.perturbation_determinant(rank2_model, float(x), side)
                           for x in xs])
        assert batch.shape == xs.shape and batch.dtype == complex
        assert np.array_equal(batch, scalar)
    empty = fr.finite_rank_model(grid, [], [])
    assert np.array_equal(fr.perturbation_determinant(empty, xs, "plus"), np.ones(xs.size))
    assert fr.perturbation_determinant(empty, [], "minus").shape == (0,)


# ---------------------------------------------------------------------------
# point spectrum


def test_point_spectrum_gaussian_family_is_empty(grid):
    v = fr.gaussian_state(grid)
    for lam in [0.5, -0.5, 1.0, -1.0, 2.0, -2.0]:
        model = fr.finite_rank_model(grid, [v], [lam])
        ps = fr.point_spectrum(model)
        assert ps.eigenvalues == ()


def test_point_spectrum_trivial_for_zero_coupling(grid):
    model = fr.finite_rank_model(grid, [fr.gaussian_state(grid)], [0.0])
    assert fr.point_spectrum(model).eigenvalues == ()


def _planted_model(grid, a):
    """v(x) = c (x-a) e^{-x^2/2}, lambda = (1/2 + a^2)/a: the determinant
    has a real zero exactly at x0 = a because v(a) = 0 and
    P.V. integral of |v|^2/(k-a) = -a/(1/2 + a^2) there."""
    x = grid.position_nodes()
    c = (math.sqrt(math.pi) * (0.5 + a * a)) ** -0.5
    v = fr.grid_function(grid, c * (x - a) * np.exp(-0.5 * x * x))
    return fr.finite_rank_model(grid, [v], [(0.5 + a * a) / a])


def _embedded_model(grid):
    """The planted model at a = 1, lambda = 3/2."""
    return _planted_model(grid, 1.0)


def test_point_spectrum_embedded_eigenvalue(grid):
    model = _embedded_model(grid)
    ps = fr.point_spectrum(model)
    assert len(ps.eigenvalues) == 1
    assert abs(ps.eigenvalues[0] - 1.0) < 1e-4
    assert ps.radii[0] > 0.0


@pytest.mark.parametrize("a", np.linspace(0.6, 1.7, 12)[[0, 3, 7, 11]])
def test_point_spectrum_refines_planted_roots_to_1e10(grid, a):
    # the refine narrows its bracket to 1e-10, so the root it returns lies
    # that close to the planted one, well inside AC-11's 1e-4; the first
    # exclusion probe, one scan step out, already reads |D| above 100x
    # threshold, so the radius is its 0.02 floor
    ps = fr.point_spectrum(_planted_model(grid, a))
    assert len(ps.eigenvalues) == 1
    assert abs(ps.eigenvalues[0] - a) <= 1e-10
    assert ps.radii == (0.02,)


def _planted_rank_two(grid, a, lam2):
    """The planted model plus lambda2 |v2><v2|, v2 the part of x^2 e^{-x^2/2}
    orthonormal to v and e^{-x^2/2}: e^{-x^2/2} stays the eigenvector at a,
    yet v2(a) != 0."""
    planted = _planted_model(grid, a)
    x, v = grid.position_nodes(), planted.vectors[0].samples.real
    w = x * x * np.exp(-0.5 * x * x)
    for b in (np.exp(-0.5 * x * x), v):
        w = w - (b @ w) / (b @ b) * b
    v2 = fr.grid_function(grid, w / math.sqrt(grid.spacing * (w @ w)))
    return fr.finite_rank_model(grid, [planted.vectors[0], v2], [planted.couplings[0], lam2])


@pytest.mark.parametrize("a, lam2", [(0.8, 0.05), (0.8, 0.5), (0.8, -0.9), (1.3, -0.9)])
def test_point_spectrum_finds_a_rank_two_embedded_eigenvalue(grid, a, lam2):
    # the rank-one jump pi sum_j lambda_j^2 |v_j(a)|^2 exceeds 1e-3 unless
    # lambda2 is small; weighted by D's null vector it vanishes at a
    model = _planted_rank_two(grid, a, lam2)
    assert abs(fr.evaluate_many(model.vectors[1], [a])[0]) > 0.1
    assert abs(fr.perturbation_determinant(model, a, "plus")) < 1e-12
    ps = fr.point_spectrum(model)
    assert len(ps.eigenvalues) == 1
    assert abs(ps.eigenvalues[0] - a) <= 1e-10


def test_point_spectrum_of_a_generic_rank_two_model_is_empty(rank2_model):
    assert fr.point_spectrum(rank2_model).eigenvalues == ()


def test_exclusion_probes_stay_inside_the_box(coarse_grid):
    # probes run x0 + step * (1..199) = 1.1 .. 20.9, past the edge at 16
    ps = fr.point_spectrum(_embedded_model(coarse_grid), scan=(-10, 10, 201))
    assert len(ps.eigenvalues) == 1 and abs(ps.eigenvalues[0] - 1.0) < 1e-4
    assert ps.radii == (pytest.approx(0.2),)
    assert type(ps.radii[0]) is float


def test_point_spectrum_witness_couples_to_the_vectors(coarse_grid):
    # v vanishes at the node x = 1, which decouples as (1, e_k): localized
    # by construction and inside the window, so it must not stand witness.
    # The witness is the coupled eigenpair at 1, which overlaps v.
    model = _embedded_model(coarse_grid)
    x0 = fr.point_spectrum(model).eigenvalues[0]
    node = np.flatnonzero(coarse_grid.position_nodes() == 1.0)
    assert node.size == 1 and model.vector_matrix()[0, node[0]] == 0
    lo, hi = resolvent._eigenvector_window(model)
    assert lo < 1.0 < hi
    slices = resolvent._Slices(model)
    mu, u = slices.nearest(x0, 1e-3)
    assert not slices.coupled[node[0]] and abs(mu - 1.0) < 1e-10
    assert abs(model.vector_matrix()[0, slices.coupled].conj() @ u) > 0.1
    # the pair's residual is checked, and a failure names the candidate
    slices.bound = 0.0
    with pytest.raises(ValidationError, match=f"eigenpair at {x0:g}: residual"):
        slices.nearest(x0, 1e-3)


@pytest.mark.parametrize("model", ["gaussian_model", "rank2_model"])
def test_chirp_scan_matches_the_dense_determinant(request, grid, full_width_determinant, model):
    # the default scan on the demo grid: unreduced chirp phases err by about
    # 6e-13 here, the exactly reduced ones by below 1e-14
    model = request.getfixturevalue(model)
    L = grid.half_width
    lo, hi, n = -0.8 * L, 0.8 * L, 4001
    proj = _ChirpProjection(grid, lo, hi, n)
    chirp = _cut_det(model, proj.xs, _boundary_batch(model, proj)[0])
    dense = full_width_determinant(model, np.linspace(lo, hi, n), "plus")
    assert np.all(np.abs(chirp - dense) <= 1e-13 * np.maximum(1.0, np.abs(dense)))


@pytest.mark.parametrize("model", ["gaussian_model", 1, "rank2_model", 3])
def test_chirp_curve_matches_the_dense_batch(request, grid, model):
    # compute_curve reads its linspace by chirp-z; the dense projection
    # reads the same energies for the rank-N Hermite models and the Gaussian
    if isinstance(model, int):
        model = fr.finite_rank_model(grid, [fr.hermite_state(grid, j) for j in range(model)],
                                     [0.8, -0.5, 0.3][:model])
    else:
        model = request.getfixturevalue(model)
    curve = fr.compute_curve(model, (-6.0, 6.0), 1001)
    dense = full_width_stationary(model, curve.energies)
    for got, key in ((curve.s, "s"), (curve.s_prime, "s_prime"),
                     (curve.delay_density, "delay"), (curve.shift_density, "xi_det")):
        assert np.all(np.abs(got - dense[key]) <= 1e-12 * np.maximum(1.0, np.abs(dense[key])))


@pytest.mark.parametrize("scan, cause", [
    ((1.0, 1.0, 201), "lo < hi"),
    ((-1.0, 1.0, 7), "at least 8 points"),
    ((-1.0, 1.0, 201.0), "integer n"),
    ((-10.0, 20.0, 201), "within 10 grid spacings"),
    (np.linspace(-10.0, 10.0, 201), r"\(lo, hi, n\) triple"),
])
def test_point_spectrum_refuses_a_bad_scan(coarse_grid, scan, cause):
    with pytest.raises(ValidationError, match=cause):
        fr.point_spectrum(_embedded_model(coarse_grid), scan=scan)


def test_point_spectrum_and_propagators_share_one_decomposition(coarse_grid, monkeypatch):
    # point_spectrum confirms by inertia counts and leaves no eigenpairs
    # behind; the propagators build (E, U) once between them
    calls = []
    step = resolvent._rank_one_eigh

    def counting_step(d, w, rho):
        calls.append(rho)
        return step(d, w, rho)

    def no_eigh(H):
        raise AssertionError("the eigendecomposition called np.linalg.eigh")

    monkeypatch.setattr(resolvent, "_rank_one_eigh", counting_step)
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    model = _embedded_model(coarse_grid)
    assert len(fr.point_spectrum(model).eigenvalues) == 1
    assert not calls and "eigendecomposition" not in model.__dict__
    first, second = fr.build_propagator(model), fr.build_propagator(model)
    assert len(calls) == model.rank
    assert first.steps is second.steps


def _columns(model):
    """U read through the propagator's columns, all M of them."""
    return fr.build_propagator(model).columns(np.arange(model.grid.points))


def _hamiltonian(model):
    """The dense discretized H = Q + V, formed only to check against."""
    g, vm = model.grid, model.vector_matrix()
    if not np.any(vm.imag):
        vm = vm.real
    return np.diag(g.position_nodes()) + g.spacing * (vm.T * model.coupling_array()) @ vm.conj()


@pytest.mark.parametrize("momentum, dtype", [(0.0, np.float64), (1.0, np.complex128)])
def test_real_models_decompose_a_real_hamiltonian(coarse_grid, momentum, dtype):
    # a real vector gives real eigenvectors; a boosted Gaussian is complex
    # and keeps complex ones
    v = fr.gaussian_state(coarse_grid, 0.0, 1.0, momentum=momentum)
    model = fr.finite_rank_model(coarse_grid, [v], [1.0])
    E, U = model.eigendecomposition[0], _columns(model)
    assert U.dtype == dtype
    H = _hamiltonian(model)
    scale = np.linalg.norm(H)
    assert np.linalg.norm(H @ U - U * E) <= 1e-10 * scale
    if dtype is np.float64:
        assert np.max(np.abs(E - np.linalg.eigh(H.astype(complex))[0])) <= 1e-12 * scale


def _assert_matches_eigh(H, E, U):
    """Eigenvalues to 1e-12 ||H||, eigenvectors up to phase and U^* U = I
    to 1e-12 against the dense solver.  Tied eigenvalues, such as the
    embedded model's (the node where v vanishes decouples, and a secular
    root lands on it to rounding), are compared by their eigenprojector."""
    E0, U0 = np.linalg.eigh(H)
    assert np.max(np.abs(E - E0)) <= 1e-12 * np.linalg.norm(H)
    close = np.diff(E0) <= 1e-8 * np.max(np.abs(E0))
    tied = np.r_[close, False] | np.r_[False, close]
    overlap = np.sum(U.conj() * U0, axis=0)[~tied]
    assert np.max(np.abs(U[:, ~tied] * (overlap / np.abs(overlap)) - U0[:, ~tied]),
                  initial=0.0) <= 1e-12
    at = np.flatnonzero(tied)
    for run in np.split(at, np.flatnonzero(np.diff(at) > 1) + 1):
        P, P0 = (V[:, run] @ V[:, run].conj().T for V in (U, U0))
        assert np.max(np.abs(P - P0), initial=0.0) <= 1e-12
    assert np.max(np.abs(U.conj().T @ U - np.eye(U.shape[1]))) <= 1e-12


def _hermite_model(grid, couplings, momentum=0.0):
    vecs = [fr.hermite_state(grid, n) for n in range(len(couplings))]
    boost = np.exp(1j * momentum * grid.position_nodes())
    return fr.finite_rank_model(
        grid, [fr.grid_function(grid, boost * v.samples) for v in vecs], couplings)


_DENSE_CHECKED = pytest.mark.parametrize("build", [
    *[lambda g, c=c: _hermite_model(g, c) for c in (
        [1.0], [-1.0], [0.8, -0.5], [-0.8, 0.5], [1.2, -0.7, 0.4], [-1.2, 0.7, -0.4])],
    _embedded_model,
    lambda g: fr.finite_rank_model(g, [fr.gaussian_state(g, 0.0, 1.0, momentum=1.0)], [1.0]),
    lambda g: _hermite_model(g, [0.9, -0.6], momentum=1.5),
    lambda g: _hermite_model(g, [0.0, 0.7]),
    lambda g: _hermite_model(g, [1e-14]),
], ids=["N1+", "N1-", "N2+", "N2-", "N3+", "N3-", "embedded", "boosted",
        "boosted-N2", "zero-coupling", "all-deflated"])


@_DENSE_CHECKED
def test_eigenpairs_match_the_dense_solver(coarse_grid, build):
    model = build(coarse_grid)
    E, U = model.eigendecomposition[0], _columns(model)
    assert np.all(np.diff(E) >= 0)
    _assert_matches_eigh(_hamiltonian(model), E, U)


@_DENSE_CHECKED
def test_factored_products_match_the_dense_columns(coarse_grid, build):
    # U z and U^* z run through the rank-one steps, real and complex z, one
    # vector or a block, against the same U built column by column
    prop, M = fr.build_propagator(build(coarse_grid)), coarse_grid.points
    U = prop.columns(np.arange(M))
    rng = np.random.default_rng(3)
    for z in (rng.standard_normal(M),
              rng.standard_normal((M, 3)) + 1j * rng.standard_normal((M, 3))):
        bound = 1e-13 * np.max(np.abs(z))
        assert np.max(np.abs(_apply_steps(prop.steps, z) - U @ z)) <= bound
        assert np.max(np.abs(_apply_steps(prop.steps, z, adjoint=True) - U.conj().T @ z)) <= bound


@_DENSE_CHECKED
def test_step_residuals_bound_the_dense_residual(coarse_grid, build, monkeypatch):
    # each step's residual in its own basis, summed, bounds ||HU - UE||_2 and
    # so the largest entry; with the bound at 0 the first step is refused by name
    model = build(coarse_grid)
    E, steps = model.eigendecomposition
    U, H = _columns(model), _hamiltonian(model)
    assert np.max(np.abs(H @ U - U * E)) <= sum(step.residual for step in steps)
    monkeypatch.setattr(resolvent, "_RESIDUAL", 0.0)
    first = int(np.flatnonzero(build(coarse_grid).coupling_array())[0])
    with pytest.raises(ValidationError, match=f"the step of coupling {first} leaves residual"):
        build(coarse_grid).eigendecomposition


def test_rank_two_propagator_forms_no_dense_matrix():
    # the steps hold O(M) data: building the propagator never allocates
    # anything near one M x M float64 array (134 MB at M = 4096)
    g = fr.make_grid(16.0, 4096)
    model = _hermite_model(g, [0.8, -0.5])
    model.vector_matrix()
    _, peak = _traced_peak(fr.build_propagator, model)
    assert peak < 0.25 * g.points ** 2 * 8


@pytest.mark.parametrize("build", [
    *[lambda g, c=c: _hermite_model(g, c) for c in (
        [1.0], [-1.0], [0.8, -0.5], [-0.8, 0.5], [1.2, -0.7, 0.4], [-1.2, 0.7, -0.4])],
    _embedded_model,
    lambda g: _hermite_model(g, [0.9, -0.6], momentum=1.5),
    lambda g: _hermite_model(g, [0.0, 0.7]),
], ids=["N1+", "N1-", "N2+", "N2-", "N3+", "N3-", "embedded", "boosted-N2", "zero-coupling"])
def test_inertia_count_matches_the_dense_solver(coarse_grid, build):
    # Haynsworth's count on the coupled nodes, plus the decoupled nodes
    # below mu, is the number of eigenvalues of H below mu: at random mu, a
    # hair either side of every eigenvalue, and on bulk nodes (the limit
    # from above) that no eigenvalue lies within 1e-9 of
    model = build(coarse_grid)
    E = np.linalg.eigvalsh(_hamiltonian(model))
    slices = resolvent._Slices(model)
    x = coarse_grid.position_nodes()
    nodes = x[(np.abs(x) < 4.0) & (np.min(np.abs(np.subtract.outer(x, E)), axis=1) > 1e-9)]
    mus = np.concatenate([np.random.default_rng(11).uniform(E[0] - 1.0, E[-1] + 1.0, 40),
                          E - 1e-9, E + 1e-9, nodes])
    counts = [slices.count(mu) + np.count_nonzero(x[~slices.coupled] < mu) for mu in mus]
    assert counts == [np.count_nonzero(E < mu) for mu in mus]


@pytest.mark.parametrize("total, width", [
    (0, 2048), (1, 0), (7, 1), (300_000, 1), (451, 2 * 2048), (1000, 4 * (23 + 256)),
    (5, resolvent._BLOCK_ENTRIES), (5, resolvent._BLOCK_ENTRIES + 1), (3, 10 ** 9)])
def test_blocks_cover_the_rows_once_within_the_entry_budget(total, width):
    # every rows x width working block takes its rows from _blocks
    blocks = resolvent._blocks(total, width)
    sizes = [len(range(total)[b]) for b in blocks]
    assert [i for b in blocks for i in range(total)[b]] == list(range(total))
    assert all(n * width <= resolvent._BLOCK_ENTRIES for n in sizes if n > 1)
    if width > resolvent._BLOCK_ENTRIES:
        assert sizes == [1] * total
    if total == 0:
        assert blocks == []


def test_rank_one_step_holds_at_most_two_gap_blocks():
    # the sweep's Gaussian model at M = 2048: the weights' products and the
    # column norms each run over one gap block at a time, the second with its
    # products formed in the block itself, so the solver peaks at 4.2 MiB;
    # four fresh 2 MiB blocks at once read 8.1 MiB
    g = fr.make_grid(16.0, 2048)
    w = fr.gaussian_state(g).samples.real
    _, peak = _traced_peak(resolvent._rank_one_eigh, g.position_nodes(), w, g.spacing)
    assert peak < 3 * resolvent._BLOCK_ENTRIES * 8


@pytest.mark.parametrize("rho", [0.7, -0.7])
def test_rank_one_step_deflates_repeated_poles_and_zero_weights(rho):
    d = np.linspace(-1.0, 1.0, 40)
    d[11] = d[10]                   # an exactly repeated pole
    d[21] = d[20] + 1e-15           # a pair 1e-15 apart
    w = np.random.default_rng(5).standard_normal(40)
    w[[5, 30]] = 0.0                # exact zeros
    E, step = resolvent._rank_one_eigh(d, w, rho)
    Q = step.columns(np.arange(40))
    _assert_matches_eigh(np.diag(d) + rho * np.outer(w, w), E, Q)
    for k in (5, 30):               # a zero weight keeps its pole and e_k
        m = int(np.argmin(np.abs(E - d[k])))
        assert E[m] == d[k] and np.array_equal(np.abs(Q[:, m]), np.eye(40)[k])
    for i in (10, 20):
        # the rotation leaves one eigenvector on the pair alone, orthogonal
        # to w; a secular-equation vector would touch every live entry
        pair = [i, i + 1]
        on_pair = np.flatnonzero(np.all(np.delete(Q, pair, axis=0) == 0.0, axis=0)
                                 & np.any(Q[pair] != 0.0, axis=0))
        assert on_pair.size == 1
        m = on_pair[0]
        assert abs(E[m] - d[i]) <= 1e-15 and abs(Q[pair, m] @ w[pair]) <= 1e-15


def _secular_inputs(d, w, rho):
    """(d, z, rho) of the secular equation _rank_one_eigh solves, for poles
    too far apart to rotate: |w| and a unit z, the order reversed for
    rho < 0, and the weights at or below the deflation tolerance dropped."""
    w = np.abs(w)
    nw = np.linalg.norm(w)
    z, rho = w / nw, rho * nw * nw
    if rho < 0:
        d, z, rho = -d[::-1], z[::-1], -rho
    live = rho * z > 8.0 * np.finfo(float).eps * max(np.max(np.abs(d)), rho)
    return d[live], z[live], rho


def _dlasd4_gaps(d, z, rho):
    """d_j - mu_i from LAPACK's dlasd4 on the poles sqrt(d - d_0).  For one
    pole dlasd4 returns delta = work = 1, so that gap, -rho z^2, is exact."""
    from scipy.linalg.lapack import dlasd4

    if d.size == 1:
        return np.array([[-rho * z[0] ** 2]])
    D = np.sqrt(d - d[0])
    gaps = np.empty((d.size, d.size))
    for i in range(d.size):
        delta, _, work, info = dlasd4(i, D, z, rho)
        assert info == 0
        gaps[:, i] = delta * work
    return gaps


def _secular_gap_error(d, z, rho):
    origin, tau = resolvent._secular_roots(d, z, rho)
    gaps, ref = np.subtract.outer(d, d[origin]) - tau, _dlasd4_gaps(d, z, rho)
    return np.max(np.abs(gaps - ref) / np.abs(ref))


@pytest.mark.parametrize("M", [512, 2048])
def test_secular_gaps_match_dlasd4(M):
    grid = fr.make_grid(16.0, M)
    x = grid.position_nodes()
    for n in range(4):
        v = fr.hermite_state(grid, n).samples.real
        for lam in (0.3, -0.3, 1.2, -1.2):
            assert _secular_gap_error(*_secular_inputs(x, v, grid.spacing * lam)) <= 1e-12


def _secular_case(case):
    d = np.linspace(-1.0, 1.0, 24)
    w, rho = np.random.default_rng(11).standard_normal(24), 0.7
    if case in ("K=1", "K=2"):
        keep = [7] if case == "K=1" else [3, 17]
        w = np.where(np.isin(np.arange(24), keep), w, 0.0)
    elif case == "near-tolerance":
        w[9] = 0.0
        nw = np.linalg.norm(w)
        tol = 8.0 * np.finfo(float).eps * max(1.0, rho * nw * nw)
        w[9] = 1.5 * tol / (rho * nw)         # rho |z_9| = 1.5 tol, so it stays live
    elif case == "close-pair":
        d[1] = d[0] + 1e-12
    elif case == "negative-rho":
        rho = -rho
    elif case == "complex":
        w = w * np.exp(1j * np.linspace(0.0, 5.0, 24))
    return d, w, rho


@pytest.mark.parametrize("case", ["K=1", "K=2", "near-tolerance", "close-pair",
                                  "negative-rho", "complex"])
def test_secular_solver_edge_cases(case):
    d, w, rho = _secular_case(case)
    inputs = _secular_inputs(d, w, rho)
    assert inputs[0].size == {"K=1": 1, "K=2": 2}.get(case, 24)
    if case == "close-pair":
        # the pair survives deflation: its rotation would move H by more than tol
        z = w[:2] / np.linalg.norm(w)
        assert 1e-12 * abs(z[0] * z[1]) / (z @ z) > 8.0 * np.finfo(float).eps * max(1.0, inputs[2])
    assert _secular_gap_error(*inputs) <= 1e-12
    E, step = resolvent._rank_one_eigh(d, w, rho)
    Q = step.columns(np.arange(24))
    _assert_matches_eigh(np.diag(d) + rho * np.outer(w, w.conj()), E, Q)


@pytest.mark.parametrize("seed", range(6))
def test_secular_solver_converges_on_crowded_poles(seed):
    # poles in clusters 1e-14 to 1e-6 wide, weights over eight decades: a
    # fixed-weight step that never swaps its fixed pole stalls on some roots.
    # Eigenvectors this close are ill-conditioned, so the check is the
    # residual, orthogonality and the eigenvalues, not the vectors
    rng = np.random.default_rng(seed)
    d = np.sort(np.round(rng.standard_normal(150), 1)
                + 10 ** rng.uniform(-14, -6) * rng.standard_normal(150))
    w = rng.standard_normal(150) * 10 ** rng.uniform(-8, 0, 150)
    rho = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-3, 2)
    E, step = resolvent._rank_one_eigh(d, w, rho)
    Q = step.columns(np.arange(150))
    H = np.diag(d) + rho * np.outer(w, w)
    scale = np.linalg.norm(H)
    assert np.max(np.abs(H @ Q - Q * E)) <= 1e-12 * scale
    assert np.max(np.abs(Q.T @ Q - np.eye(150))) <= 1e-12
    assert np.max(np.abs(E - np.linalg.eigvalsh(H))) <= 1e-12 * scale


@pytest.mark.parametrize("lam", [1.0, -1.0])
def test_secular_solver_converges_on_the_demo_model_at_16384(lam):
    # a root whose bracket had closed to adjacent floats, with |f| above
    # dlaed4's bound there, was once refused (root 4726 of 7633)
    g = fr.make_grid(16.0, 16384)
    x = g.position_nodes()
    E, step = resolvent._rank_one_eigh(x, fr.gaussian_state(g).samples.real, g.spacing * lam)
    assert step.keep.size == 7633 and np.all(np.diff(E) >= 0)
    assert step.residual <= resolvent._RESIDUAL * (np.max(np.abs(x)) + abs(lam))


def test_secular_root_stops_when_its_bracket_holds_no_float(monkeypatch):
    # f read with noise far above dlaed4's stop bound, as a long blocked sum
    # can leave it: no |f| meets the bound, and each root stops once no float
    # lies strictly inside its bracket, its gaps as good as the noise allows
    blocks, rng = resolvent._gap_blocks, np.random.default_rng(0)

    def noisy(d, base, tau):
        for rows, G in blocks(d, base, tau):
            G *= 1.0 + 1e-12 * rng.standard_normal(G.shape)
            yield rows, G

    d, z, rho = _secular_inputs(*_secular_case("generic"))
    monkeypatch.setattr(resolvent, "_gap_blocks", noisy)
    origin, tau = resolvent._secular_roots(d, z, rho)
    ref = _dlasd4_gaps(d, z, rho)
    gaps = np.subtract.outer(d, d[origin]) - tau
    assert np.max(np.abs(gaps - ref) / np.abs(ref)) <= 1e-10


def test_secular_refusal_names_the_root(monkeypatch):
    monkeypatch.setattr(resolvent, "_SECULAR_PASSES", 1)
    d, w, rho = _secular_case("generic")
    with pytest.raises(ValidationError, match=r"secular equation root \d+ of 24 did not converge"):
        resolvent._rank_one_eigh(d, w, rho)


def test_embedded_determinant_vanishes_at_one(grid):
    model = _embedded_model(grid)
    d = fr.perturbation_determinant(model, 1.0, "plus")
    assert abs(d) < 1e-10
    with pytest.raises(PointSpectrumProximity):
        fr.resolvent_matrix(model, fr.boundary_matrix(model, 1.0, "plus"))


def test_resolvent_matrix_reads_the_stored_determinant(rank2_model):
    bd = fr.boundary_matrix(rank2_model, 0.9, "plus")
    with pytest.raises(PointSpectrumProximity, match=r"\|D\| = 0\.00e\+00"):
        fr.resolvent_matrix(rank2_model, dataclasses.replace(bd, determinant=0.0))


# ---------------------------------------------------------------------------
# validation and guard rails


def test_model_validation(grid):
    g1 = fr.gaussian_state(grid)
    with pytest.raises(ValidationError):
        fr.finite_rank_model(grid, [g1], [1.0, 2.0])  # count mismatch
    with pytest.raises(ValidationError):
        fr.finite_rank_model(grid, [g1, g1], [1.0, 1.0])  # not orthonormal
    with pytest.raises(ValidationError):
        fr.finite_rank_model(grid, [g1], [math.nan])
    wide = fr.gaussian_state(grid, width=8.0)  # leaks at the box edge
    with pytest.raises(ValidationError):
        fr.finite_rank_model(grid, [wide], [1.0])
    other = fr.make_grid(8.0, 1024)
    with pytest.raises(ValidationError):
        fr.finite_rank_model(grid, [fr.gaussian_state(other)], [1.0])
    with pytest.raises(ValidationError):
        fr.finite_rank_model(grid, [fr.transform(g1)], [1.0])


def test_a_direct_model_is_checked_like_the_factory(grid):
    g1 = fr.gaussian_state(grid)
    for couplings, vectors, cause in [
        ((math.nan,), (g1,), "couplings must be finite reals"),
        ((1.0,), (fr.gaussian_state(grid, width=3.0),), "vector 0 does not decay"),
        ((1.0, 1.0), (g1, g1), "vectors 0,1 violate orthonormality"),
        ((1.0,), (fr.gaussian_state(fr.make_grid(8.0, 1024)),), "vector 0 lives on a different"),
    ]:
        with pytest.raises(ValidationError, match=cause):
            fr.FiniteRankModel(grid, couplings, vectors)


def test_boundary_margin_guard(gaussian_model, grid):
    edge_x = grid.half_width - 5 * grid.spacing
    with pytest.raises(ValidationError):
        fr.boundary_matrix(gaussian_model, edge_x, "plus")
    v = fr.gaussian_state(grid)
    g = fr.grid_function(grid, np.abs(v.samples) ** 2)
    with pytest.raises(ValidationError):
        fr.pv_integral(g, edge_x)


@pytest.mark.parametrize("bad", [math.nan, -math.inf])
@pytest.mark.parametrize("call", [
    lambda m, x: fr.s_matrix(m, x),
    lambda m, x: fr.s_matrix_chain(m, x),
    lambda m, x: fr.boundary_matrix(m, x, "plus"),
    lambda m, x: fr.pv_integral(m.vectors[0], x),
    lambda m, x: fr.perturbation_determinant(m, [0.1, x], "plus"),
    lambda m, x: fr.evaluate_many(m.vectors[0], [x])[0],
], ids=["s_matrix", "s_matrix_chain", "boundary_matrix", "pv_integral",
        "perturbation_determinant", "evaluate_many"])
def test_non_finite_energies_are_refused_by_name(gaussian_model, call, bad):
    with pytest.raises(ValidationError, match=f"{bad:g}"):
        call(gaussian_model, bad)


def test_an_overflowing_determinant_is_refused_by_name(grid):
    # det(I + r Lambda) ~ 1e330 is inf in binary64: no route may report it,
    # or the nan and non-unimodular S it leads to, and none may warn first
    vecs = [fr.hermite_state(grid, j) for j in range(3)]
    model = fr.finite_rank_model(grid, vecs, [1e110] * 3)
    calls = [lambda: fr.s_matrix_chain(model, 0.3), lambda: fr.s_matrix(model, 0.3),
             lambda: fr.boundary_matrix(model, 0.3, "minus"),
             lambda: fr.perturbation_determinant(model, [0.3], "plus")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValidationError, match="energy 0.3 overflows"):
                call()


def _full_width(model, x, side, n):
    """r^(n)(x +- i0) from one dense projection over every coefficient and node."""
    r = full_width_boundary(model.grid, model.pair_densities(n - 1)[0], [x], side)[0]
    return r.reshape(model.rank, model.rank) / math.factorial(n - 1)


@pytest.mark.parametrize("points", [512, 2048, 8192])
def test_single_energies_read_the_band_as_the_full_width_route(points, full_width_determinant):
    # the band models at a node and at the smallest subnormal energy
    g = fr.make_grid(16.0, points)
    x = g.position_nodes()
    models = _band_models(g)
    for model in models:
        for e in (float(x[points // 2 + 3]), 5e-324, -1.37, 2.9, -4.4):
            for n in (1, 2, 3):
                for side in ("minus", "plus"):
                    want = _full_width(model, e, side, n)
                    got = fr.boundary_matrix(model, e, side, n).matrix
                    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
            lower, upper = (full_width_determinant(model, [e], side)[0]
                            for side in ("minus", "plus"))
            assert abs(fr.s_matrix_chain(model, e) - lower / upper) <= 1e-14


@pytest.mark.parametrize("points", [512, 2048, 8192])
def test_determinants_read_the_band_as_the_full_width_route(points, full_width_determinant):
    # the band models on 40 energies, more than one block of the full-band
    # tent at M = 8192 (16 rows), as an array and one number at a time
    g = fr.make_grid(16.0, points)
    es = np.concatenate([[float(g.position_nodes()[points // 2 + 3]), 5e-324, -1.37],
                         np.random.default_rng(31).uniform(-14.0, 14.0, 37)])
    for model in _band_models(g):
        for side in ("minus", "plus"):
            want = full_width_determinant(model, es, side)
            got = fr.perturbation_determinant(model, es, side)
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
            assert np.array_equal(got, [fr.perturbation_determinant(model, e, side) for e in es])


@pytest.mark.parametrize("points", [512, 2048, 65536])
def test_near_node_run_is_bitwise_the_mask_rule(points):
    # the run of nodes within 1e-2, read off (x - x0)/h, against the mask over
    # the whole row: on nodes, at +-1e-2 from one and one ulp either side of
    # that bound, between nodes and at the box margin, on the whole row and on
    # a band of it whose first node x0 is not -L; at M = 65536 some 41 nodes
    # take the series
    g = fr.make_grid(16.0, points)
    x, h, L = g.position_nodes(), g.spacing, g.half_width
    nodes = x[[points // 2, points // 2 + 7, points // 3, 10]]
    xs = [0.0, 5e-324, -5e-324, 0.3 * h, L - 10 * h, -(L - 10 * h)]
    for e in nodes:
        for d in (1e-2, -1e-2):
            xs += [e, e + d, np.nextafter(e + d, e), np.nextafter(e + d, e + 2 * d)]
    xs = np.array(xs)
    want = _masked_line_kernel(g, xs)
    assert np.array_equal(resolvent._line_kernel(g, xs), want)
    band = slice(points // 3 - 5, points - 7)
    assert np.array_equal(resolvent._line_kernel(g, xs, band), want[:, band])
    if points == 65536:
        assert np.count_nonzero(np.abs(x - nodes[0]) < 1e-2) == 41


@pytest.mark.parametrize("points", [512, 2048, 65536])
def test_a_line_row_is_bitwise_its_kernel_row(points):
    # _line_row bisects one energy's window; _line_kernel gathers every
    # row's window at once: the same run, so the same bits, on the whole row
    # and on a band whose first node x0 is not -L
    g = fr.make_grid(16.0, points)
    x, h, L = g.position_nodes(), g.spacing, g.half_width
    e = x[points // 3]
    xs = np.array([0.0, 5e-324, 0.3 * h, L - 10 * h, -(L - 10 * h), e, e + 1e-2,
                   np.nextafter(e - 1e-2, e), np.nextafter(e + 1e-2, e + 1.0)])
    for nodes in (slice(None), slice(points // 3 - 5, points - 7)):
        pos = x[nodes]
        for row, e in zip(resolvent._line_kernel(g, xs, nodes), xs.tolist()):
            assert np.array_equal(resolvent._line_row(g, pos, float(pos[0]), e), row)


def test_a_number_and_an_array_read_the_band_bitwise_alike():
    # each energy of an array is cut by the same kernel as the number alone,
    # so the values are the same bits; the chain is the ratio of the two sides
    g = fr.make_grid(16.0, 2048)
    x = g.position_nodes()
    es = np.array([x[1024], x[1027], x[700], 5e-324, -1.37, 2.9])
    for model in _band_models(g):
        for n in (1, 2, 3):
            batch = resolvent._cut_boundary(model, es, n)
            for i, e in enumerate(es.tolist()):
                for side in ("minus", "plus"):
                    got = fr.boundary_matrix(model, e, side, n).matrix
                    assert np.array_equal(got, batch[int(side == "plus"), i])
        for e in es.tolist():
            lower, upper = (fr.perturbation_determinant(model, e, side) for side in ("minus", "plus"))
            assert fr.s_matrix_chain(model, e) == lower / upper


@pytest.mark.parametrize("points", [512, 2048, 8192])
def test_single_energy_routes_are_bitwise_the_band_reference(points):
    # every route on the one-energy read, against conftest's copy of the band
    # read as it stood before the read plans: _cut_read, the array loop, both
    # boundary matrices of orders 1-3 with their determinants, the
    # determinant as a number and as an array, the chain, s_matrix, s_prime
    # and the shift density, on Hermite ranks 1-3; energies at nodes, 1e-2
    # either side of one and one ulp either side of that, +-5e-324, 0 and random
    g = fr.make_grid(16.0, points)
    x = g.position_nodes()
    es = [0.0, 5e-324, -5e-324]
    for e in (float(x[points // 2 + 3]), float(x[points // 3])):
        es.append(e)
        for d in (1e-2, -1e-2):
            es += [e + d, float(np.nextafter(e + d, e)), float(np.nextafter(e + d, e + 2 * d))]
    es += np.random.default_rng(43).uniform(-14.0, 14.0, 6).tolist()
    for rank in (1, 2, 3):
        model = _hermite_model(g, [0.8, -0.5, 0.3][:rank])
        for n in (1, 2, 3):
            want = np.array([band_reference(model, e, n) for e in es])
            assert np.array_equal(resolvent._cut_boundary(model, es, n), want.swapaxes(0, 1))
            for e, w in zip(es, want):
                assert np.array_equal(resolvent._cut_read(model, e, n), w)
                for side, r in zip(("minus", "plus"), w):
                    bd = fr.boundary_matrix(model, e, side, n)
                    assert np.array_equal(bd.matrix, r)
                    if n == 1:
                        D = complex(band_determinant_reference(model, r[None])[0])
                        assert bd.determinant == D
                        assert fr.perturbation_determinant(model, e, side) == D
            if n == 1:
                D = band_determinant_reference(model, want)          # (Nx, 2)
                for s, side in enumerate(("minus", "plus")):
                    assert np.array_equal(fr.perturbation_determinant(model, es, side), D[:, s])
                assert [fr.s_matrix_chain(model, e) for e in es] == [a / b for a, b in D.tolist()]
        for e in es:
            ref = stationary_reference(model, [e])
            assert fr.s_matrix(model, e) == complex(ref["s"][0])
            assert fr.s_prime(model, e) == complex(ref["s_prime"][0])
        assert np.array_equal(fr.spectral_shift_density_determinant(model, es),
                              stationary_reference(model, es)["xi_det"])


def test_probe_blocks_stay_within_the_entry_budget():
    # 199 exclusion-probe energies at M = 16384, where the Hermite 0-2 band
    # is 135 coefficients and 6815 nodes: read one energy at a time they peak
    # near 0.2 MB, against 46 MB for one unblocked (199, band) kernel and its
    # temporaries and 19 MB for the dense projection's 16-energy blocks
    g = fr.make_grid(16.0, 16384)
    model = _hermite_model(g, [0.8, -0.5, 0.3])
    nodes = model.pair_densities(0)[3]
    assert nodes.stop - nodes.start > 6000
    probes = 1.0 + 1.6 * g.half_width / 4000 * np.arange(1, 200)
    _, peak = _traced_peak(fr.perturbation_determinant, model, probes, "plus")
    assert peak < 6 * resolvent._BLOCK_ENTRIES * 8
    assert peak < 1 << 20


def test_half_turns_reduce_q_m_exactly():
    # e^{i pi q m} against q m reduced mod 2 in exact rational arithmetic, for
    # random q and m of both signs past the 2^26 split, whose direct phase
    # loses up to 1e-4 here; skipping an all-zero part of m changes no bit of
    # the four-part sum
    from fractions import Fraction

    gen = np.random.default_rng(37)
    for m in (gen.integers(-2 ** 51, 2 ** 51, 40), gen.integers(-2 ** 26, 2 ** 26, 40),
              gen.integers(0, 2 ** 26, 40), np.array([0, 2 ** 26, -2 ** 27, 5 * 2 ** 26])):
        for q in gen.uniform(-2.0, 2.0, 4):
            exact = np.array([float(Fraction(q) * int(k) % 2) for k in m])
            got = resolvent._half_turns(q, m)
            assert np.max(np.abs(got - np.exp(1j * math.pi * exact))) <= 1e-14
            c = 134217729.0 * q
            turns = 0.0
            for a in (c - (c - q), q - (c - (c - q))):
                for b in ((m >> 26) << 26, m & (2 ** 26 - 1)):
                    turns = np.mod(turns + np.mod(a * b.astype(float), 2.0), 2.0)
            assert np.array_equal(got, np.exp(1j * math.pi * turns))


def test_the_band_is_kept_as_two_slices_beside_the_densities(grid):
    # the store holds the densities and two slices; rank 0 has an empty band
    model = fr.finite_rank_model(grid, [fr.hermite_state(grid, j) for j in range(3)], [0.8, -0.5, 0.3])
    for order in (0, 1, 2):
        samples, coeffs, cols, nodes = model.pair_densities(order)
        assert isinstance(cols, slice) and isinstance(nodes, slice)
        assert cols.start <= grid.points // 2 < cols.stop
    empty = fr.finite_rank_model(grid, [], [])
    assert empty.pair_densities(0)[2:] == (slice(0, 0), slice(0, 0))
    assert fr.s_matrix_chain(empty, 0.3) == 1.0
    assert fr.boundary_matrix(empty, 0.3, "minus", 2).matrix.shape == (0, 0)


def test_side_and_order_validation(gaussian_model):
    with pytest.raises(ValidationError):
        fr.boundary_matrix(gaussian_model, 0.5, "up")
    with pytest.raises(ValidationError):
        fr.boundary_matrix(gaussian_model, 0.5, "plus", n=0)
    bd2 = fr.boundary_matrix(gaussian_model, 0.5, "plus", n=2)
    with pytest.raises(ValidationError):
        fr.resolvent_matrix(gaussian_model, bd2)
