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

import numpy as np
import pytest

import friedrichs as fr
from friedrichs import (
    PointSpectrumProximity,
    StateNotAdmissible,
    ValidationError,
)
from friedrichs import resolvent
from friedrichs.resolvent import _ChirpProjection, _determinant
from friedrichs.scattering import _stationary_at

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
    # not bitwise: a 1-row and a 6-row evaluation product differ near 1e-16
    xs = np.array([-2.3, 0.0, 1e-7, float(grid.position_nodes()[1100]), 0.9, 3.1])
    for side in ("plus", "minus"):
        batch = fr.perturbation_determinant(rank2_model, xs, side)
        scalar = np.array([fr.perturbation_determinant(rank2_model, float(x), side)
                           for x in xs])
        assert batch.shape == xs.shape and batch.dtype == complex
        assert np.all(np.abs(batch - scalar) <= 1e-14 * np.maximum(1.0, np.abs(scalar)))
    empty = fr.finite_rank_model(grid, [], [])
    assert np.array_equal(fr.perturbation_determinant(empty, xs, "plus"), np.ones(xs.size))


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


def _embedded_model(grid):
    """v(x) = c (x-1) e^{-x^2/2}, lambda = 3/2: the determinant has a real
    zero exactly at x0 = 1 because v(1) = 0 and
    P.V. integral of |v|^2/(k-1) = -2/3 there."""
    x = grid.position_nodes()
    c = (1.5 * math.sqrt(math.pi)) ** -0.5
    v = fr.grid_function(grid, c * (x - 1.0) * np.exp(-0.5 * x * x))
    return fr.finite_rank_model(grid, [v], [1.5])


def test_point_spectrum_embedded_eigenvalue(grid):
    model = _embedded_model(grid)
    ps = fr.point_spectrum(model)
    assert len(ps.eigenvalues) == 1
    assert abs(ps.eigenvalues[0] - 1.0) < 1e-4
    assert ps.radii[0] > 0.0


def test_exclusion_probes_stay_inside_the_box(coarse_grid):
    # probes run x0 + step * (1..199) = 1.1 .. 20.9, past the edge at 16
    ps = fr.point_spectrum(_embedded_model(coarse_grid), scan=(-10, 10, 201))
    assert len(ps.eigenvalues) == 1 and abs(ps.eigenvalues[0] - 1.0) < 1e-4
    assert ps.radii == (pytest.approx(0.2),)
    assert type(ps.radii[0]) is float


def test_point_spectrum_witness_couples_to_the_vectors(coarse_grid):
    # v vanishes at the node x = 1, which decouples as (1, e_k): localized
    # by construction, so it must not stand witness for the eigenvalue.
    # Put it exactly at x0 and delocalize the coupled eigenvector there.
    model = _embedded_model(coarse_grid)
    x0 = fr.point_spectrum(model).eigenvalues[0]
    E, U = (a.copy() for a in model.eigendecomposition)
    near = np.flatnonzero(np.abs(E - x0) < 1e-3)
    overlap = np.abs(model.vector_matrix().conj() @ U[:, near])[0]
    decoupled, coupled = near[overlap == 0], near[overlap > 0]
    assert decoupled.size == coupled.size == 1
    E[decoupled] = x0
    U[:, coupled] = 1.0 / math.sqrt(coarse_grid.points)
    doctored = _embedded_model(coarse_grid)
    doctored.__dict__["eigendecomposition"] = (E, U)
    assert fr.point_spectrum(doctored).eigenvalues == ()


@pytest.mark.parametrize("model", ["gaussian_model", "rank2_model"])
def test_chirp_scan_matches_the_dense_determinant(request, grid, model):
    # the default scan on the demo grid: unreduced chirp phases err by about
    # 6e-13 here, the exactly reduced ones by below 1e-14
    model = request.getfixturevalue(model)
    L = grid.half_width
    lo, hi, n = -0.8 * L, 0.8 * L, 4001
    chirp = _determinant(model, _ChirpProjection(grid, lo, hi, n), "plus")
    dense = fr.perturbation_determinant(model, np.linspace(lo, hi, n), "plus")
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
    dense = _stationary_at(model, curve.energies)
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
    first, second = fr.build_propagator(model), fr.build_propagator(model)
    assert len(calls) == model.rank
    assert first.eigenvectors is second.eigenvectors


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
    E, U = model.eigendecomposition
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


@pytest.mark.parametrize("build", [
    *[lambda g, c=c: _hermite_model(g, c) for c in (
        [1.0], [-1.0], [0.8, -0.5], [-0.8, 0.5], [1.2, -0.7, 0.4], [-1.2, 0.7, -0.4])],
    _embedded_model,
    lambda g: fr.finite_rank_model(g, [fr.gaussian_state(g, 0.0, 1.0, momentum=1.0)], [1.0]),
    lambda g: _hermite_model(g, [0.9, -0.6], momentum=1.5),
    lambda g: _hermite_model(g, [0.0, 0.7]),
    lambda g: _hermite_model(g, [1e-14]),
], ids=["N1+", "N1-", "N2+", "N2-", "N3+", "N3-", "embedded", "boosted",
        "boosted-N2", "zero-coupling", "all-deflated"])
def test_eigenpairs_match_the_dense_solver(coarse_grid, build):
    model = build(coarse_grid)
    E, U = model.eigendecomposition
    assert np.all(np.diff(E) >= 0)
    _assert_matches_eigh(_hamiltonian(model), E, U)


@pytest.mark.parametrize("rho", [0.7, -0.7])
def test_rank_one_step_deflates_repeated_poles_and_zero_weights(rho):
    d = np.linspace(-1.0, 1.0, 40)
    d[11] = d[10]                   # an exactly repeated pole
    d[21] = d[20] + 1e-15           # a pair 1e-15 apart
    w = np.random.default_rng(5).standard_normal(40)
    w[[5, 30]] = 0.0                # exact zeros
    E, Q = resolvent._rank_one_eigh(d, w, rho)
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
    with pytest.raises(ValidationError):
        fr.finite_rank_model(grid, [g1], [1.0], mu=0.0)
    wide = fr.gaussian_state(grid, width=8.0)  # leaks at the box edge
    with pytest.raises(ValidationError):
        fr.finite_rank_model(grid, [wide], [1.0])
    other = fr.make_grid(8.0, 1024)
    with pytest.raises(ValidationError):
        fr.finite_rank_model(grid, [fr.gaussian_state(other)], [1.0])
    with pytest.raises(ValidationError):
        fr.finite_rank_model(grid, [fr.transform(g1)], [1.0])


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
    lambda m, x: fr.evaluate_at(m.vectors[0], x),
], ids=["s_matrix", "s_matrix_chain", "boundary_matrix", "pv_integral",
        "perturbation_determinant", "evaluate_at"])
def test_non_finite_energies_are_refused_by_name(gaussian_model, call, bad):
    with pytest.raises(ValidationError, match=f"{bad:g}"):
        call(gaussian_model, bad)


def test_side_and_order_validation(gaussian_model):
    with pytest.raises(ValidationError):
        fr.boundary_matrix(gaussian_model, 0.5, "up")
    with pytest.raises(ValidationError):
        fr.boundary_matrix(gaussian_model, 0.5, "plus", n=0)
    bd2 = fr.boundary_matrix(gaussian_model, 0.5, "plus", n=2)
    with pytest.raises(ValidationError):
        fr.resolvent_matrix(gaussian_model, bd2)


def test_low_regularity_warning(grid):
    model = fr.finite_rank_model(grid, [fr.gaussian_state(grid)], [1.0], mu=2.5)
    with pytest.warns(UserWarning, match="regularity"):
        fr.boundary_matrix(model, 0.5, "plus", n=2)
