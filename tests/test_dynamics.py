"""Propagators, wave operators, sojourn times, and the r-sweep.

Oracle notes.  Free evolution is multiplication by e^{-ixt} in position,
equivalently a momentum translation: for t equal to a whole number of
momentum cells the translated transform matches np.roll exactly, which
checks the evolution against the FFT conventions with no analysis in
between.  Wave-operator quality is certified by three independent
handles: isometry, intertwining with the evolutions, and the agreement
of Cook's time integral with the stationary resolvent formula for W-.
"""

import math

import numpy as np
import pytest

import friedrichs as fr
from friedrichs import Representation, ToleranceError, ValidationError, dynamics
from friedrichs.resolvent import _stationary_wave_operator


@pytest.fixture(scope="module")
def f_ind():
    return fr.make_localization("indicator", J=(-1.0, 1.0))


@pytest.fixture(scope="module")
def f_smooth():
    return fr.make_localization("smooth_bump", delta=1.0, width=1.0, rho=3.0)


# ---------------------------------------------------------------------------
# evolution


def test_free_evolution_is_position_phase(gaussian_propagator, grid):
    phi = fr.gaussian_state(grid, 0.3, 0.7)
    t = 1.37
    out = fr.evolve(gaussian_propagator, phi, t, "free")
    ref = np.exp(-1j * t * grid.position_nodes()) * phi.samples
    assert np.max(np.abs(out.samples - ref)) < 1e-14


def test_free_evolution_translates_momentum(gaussian_propagator, grid):
    # t = n momentum cells: the transform shifts down by exactly n bins
    n = 10
    t = n * grid.momentum_spacing
    phi = fr.gaussian_state(grid, 0.0, 0.5, momentum=1.0)
    before = fr.transform(phi).samples
    after = fr.transform(fr.evolve(gaussian_propagator, phi, t, "free")).samples
    assert np.max(np.abs(after - np.roll(before, -n))) < 1e-12


def test_full_evolution_unitary_and_energy_conserving(gaussian_propagator, grid):
    gen = np.random.default_rng(17)
    E, U = gaussian_propagator.eigenvalues, gaussian_propagator.eigenvectors
    for _ in range(25):
        raw = gen.standard_normal(grid.points) * np.exp(
            -0.1 * np.abs(grid.position_nodes()))
        phi = fr.grid_function(grid, raw / np.linalg.norm(raw) / math.sqrt(grid.spacing))
        out = fr.evolve(gaussian_propagator, phi, 3.7, "full")
        assert abs(fr.norm(out) - fr.norm(phi)) < 1e-12
        # <phi, H phi> through the eigenbasis before and after
        c0 = U.conj().T @ phi.samples
        c1 = U.conj().T @ out.samples
        e0 = float(np.real(np.sum(E * np.abs(c0) ** 2)))
        e1 = float(np.real(np.sum(E * np.abs(c1) ** 2)))
        assert abs(e1 - e0) < 1e-10 * max(1.0, abs(e0))


def test_eigenvalue_interlacing_small_grid():
    # rank-one positive perturbation pushes each eigenvalue into the next
    # node gap: x_i <= E_i <= x_{i+1}
    g = fr.make_grid(12.0, 128)
    model = fr.finite_rank_model(g, [fr.gaussian_state(g)], [0.9])
    prop = fr.build_propagator(model)
    x = g.position_nodes()
    E = np.sort(prop.eigenvalues)
    assert np.all(E >= x - 1e-12)
    assert np.all(E[:-1] <= x[1:] + 1e-12)


def test_zero_coupling_propagator_is_diagonal(grid):
    model = fr.finite_rank_model(grid, [fr.gaussian_state(grid)], [0.0])
    prop = fr.build_propagator(model)
    assert prop.is_diagonal
    phi = fr.gaussian_state(grid, 0.2, 0.6)
    full = fr.evolve(prop, phi, 2.2, "full")
    free = fr.evolve(prop, phi, 2.2, "free")
    assert np.array_equal(full.samples, free.samples)


def test_evolve_which_validation(gaussian_propagator, grid):
    phi = fr.gaussian_state(grid)
    with pytest.raises(ValidationError):
        fr.evolve(gaussian_propagator, phi, 1.0, "sideways")
    # spelling variants canonicalize
    a = fr.evolve(gaussian_propagator, phi, 0.5, "FREE")
    b = fr.evolve(gaussian_propagator, phi, 0.5, "free")
    assert np.array_equal(a.samples, b.samples)


# ---------------------------------------------------------------------------
# wave operators


def test_wave_operator_identity_for_zero_coupling(grid):
    phi = fr.bump_state(grid, (0.25, 0.75))
    for model in (fr.finite_rank_model(grid, [fr.gaussian_state(grid)], [0.0]),
                  fr.finite_rank_model(grid, [], [])):
        prop = fr.build_propagator(model)
        for sign in ("minus", "plus"):
            out = fr.wave_operator(prop, phi, sign)
            assert np.array_equal(out.samples, phi.samples)
        assert np.array_equal(_stationary_wave_operator(model, phi).samples, phi.samples)


def _route_gap(grid, model, phi):
    """(||W_Cook phi - W_stat phi||, Cook's tail estimate, W_stat phi)."""
    cook, info = fr.wave_operator(fr.build_propagator(model), phi, "minus", return_info=True)
    stat = _stationary_wave_operator(model, phi)
    return fr.norm(fr.grid_function(grid, cook.samples - stat.samples)), \
        info["tail_estimate"], stat


def test_wave_operator_methods_agree(gaussian_model, rank2_model, grid):
    # Cook's time integral against the stationary resolvent formula, which
    # shares no code with it but the vectors: a narrow Gaussian at the AC-10
    # bound, the sweep's bump on rank one and rank two at Cook's own tail
    # estimate; the stationary route must be an isometry as well
    psi = fr.gaussian_state(grid, 0.5, 0.4)
    gap, _, stat = _route_gap(grid, gaussian_model, psi)
    assert gap < 1e-4  # measured 1.2e-14
    assert abs(fr.norm(stat) - fr.norm(psi)) < 1e-12
    phi = fr.bump_state(grid, (0.25, 0.75))
    flipped = fr.finite_rank_model(grid, gaussian_model.vectors, [-1.0])
    for model in (gaussian_model, flipped, rank2_model):
        gap, tail, stat = _route_gap(grid, model, phi)
        assert 0.0 < gap <= tail  # measured 1.1e-8 / 6.7e-9 / 1.0e-8
        assert abs(fr.norm(stat) - fr.norm(phi)) < 1e-12


@pytest.mark.parametrize("horizon", [0.5, 1.0, 2.0, 4.0])
def test_cook_tail_estimate_charges_the_probe_beyond_the_horizon(gaussian_model, grid,
                                                                 horizon):
    # the Gaussian's couplings are dead over the probe's tail half, so the
    # fitted power law alone reads 0 at every horizon; the probed amplitudes
    # past a short horizon must drive the retries to an accurate W- phi
    psi = fr.gaussian_state(grid, 0.5, 0.4)
    w, info = fr.wave_operator(fr.build_propagator(gaussian_model), psi, "minus",
                               horizon=horizon, return_info=True)
    stat = _stationary_wave_operator(gaussian_model, psi)
    assert info["attempts"] > 1
    assert 0.0 < info["tail_estimate"] <= 1e-4
    assert fr.norm(fr.grid_function(grid, w.samples - stat.samples)) <= 1e-4


def test_wave_operator_isometry_on_bump(gaussian_propagator, grid):
    phi = fr.bump_state(grid, (0.25, 0.75))
    w, info = fr.wave_operator(gaussian_propagator, phi, "minus", return_info=True)
    assert abs(fr.norm(w) - fr.norm(phi)) < 1e-4
    assert info["tail_estimate"] <= 1e-4
    assert info["zeta"] > 2.0


def test_wave_operator_intertwines_evolutions(gaussian_propagator, grid):
    # W_- e^{-itH0} = e^{-itH} W_-
    psi = fr.gaussian_state(grid, 0.5, 0.4)
    t = 1.0
    lhs = fr.wave_operator(gaussian_propagator,
                           fr.evolve(gaussian_propagator, psi, t, "free"), "minus")
    w = fr.wave_operator(gaussian_propagator, psi, "minus")
    rhs = fr.evolve(gaussian_propagator, w, t, "full")
    res = fr.norm(fr.grid_function(grid, lhs.samples - rhs.samples))
    assert res < 1e-4  # measured ~1e-14


def test_plus_and_minus_differ_by_scattering(gaussian_propagator, gaussian_curve, grid):
    # S phi = W_+^* W_- phi, so W_+ (S phi) = W_- phi
    phi = fr.bump_state(grid, (0.25, 0.75))
    w_minus = fr.wave_operator(gaussian_propagator, phi, "minus")
    s_phi = fr.apply_scattering(gaussian_curve, phi)
    w_plus_s = fr.wave_operator(gaussian_propagator, s_phi, "plus")
    diff = fr.norm(fr.grid_function(grid, w_minus.samples - w_plus_s.samples))
    assert diff < 1e-4


def test_wave_operator_retries_in_one_loop(coarse_grid):
    # from horizon 1.0 the tail estimate needs six 1.5x extensions; the
    # loop counts every try and ends where a direct call at 1.5^6 starts
    model = fr.finite_rank_model(coarse_grid, [fr.gaussian_state(coarse_grid)], [1.0])
    prop = fr.build_propagator(model)
    psi = fr.gaussian_state(coarse_grid, 0.5, 0.4)
    grown, info = fr.wave_operator(prop, psi, "minus", horizon=1.0, return_info=True)
    direct, direct_info = fr.wave_operator(prop, psi, "minus", horizon=11.390625,
                                           return_info=True)
    assert info["attempts"] == 7
    assert direct_info["attempts"] == 1
    assert info["horizon"] == direct_info["horizon"] == 11.390625
    assert info["tail_estimate"] == direct_info["tail_estimate"] <= 1e-4
    assert np.array_equal(grown.samples, direct.samples)


def test_wave_operator_validation(gaussian_propagator, grid):
    phi = fr.gaussian_state(grid, 0.5, 0.4)
    with pytest.raises(ValidationError):
        fr.wave_operator(gaussian_propagator, phi, "backwards")
    cap = grid.momentum_cutoff
    with pytest.raises(ValidationError):
        fr.wave_operator(gaussian_propagator, phi, "minus", horizon=cap + 50.0)


@pytest.mark.parametrize("compact", [True, False])
def test_cook_couplings_on_the_support_match_the_full_grid(gaussian_propagator, grid, compact):
    phi = fr.bump_state(grid, (0.25, 0.75)) if compact else fr.gaussian_state(grid, 0.5, 0.6)
    assert np.all(phi.samples != 0) != compact
    taus = np.linspace(-40.0, 40.0, 161)
    x = grid.position_nodes()
    vm = gaussian_propagator.model.vector_matrix()
    full = grid.spacing * (vm.conj() @ (np.exp(-1j * np.outer(x, taus)) * phi.samples[:, None]))
    got = dynamics._cook_couplings(gaussian_propagator, phi, taus)
    assert np.max(np.abs(got - full)) <= 1e-15 * np.max(np.abs(full))


def test_cook_panels_match_the_per_node_quadrature(coarse_grid):
    # one exponential per panel and node, summed node by node, as reference
    # for the panel-factored phases; rank 2 exercises the sum over vectors
    g = coarse_grid
    lam = np.array([0.8, -0.5])
    model = fr.finite_rank_model(g, [fr.hermite_state(g, 0), fr.hermite_state(g, 1)], lam)
    prop = fr.build_propagator(model)
    psi = fr.gaussian_state(g, 0.5, 0.6)
    vm, E, U = model.vector_matrix(), prop.eigenvalues, prop.eigenvectors
    nodes, weights = np.polynomial.legendre.leggauss(10)
    for sign, s in (("minus", -1.0), ("plus", 1.0)):
        w, info = fr.wave_operator(prop, psi, sign, return_info=True)
        n = max(int(math.ceil(info["horizon"] / 0.2)), 1)
        edges = np.linspace(0.0, info["horizon"], n + 1)
        hw = 0.5 * (edges[1] - edges[0])
        taus = s * (0.5 * (edges[:-1] + edges[1:])[:, None] + hw * nodes).ravel()
        cc = g.spacing * (vm.conj() @ (np.exp(-1j * np.outer(g.position_nodes(), taus))
                                       * psi.samples[:, None]))
        W = U.conj().T @ (lam[:, None] * vm).T
        acc = (W @ cc * np.exp(1j * np.outer(E, taus))) @ np.tile(hw * weights, n)
        ref = psi.samples + 1j * s * (U @ acc)
        assert np.max(np.abs(w.samples - ref)) <= 1e-13 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# sojourn times and the propagation functional


def _momentum_columns(prop, cols):
    """The eigenvectors cols in momentum, one fr.transform each."""
    return np.stack([fr.transform(fr.grid_function(prop.grid, prop.eigenvectors[:, j])).samples
                     for j in cols], axis=1)


def test_free_sojourn_identity(gaussian_propagator, grid, f_ind, f_smooth):
    # T0_r = r ||phi||^2 integral(f), checked through the numeric route
    states = [fr.gaussian_state(grid, 0.0, 1.0, momentum=1.5),
              fr.bump_state(grid, (0.25, 0.75))]
    for phi in states:
        for f in (f_ind, f_smooth):
            for r in (1.0, 8.0, 64.0):
                got = fr.sojourn(gaussian_propagator, phi, f, r, "freenumeric")
                ref = r * fr.norm(phi) ** 2 * fr.localization_integral(f)
                assert abs(got - ref) < 1e-4 * ref


def test_free_analytic_route(gaussian_propagator, grid, f_ind):
    phi = fr.bump_state(grid, (0.25, 0.75))
    got = fr.sojourn(gaussian_propagator, phi, f_ind, 16.0, "freeanalytic")
    assert got == pytest.approx(16.0 * fr.norm(phi) ** 2 * 2.0, rel=1e-12)


def test_full_sojourn_reduces_to_free_for_zero_coupling(grid, f_ind):
    model = fr.finite_rank_model(grid, [fr.gaussian_state(grid)], [0.0])
    prop = fr.build_propagator(model)
    phi = fr.bump_state(grid, (0.25, 0.75))
    full = fr.sojourn(prop, phi, f_ind, 8.0, "full")
    free = fr.sojourn(prop, phi, f_ind, 8.0, "freenumeric")
    assert full == free  # same code path, bit for bit


def test_full_sojourn_requires_dressed_state(gaussian_propagator, grid, f_ind):
    phi = fr.bump_state(grid, (0.25, 0.75))
    with pytest.raises(ValidationError):
        fr.sojourn(gaussian_propagator, phi, f_ind, 8.0, "full")


def test_sojourn_tolerance_failure_is_loud(gaussian_propagator, grid, f_ind):
    phi = fr.bump_state(grid, (0.25, 0.75))
    w = fr.wave_operator(gaussian_propagator, phi, "minus")
    with pytest.raises(ToleranceError):
        fr.sojourn(gaussian_propagator, phi, f_ind, 8.0, "full",
                   w_minus_phi=w, tol=1e-15)


@pytest.mark.parametrize("lam", [1.0, -1.0])
@pytest.mark.parametrize("profile", ["f_ind", "f_smooth"])
def test_windowed_sojourn_stays_within_its_charge(coarse_grid, request, lam, profile):
    # all-modes reference on the same time grid: dropping modes with a
    # share delta of ||psi||^2 may move the integral by at most the charge
    # 2T max|fbar| ||psi||^2 (2 sqrt(delta) + delta)
    g, f, r, tol = coarse_grid, request.getfixturevalue(profile), 4.0, 1e-3
    prop = fr.build_propagator(fr.finite_rank_model(g, [fr.gaussian_state(g)], [lam]))
    phi = fr.gaussian_state(g, 0.5, 0.6)
    w = fr.wave_operator(prop, phi, "minus")
    value, info = fr.sojourn(prop, phi, f, r, "full", w_minus_phi=w, tol=tol,
                             return_info=True)
    assert value == fr.sojourn(prop, phi, f, r, "full", w_minus_phi=w, tol=tol)
    _, _, T = dynamics._sojourn_horizon(dynamics._momentum_density(w), g, f, r, tol)
    E = prop.eigenvalues
    dt = min(0.04, 0.45 * math.pi / (E[-1] - E[0]))
    tgrid = np.linspace(-T, T, int(math.ceil(2.0 * T / dt)) + 1)
    fbar = dynamics._f_cell_averages(f, g, r)
    hat = _momentum_columns(prop, range(g.points)) @ (np.exp(-1j * np.outer(E, tgrid))
                                                      * prop.coefficients(w)[:, None])
    ref = np.trapezoid(g.momentum_spacing * (fbar @ np.abs(hat) ** 2), tgrid)
    norm2 = fr.norm(w) ** 2
    delta = info["discarded_mass"] / norm2
    charge = 2.0 * T * fbar.max() * norm2 * (2.0 * math.sqrt(delta) + delta)
    assert 0 < info["modes_kept"] < g.points
    assert 0.0 < charge <= 1e-3 * tol
    assert abs(value - ref) <= charge


@pytest.mark.parametrize("r", [4.0, 64.0])
def test_closed_form_sojourn_matches_a_time_grid_trapezoid(gaussian_propagator, grid,
                                                          f_ind, r):
    # the integrand on the kept modes is band-limited by the eigenvalue
    # spread, so a trapezoid with a step below half the Nyquist step has no
    # aliasing error and must reproduce the exact quadratic form
    prop, tol = gaussian_propagator, 1e-6
    phi = fr.bump_state(grid, (0.25, 0.75))
    w = fr.wave_operator(prop, phi, "minus", tol=1e-5)
    value = fr.sojourn(prop, phi, f_ind, r, "full", w_minus_phi=w, tol=tol)
    _, _, T = dynamics._sojourn_horizon(dynamics._momentum_density(w), grid, f_ind, r, tol)
    fbar = dynamics._f_cell_averages(f_ind, grid, r)
    c = prop.coefficients(w)
    kept, _, _ = dynamics._spectral_window(c, grid.spacing, 2.0 * T * fbar.max(), tol)
    E = prop.eigenvalues
    dt = min(0.04, 0.45 * math.pi / (E[-1] - E[0]))
    tgrid = np.linspace(-T, T, int(math.ceil(2.0 * T / dt)) + 1)
    on = fbar > 0
    hat = _momentum_columns(prop, kept)[on] @ (
        np.exp(-1j * np.outer(E[kept], tgrid)) * c[kept, None])
    ref = np.trapezoid(grid.momentum_spacing * (fbar[on] @ np.abs(hat) ** 2), tgrid)
    assert abs(value - ref) <= 1e-12 * abs(value)


def test_free_sojourn_routes_keep_every_mode(gaussian_propagator, grid, f_ind):
    phi = fr.bump_state(grid, (0.25, 0.75))
    for which in ("freeanalytic", "freenumeric"):
        _, info = fr.sojourn(gaussian_propagator, phi, f_ind, 8.0, which, return_info=True)
        assert info["modes_kept"] == grid.points
        assert info["discarded_mass"] == 0.0


def test_propagation_functional_exact_regime(f_ind):
    # indicator density on [1, 2]: window covers the support once r > 2,
    # leaving I_r = 2 <P> = 3 exactly
    dens = fr.indicator_momentum_density((1.0, 2.0))
    for r in (2.5, 4.0, 10.0, 64.0):
        val = fr.propagation_functional(dens, f_ind, r)
        assert abs(val - 3.0) < 1e-8


def test_propagation_functional_gaussian_monotone(f_ind):
    dens = fr.gaussian_momentum_density(momentum=1.5, width=0.9)
    devs = [abs(fr.propagation_functional(dens, f_ind, r) - 3.0)
            for r in (2.0, 4.0, 8.0, 16.0, 32.0)]
    assert devs[-1] < 1e-6
    for a, b in zip(devs, devs[1:]):
        assert b <= a + 1e-12  # decreasing until the round-off floor


def test_propagation_functional_routes_agree(grid, f_ind):
    phi = fr.gaussian_state(grid, 0.0, 1.0, momentum=1.5)
    cf = fr.propagation_functional(phi, f_ind, 4.0, "closedform")
    direct = fr.propagation_functional(phi, f_ind, 4.0, "direct")
    assert abs(cf - direct) < 1e-5
    dens = fr.gaussian_momentum_density(momentum=1.5, width=1.0)
    with pytest.raises(ValidationError):
        fr.propagation_functional(dens, f_ind, 4.0, "direct")


# ---------------------------------------------------------------------------
# the sweep


def test_sweep_identities_and_convergence(gaussian_propagator, gaussian_curve,
                                          grid, f_ind):
    phi = fr.bump_state(grid, (0.25, 0.75))
    records, summary = fr.time_delay_sweep(
        gaussian_propagator, gaussian_curve, phi, f_ind, [4, 8, 16])
    for rec in records:
        # record fields are internally consistent
        assert rec.tau_in == pytest.approx(rec.T - rec.T0, abs=1e-12)
        assert rec.tau_sym == pytest.approx(rec.T - 0.5 * (rec.T0 + rec.T0_S),
                                            abs=1e-12)
        # free-term symmetry: S preserves the free sojourn
        assert abs(rec.T0_S - rec.T0) < 1e-6
        assert abs(rec.tau_in - rec.tau_sym) < 1e-6
        assert rec.tail_estimate < 1e-5
    assert summary["fit_ok"]
    assert abs(summary["tau_inf"] - summary["ew_value"]) < 0.02 * abs(summary["ew_value"])
    assert 0.0 < summary["wave_operator_route_gap"] <= 1e-5  # Cook's tolerance here


def test_sweep_free_route_converges_to_full(gaussian_propagator, gaussian_curve,
                                            grid, f_ind):
    # narrow-band wave packet: the momentum window covers the state by
    # r = 64, so tau_free meets tau_in below the quadrature tails
    wp = fr.gaussian_state(grid, center=0.0, width=0.125, momentum=1.5)
    records, summary = fr.time_delay_sweep(
        gaussian_propagator, gaussian_curve, wp, f_ind, [16, 32, 64])
    gaps = [abs(rec.tau_free - rec.tau_in) for rec in records]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[-1] < 2.0 * records[-1].tail_estimate + 1e-8
    assert summary["rel_gap"] < 1e-8


def test_sweep_trivial_for_zero_coupling(grid, f_ind):
    model = fr.finite_rank_model(grid, [fr.gaussian_state(grid)], [0.0])
    prop = fr.build_propagator(model)
    curve = fr.compute_curve(model, (-6.0, 6.0), 201)
    phi = fr.bump_state(grid, (0.25, 0.75))
    records, summary = fr.time_delay_sweep(prop, curve, phi, f_ind, [4, 8, 16])
    for rec in records:
        # V = 0 takes the analytic free route: exact zeros, not residue
        assert rec.tau_in == 0.0
        assert rec.tau_sym == 0.0
        assert rec.tau_free == 0.0
    assert summary["ew_value"] == 0.0
    assert summary["tau_inf"] == 0.0


def test_sweep_validates_r_list(gaussian_propagator, gaussian_curve, grid, f_ind):
    phi = fr.bump_state(grid, (0.25, 0.75))
    with pytest.raises(ValidationError):
        fr.time_delay_sweep(gaussian_propagator, gaussian_curve, phi, f_ind, [])
    with pytest.raises(ValidationError):
        fr.time_delay_sweep(gaussian_propagator, gaussian_curve, phi, f_ind, [-2.0])
