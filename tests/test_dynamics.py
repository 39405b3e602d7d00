"""Propagators, wave operators, sojourn times, and the r-sweep.

Oracle notes.  Free evolution is multiplication by e^{-ixt} in position,
equivalently a momentum translation: for t equal to a whole number of
momentum cells the translated transform matches np.roll exactly, which
checks the evolution against the FFT conventions with no analysis in
between.  Wave-operator quality is certified by three independent
handles: isometry, intertwining with the evolutions, and the agreement
of Cook's time integral with the stationary resolvent formula for W-.
"""

import dataclasses
import math
import statistics
import types
import warnings

import numpy as np
import pytest

import friedrichs as fr
from friedrichs import (Representation, ToleranceError, ValidationError, dynamics, resolvent,
                        scattering)
from friedrichs.scattering import _state_scattering, _support_nodes

from conftest import _traced_peak, full_window_form, tail_samples


@pytest.fixture(scope="module")
def f_ind():
    return fr.make_localization("indicator", J=(-1.0, 1.0))


@pytest.fixture(scope="module")
def f_smooth():
    return fr.make_localization("smooth_bump", delta=1.0, width=1.0)


# ---------------------------------------------------------------------------
# evolution


def test_free_evolution_is_position_phase(free_propagator, grid):
    phi = fr.gaussian_state(grid, 0.3, 0.7)
    t = 1.37
    out = fr.evolve(free_propagator, phi, t)
    ref = np.exp(-1j * t * grid.position_nodes()) * phi.samples
    assert np.max(np.abs(out.samples - ref)) < 1e-14
    # with no steps U is the identity, and its columns are unit vectors
    cols = free_propagator.columns([3, 0])
    assert cols[3, 0] == cols[0, 1] == 1.0 and cols.sum() == 2.0


def test_free_evolution_translates_momentum(free_propagator, grid):
    # t = n momentum cells: the transform shifts down by exactly n bins
    n = 10
    t = n * grid.momentum_spacing
    phi = fr.gaussian_state(grid, 0.0, 0.5, momentum=1.0)
    before = fr.transform(phi).samples
    after = fr.transform(fr.evolve(free_propagator, phi, t)).samples
    assert np.max(np.abs(after - np.roll(before, -n))) < 1e-12


def test_full_evolution_unitary_and_energy_conserving(gaussian_propagator, grid):
    gen = np.random.default_rng(17)
    E = gaussian_propagator.eigenvalues
    U = gaussian_propagator.columns(np.arange(grid.points))
    for _ in range(25):
        raw = gen.standard_normal(grid.points) * np.exp(
            -0.1 * np.abs(grid.position_nodes()))
        phi = fr.grid_function(grid, raw / np.linalg.norm(raw) / math.sqrt(grid.spacing))
        out = fr.evolve(gaussian_propagator, phi, 3.7)
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


def test_zero_coupling_propagator_is_diagonal(free_propagator, grid):
    model = fr.finite_rank_model(grid, [fr.gaussian_state(grid)], [0.0])
    prop = fr.build_propagator(model)
    assert prop.is_diagonal and free_propagator.is_diagonal
    phi = fr.gaussian_state(grid, 0.2, 0.6)
    full = fr.evolve(prop, phi, 2.2)
    free = fr.evolve(free_propagator, phi, 2.2)
    assert np.array_equal(full.samples, free.samples)


def test_evolve_validation(gaussian_propagator, grid):
    phi = fr.gaussian_state(grid)
    with pytest.raises(ValidationError, match="position-representation"):
        fr.evolve(gaussian_propagator, fr.transform(phi), 1.0)
    other = fr.gaussian_state(fr.make_grid(12.0, 2048))
    with pytest.raises(ValidationError, match="different grid"):
        fr.evolve(gaussian_propagator, other, 1.0)


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
        assert np.array_equal(_state_scattering(model, phi, ())[3].samples, phi.samples)


def _route_gap(grid, model, phi):
    """(||W_Cook phi - W_stat phi||, Cook's tail estimate, W_stat phi)."""
    cook, info = fr.wave_operator(fr.build_propagator(model), phi, "minus", return_info=True)
    stat = _state_scattering(model, phi, ())[3]
    return fr.norm(fr.grid_function(grid, cook.samples - stat.samples)), \
        info["tail_estimate"], stat


@pytest.mark.parametrize("momentum", [-8.0, 8.0])
def test_cook_probes_the_direction_it_integrates(gaussian_model, gaussian_propagator, grid,
                                                momentum):
    # a boosted state meets the coupling vector on one side of tau = 0 only:
    # W- integrates c_j(-tau) and W+ c_j(+tau), and so does the probe of the
    # tail.  Both are held to the stationary W- phi; with real v,
    # W+ phi = conj(W- conj(phi))
    phi = fr.gaussian_state(grid, 0.5, 0.3, momentum=momentum)
    refs = {"minus": _state_scattering(gaussian_model, phi, ())[3].samples,
            "plus": np.conj(_state_scattering(
                gaussian_model, fr.grid_function(grid, np.conj(phi.samples)), ())[3].samples)}
    for sign, ref in refs.items():
        w, info = fr.wave_operator(gaussian_propagator, phi, sign, return_info=True)
        gap = fr.norm(fr.grid_function(grid, w.samples - ref))
        assert gap <= 1e-12, (sign, info)


def test_wave_operator_methods_agree(gaussian_model, rank2_model, grid):
    # Cook's time integral against the stationary resolvent formula, which
    # shares no code with it but the vectors, each at Cook's own tail
    # estimate: a narrow Gaussian (and at the AC-10 bound), the sweep's bump
    # on rank one and rank two, a box-wide bump; the stationary route must
    # be an isometry as well.
    # The Gaussian's couplings die long before the cap, so its estimate is
    # the closed form's phase round-off eps T max|E| alone
    psi = fr.gaussian_state(grid, 0.5, 0.4)
    gap, tail, stat = _route_gap(grid, gaussian_model, psi)
    assert gap <= tail < 1e-4  # measured 1.2e-14 / 7.0e-13
    assert abs(fr.norm(stat) - fr.norm(psi)) < 1e-12
    phi = fr.bump_state(grid, (0.25, 0.75))
    flipped = fr.finite_rank_model(grid, gaussian_model.vectors, [-1.0])
    for model in (gaussian_model, flipped, rank2_model):
        gap, tail, stat = _route_gap(grid, model, phi)
        assert 0.0 < gap <= tail  # measured 1.1e-8 / 6.7e-9 / 1.0e-8
        assert abs(fr.norm(stat) - fr.norm(phi)) < 1e-12
    # a box-wide bump holds 1495 support nodes, more rows than one working
    # block holds at this M, all read by the node FFTs at once; there too
    # the gap is round-off, which the estimate's phase term covers
    wide = fr.bump_state(grid, (-12.0, 12.0))
    assert _support_nodes(wide).size > resolvent._BLOCK_ENTRIES // grid.points
    for model in (gaussian_model, rank2_model):
        gap, tail, stat = _route_gap(grid, model, wide)
        assert gap <= tail <= 1e-12  # measured 1.2e-14 / 7.8e-15, tail 7.0e-13
        assert abs(fr.norm(stat) - fr.norm(wide)) <= 1e-12  # measured 1.1e-16 / 0


def test_wave_operator_isometry_on_bump(gaussian_propagator, grid):
    phi = fr.bump_state(grid, (0.25, 0.75))
    w, info = fr.wave_operator(gaussian_propagator, phi, "minus", return_info=True)
    assert abs(fr.norm(w) - fr.norm(phi)) < 1e-4
    assert info["tail_estimate"] <= 1e-4
    assert info["zeta"] > 2.0


def test_wave_operator_intertwines_evolutions(gaussian_propagator, free_propagator, grid):
    # W_- e^{-itH0} = e^{-itH} W_-
    psi = fr.gaussian_state(grid, 0.5, 0.4)
    t = 1.0
    lhs = fr.wave_operator(gaussian_propagator,
                           fr.evolve(free_propagator, psi, t), "minus")
    w = fr.wave_operator(gaussian_propagator, psi, "minus")
    rhs = fr.evolve(gaussian_propagator, w, t)
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


def test_wave_operator_validation(gaussian_propagator, free_propagator, grid):
    # an unknown sign is refused by name, as boundary_matrix refuses a side,
    # on the free propagator too; "min_us" is not another spelling of minus
    phi = fr.gaussian_state(grid, 0.5, 0.4)
    for prop in (gaussian_propagator, free_propagator):
        for sign in ("backwards", "min_us", None):
            with pytest.raises(ValidationError,
                               match=f"^side must be 'plus' or 'minus', got {sign!r}$"):
                fr.wave_operator(prop, phi, sign)


def test_wave_operator_refuses_a_grid_with_no_probe_step():
    # at h = 1 the revival cap pi/h - 5 is negative: there is no time to
    # integrate over, and the refusal names the cap instead of crashing
    g = fr.make_grid(32.0, 64)
    prop = fr.build_propagator(fr.finite_rank_model(g, [fr.gaussian_state(g, 0.0, 3.0)], [1.0]))
    with pytest.raises(ValidationError, match=r"revival cap pi/h - 5 = -1\.86"):
        fr.wave_operator(prop, fr.gaussian_state(g, 0.0, 3.0), "minus")


def test_wave_operator_tail_beyond_tol_is_refused_by_name(coarse_grid):
    # on M = 512 the bump's couplings still ring at the cap (45.3): their
    # fitted decay, zeta = 0.45, is not integrable, so the tail estimate is inf
    model = fr.finite_rank_model(coarse_grid, [fr.gaussian_state(coarse_grid)], [1.0])
    phi = fr.bump_state(coarse_grid, (0.25, 0.75))
    with pytest.raises(ToleranceError, match=r"tail estimate inf beyond the revival cap 45\.2655"):
        fr.wave_operator(fr.build_propagator(model), phi, "minus")


def test_cook_integral_is_settled_long_before_the_cap(gaussian_propagator, grid):
    # the Gaussian's couplings die by tau ~ 20, so stopping at 30 or at the
    # cap (196) gives the same W+- phi; the closed form costs the same at both
    psi = fr.gaussian_state(grid, 0.5, 0.4)
    cap = grid.momentum_cutoff - dynamics._MARGIN
    for s in (-1.0, 1.0):
        short = dynamics._cook_integral(gaussian_propagator, psi, s, 30.0)
        full = dynamics._cook_integral(gaussian_propagator, psi, s, cap)
        assert np.max(np.abs(short - full)) <= 1e-14  # measured 2.1e-15 (9.9e-15 in norm)


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


def test_cook_closed_form_matches_the_per_node_quadrature(coarse_grid):
    # Gauss-Legendre in time, one exponential per panel and node, summed
    # node by node up to the cap, as an independent reference for the
    # closed-form time integral; rank 2 exercises the sum over vectors
    g = coarse_grid
    lam = np.array([0.8, -0.5])
    model = fr.finite_rank_model(g, [fr.hermite_state(g, 0), fr.hermite_state(g, 1)], lam)
    prop = fr.build_propagator(model)
    psi = fr.gaussian_state(g, 0.5, 0.6)
    vm, E, U = model.vector_matrix(), prop.eigenvalues, prop.columns(np.arange(g.points))
    nodes, weights = np.polynomial.legendre.leggauss(10)
    for sign, s in (("minus", -1.0), ("plus", 1.0), (fr.Side.MINUS, -1.0), (fr.Side.PLUS, 1.0)):
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
    U = prop.columns(cols)
    return np.stack([fr.transform(fr.grid_function(prop.grid, U[:, n])).samples
                     for n in range(U.shape[1])], axis=1)


def test_free_sojourn_identity(free_propagator, grid, f_ind, f_smooth):
    # T0_r = r ||phi||^2 integral(f) exactly: sojourn on the free propagator
    # is the identity itself, the same number the sweep's T0 column holds
    states = [fr.gaussian_state(grid, 0.0, 1.0, momentum=1.5),
              fr.bump_state(grid, (0.25, 0.75))]
    for phi in states:
        for f in (f_ind, f_smooth):
            for r in (1.0, 8.0, 64.0):
                got = fr.sojourn(free_propagator, phi, f, r)
                ref = r * fr.norm(phi) ** 2 * f.integral()
                assert got == ref


def test_full_sojourn_reduces_to_free_for_zero_coupling(free_propagator, grid, f_ind):
    model = fr.finite_rank_model(grid, [fr.gaussian_state(grid)], [0.0])
    prop = fr.build_propagator(model)
    phi = fr.bump_state(grid, (0.25, 0.75))
    full = fr.sojourn(prop, phi, f_ind, 8.0)
    free = fr.sojourn(free_propagator, phi, f_ind, 8.0)
    assert full == free  # same code path, bit for bit


def test_sojourn_tolerance_failure_is_loud(gaussian_propagator, grid, f_ind):
    phi = fr.bump_state(grid, (0.25, 0.75))
    w = fr.wave_operator(gaussian_propagator, phi, "minus")
    with pytest.raises(ToleranceError):
        fr.sojourn(gaussian_propagator, w, f_ind, 8.0, tol=1e-15)


def test_sojourn_refuses_a_state_it_cannot_read(gaussian_propagator, grid, f_ind):
    # read as position samples, a momentum-representation W- phi returned
    # 1.2703 for 14.5691 at r = 8; a state on another grid was read as is
    w = fr.wave_operator(gaussian_propagator, fr.bump_state(grid, (0.25, 0.75)), "minus")
    with pytest.raises(ValidationError, match="position-representation"):
        fr.sojourn(gaussian_propagator, fr.transform(w), f_ind, 8.0)
    other = fr.bump_state(fr.make_grid(12.0, 2048), (0.25, 0.75))
    with pytest.raises(ValidationError, match="different grid"):
        fr.sojourn(gaussian_propagator, other, f_ind, 8.0)


@pytest.mark.parametrize("r", [math.nan, math.inf, 0.0, -4.0])
@pytest.mark.parametrize("call", [
    lambda props, phi, f, r: fr.sojourn(props[0], phi, f, r),
    lambda props, phi, f, r: fr.sojourn(props[1], phi, f, r),
    lambda props, phi, f, r: fr.propagation_functional(phi, f, r, "closedform"),
    lambda props, phi, f, r: fr.propagation_functional(phi, f, r, "direct"),
], ids=["free_sojourn", "full_sojourn", "closedform_functional", "direct_functional"])
def test_a_scale_outside_the_positive_reals_is_refused(free_propagator, gaussian_propagator,
                                                       grid, f_ind, call, r):
    # a NaN scale gave (nan, tail nan) on the full sojourn, since
    # nan > bound is False, and a bare numpy error on the free one; the
    # closed-form functional returned nan, and for a Gaussian at momentum
    # 1.5 read 2.80 at r = -2 where the direct one read 1.20
    phi = fr.bump_state(grid, (0.25, 0.75))
    with pytest.raises(ValidationError, match="positive and finite"):
        call((free_propagator, gaussian_propagator), phi, f_ind, r)


def test_sojourn_refuses_a_nan_tail_estimate(gaussian_propagator, grid, f_ind,
                                             monkeypatch):
    phi = fr.bump_state(grid, (0.25, 0.75))
    monkeypatch.setattr(dynamics, "_sojourns",
                        lambda *args: [(1.0, math.nan, math.inf, grid.points, 0.0)])
    with pytest.raises(ToleranceError, match="nan"):
        fr.sojourn(gaussian_propagator, phi, f_ind, 8.0)


def test_a_tail_within_the_cutoff_is_refused_by_its_tolerance(gaussian_propagator, grid,
                                                             f_ind, monkeypatch):
    # the horizon at r = 8 lies well inside pi/h, so only the tolerance is named
    phi = fr.bump_state(grid, (0.25, 0.75))
    monkeypatch.setattr(dynamics, "_sojourns",
                        lambda *args: [(1.0, 1.0, math.inf, grid.points, 0.0)])
    with pytest.raises(ToleranceError, match=r"1\.00e\+00 at r = 8: it exceeds tolerance 1e-06$"):
        fr.sojourn(gaussian_propagator, phi, f_ind, 8.0)


@pytest.mark.parametrize("lam", [1.0, -1.0])
def test_a_horizon_past_the_cutoff_is_named_with_its_remedy(grid, f_smooth, lam):
    # T = K + r rho + 5 = 267.5 at r = 64 passes pi/h = 201.1: the periodic box
    # wraps W- phi back into the window and the tail fit reads inf; the sweep
    # and a lone sojourn at that scale refuse it with the same text
    model = fr.finite_rank_model(grid, [fr.gaussian_state(grid)], [lam])
    prop, phi = fr.build_propagator(model), fr.bump_state(grid, (0.25, 0.75))
    want = (r"^sojourn tail estimate inf at r = 64: its horizon 267\.5 exceeds the "
            r"momentum cutoff pi/h = 201\.1; raise grid\.M$")
    with pytest.raises(ToleranceError, match=want):
        fr.time_delay_sweep(prop, fr.compute_curve(model, (-6.0, 6.0), 1001), phi,
                            f_smooth, [4, 8, 16, 32, 64], tol=1e-6)
    w = fr.wave_operator(prop, phi, "minus", tol=1e-5)
    with pytest.raises(ToleranceError, match=want):
        fr.sojourn(prop, w, f_smooth, 64.0, tol=1e-6)


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
    value, info = fr.sojourn(prop, w, f, r, tol=tol, return_info=True)
    assert value == fr.sojourn(prop, w, f, r, tol=tol)
    _, T = dynamics._sojourn_horizon(dynamics._momentum_density(w), g, f, r)
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
    value = fr.sojourn(prop, w, f_ind, r, tol=tol)
    _, T = dynamics._sojourn_horizon(dynamics._momentum_density(w), grid, f_ind, r)
    fbar = dynamics._f_cell_averages(f_ind, grid, r)
    c = prop.coefficients(w)
    kept = dynamics._spectral_windows(c, grid.spacing, [2.0 * T * fbar.max()], tol)[0][0]
    E = prop.eigenvalues
    dt = min(0.04, 0.45 * math.pi / (E[-1] - E[0]))
    tgrid = np.linspace(-T, T, int(math.ceil(2.0 * T / dt)) + 1)
    on = fbar > 0
    hat = _momentum_columns(prop, kept)[on] @ (
        np.exp(-1j * np.outer(E[kept], tgrid)) * c[kept, None])
    ref = np.trapezoid(grid.momentum_spacing * (fbar[on] @ np.abs(hat) ** 2), tgrid)
    assert abs(value - ref) <= 1e-12 * abs(value)


def test_free_sojourn_routes_keep_every_mode(free_propagator, grid, f_ind):
    phi = fr.bump_state(grid, (0.25, 0.75))
    _, info = fr.sojourn(free_propagator, phi, f_ind, 8.0, return_info=True)
    assert info["modes_kept"] == grid.points
    assert info["discarded_mass"] == 0.0


def test_propagation_functional_exact_regime(f_ind):
    # indicator density on [1, 2]: window covers the support once r > 2,
    # leaving I_r = 2 <P> = 3 exactly
    dens = fr.indicator_momentum_density((1.0, 2.0))
    for r in (2.5, 4.0, 10.0, 64.0):
        val = fr.propagation_functional(dens, f_ind, r)
        assert abs(val - 3.0) < 1e-8


@pytest.mark.parametrize("width", [1.0, 0.05, 0.02])
def test_gaussian_density_support_holds_all_its_mass(f_ind, width):
    # at r = 1e5 the window cuts off nothing, leaving I_r = 2 <P> = 3; a
    # fixed quadrature span of +-30 about the mean once read 2.898 and
    # 1.812 for the two narrow widths, and quad over m +- 6/width was off
    # by 2.8e-13 and 8.7e-11 at widths 1 and 0.02
    dens = fr.gaussian_momentum_density(momentum=1.5, width=width)
    assert abs(fr.propagation_functional(dens, f_ind, 1e5) - 3.0) <= 1e-13


def _density_by_quad(dens, f, r):
    """2r int rho(k) A(k/r) dk by adaptive quadrature, rho built from the
    density's own mean and scale."""
    from scipy.integrate import quad

    m, s = dens.mean, dens.scale
    if dens.family == "gaussian":
        lo, hi = m - 12.0 * s, m + 12.0 * s

        def rho(k):
            return math.exp(-0.5 * ((k - m) / s) ** 2) / (s * math.sqrt(2.0 * math.pi))
    else:
        lo, hi = m - s, m + s

        def rho(k):
            return 0.5 / s

    kinks = (r * f.delta, r * f.support_radius)
    pts = sorted({p for q in kinks for p in (-q, q) if lo < p < hi})
    val, _ = quad(lambda k: rho(k) * float(f.antiderivative(k / r)), lo, hi,
                  points=pts or None, limit=200)
    return 2.0 * r * val


@pytest.mark.parametrize("dens", [
    fr.gaussian_momentum_density(1.5, 1.0), fr.gaussian_momentum_density(1.5, 0.05),
    fr.gaussian_momentum_density(1.5, 0.02), fr.indicator_momentum_density((1.0, 2.0)),
    fr.indicator_momentum_density((-0.7, 0.4)), fr.indicator_momentum_density((0.5, 3.0)),
], ids=["gauss1", "gauss0.05", "gauss0.02", "band1-2", "band-0.7-0.4", "band0.5-3"])
@pytest.mark.parametrize("kind", ["indicator", "smooth_bump"])
@pytest.mark.parametrize("r", [0.5, 2.0, 4.0, 32.0])
def test_density_closed_form_matches_quad(dens, kind, r):
    # worst case 6.0e-13 (smooth bump, width 0.02, r = 0.5), where the
    # squared-hinge moments of size scale^2 ~ 1250 cancel; a 40-digit
    # reference puts quad within 1e-17 of the truth there
    f = (fr.make_localization("indicator", J=(-1.0, 1.0)) if kind == "indicator"
         else fr.make_localization("smooth_bump", delta=0.5, width=0.5))
    assert abs(fr.propagation_functional(dens, f, r) - _density_by_quad(dens, f, r)) <= 1e-12


@pytest.mark.parametrize("r, value", [(0.5, 0.0253803883154784441614981105983),
                                      (2.0, 0.101489857456456222797984161318)])
def test_wide_gaussian_density_keeps_full_relative_accuracy(r, value):
    # 40-digit values; the squared-hinge moments of size scale^2 / 2 ~ 625
    # once left this 2.4e-11 (r = 0.5) and 6.9e-13 (r = 2) off, relatively
    dens = fr.gaussian_momentum_density(1.5, 0.02)
    f = fr.make_localization("smooth_bump", delta=0.5, width=0.5)
    assert abs(fr.propagation_functional(dens, f, r) - value) <= 1e-14 * value


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


@pytest.mark.parametrize("r", [4.0, 16.0])
def test_direct_route_tails_match_the_halved_horizon(grid, f_ind, r):
    # the closed-form one-sided tails beyond T/2, less those beyond T, must
    # be what the trapezoid sums of g- and g+ gain from T/2 to T; a power
    # law fitted to |g- - g+| reads 5.5e-2 for 1.6e-3 at r = 4, inf at 16
    phi = fr.gaussian_state(grid, 0.0, 1.0, momentum=1.5)
    dens = dynamics._momentum_density(phi)
    _, T = dynamics._sojourn_horizon(dens, grid, f_ind, r)
    sums, tails = [], []
    for horizon in (T, 0.5 * T):
        t = dynamics._free_time_grid(horizon, r)
        sums.append([np.trapezoid(dynamics._sliding_sum(dens, grid, f_ind, r, c), t)
                     for c in (t, -t)])
        hi, lo = dynamics._free_tails(dens, grid, f_ind, r, horizon)
        tails.append((hi, lo, hi - lo))
    (m1, p1), (m2, p2) = sums
    for gained, tail_change in zip((m1 - m2, p1 - p2, (m1 - p1) - (m2 - p2)),
                                   np.subtract(tails[1], tails[0])):
        assert abs(gained - tail_change) <= 5e-3 * abs(gained) + 1e-14


def test_direct_route_refuses_exactly_past_its_tail_bound(grid, f_ind, monkeypatch):
    # with the horizon halved, |hi - lo| = 1.58e-3 at r = 4 is 5.27e-4 of the
    # value: a tolerance just above that returns it, one just below refuses
    phi = fr.gaussian_state(grid, 0.0, 1.0, momentum=1.5)
    full = fr.propagation_functional(phi, f_ind, 4.0, "direct")
    horizon = dynamics._sojourn_horizon

    def halved(*args):
        K, T = horizon(*args)
        return K, 0.5 * T

    monkeypatch.setattr(dynamics, "_sojourn_horizon", halved)
    value = fr.propagation_functional(phi, f_ind, 4.0, "direct", tol=5.3e-4)
    assert full - value == pytest.approx(1.58e-3, rel=1e-2)
    with pytest.raises(ToleranceError):
        fr.propagation_functional(phi, f_ind, 4.0, "direct", tol=5.2e-4)


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


def test_sweep_reads_the_support_nodes_once(gaussian_propagator, gaussian_curve,
                                            grid, f_ind, monkeypatch):
    # S phi, tau_EW, the shift integral and the stationary W- phi all come
    # from one node read of the pair densities (orders 0 and 1, plus side)
    # and one of the W- amplitudes (minus side)
    phi = fr.bump_state(grid, (0.25, 0.75))
    reads, read = [], scattering._node_boundary

    def counted(grid, samples, side):
        reads.append((samples.shape, side))
        return read(grid, samples, side)

    monkeypatch.setattr(scattering, "_node_boundary", counted)
    with pytest.warns(UserWarning, match="single scale"):
        fr.time_delay_sweep(gaussian_propagator, gaussian_curve, phi, f_ind, [4])
    M = grid.points
    assert reads == [((M, 2), resolvent.Side.PLUS), ((M, 1), resolvent.Side.MINUS)]


@pytest.fixture(scope="module")
def demo_models(grid, gaussian_propagator, gaussian_curve):
    """(propagator, curve) of the demo model at coupling +1 and -1."""
    model = fr.finite_rank_model(grid, [fr.gaussian_state(grid)], [-1.0])
    return {1.0: (gaussian_propagator, gaussian_curve),
            -1.0: (fr.build_propagator(model), fr.compute_curve(model, (-6.0, 6.0), 1001))}


@pytest.mark.parametrize("lam", [1.0, -1.0])
@pytest.mark.parametrize("kind, params", [("indicator", {"J": (-1.0, 1.0)}),
                                          ("smooth_bump", {"delta": 0.5, "width": 0.5})])
def test_sweep_sojourns_equal_sojourn_bit_for_bit(demo_models, free_propagator, grid, lam,
                                                  kind, params):
    # the sweep reads every scale's window rows and kept columns from one
    # transform of their union, sojourn from a transform of its own; a
    # bump of reach 1, like the indicator's, keeps r = 64 inside the box.
    # T0 and the free sojourn are one helper's r ||phi||^2 int(f)
    prop, curve = demo_models[lam]
    f = fr.make_localization(kind, **params)
    phi, tol = fr.bump_state(grid, (0.25, 0.75)), 1e-6
    records, _ = fr.time_delay_sweep(prop, curve, phi, f, [4, 8, 16, 32, 64], tol=tol)
    w = fr.wave_operator(prop, phi, "minus", tol=max(10.0 * tol, 1e-5))
    for rec in records:
        T, info = fr.sojourn(prop, w, f, rec.r, tol=tol, return_info=True)
        assert rec.T == T
        assert rec.tail_estimate == info["tail_estimate"]
        assert rec.T0 == fr.sojourn(free_propagator, phi, f, rec.r)


def test_sweep_transforms_the_eigenvector_columns_once(gaussian_propagator, gaussian_curve,
                                                       grid, f_ind, monkeypatch):
    # numpy as dynamics sees it, with np.fft.rfft counted: the union of the
    # five scales' kept columns, real here, is transformed in blocks of
    # columns, laid out as rows, within the entry budget, each of all M
    # nodes, whose counts sum to the union's size, so every kept column is
    # transformed exactly once
    shapes, windows, spectral_windows = [], [], dynamics._spectral_windows

    def counted(a, *args, **kwargs):
        assert not np.iscomplexobj(a)
        shapes.append(np.shape(a))
        return np.fft.rfft(a, *args, **kwargs)

    def spied(*args):
        out = spectral_windows(*args)
        windows.extend(out)
        return out

    view = types.ModuleType("numpy")
    view.__dict__.update(vars(np))
    view.fft = types.SimpleNamespace(**{**vars(np.fft), "rfft": counted})
    monkeypatch.setattr(dynamics, "np", view)
    monkeypatch.setattr(dynamics, "_spectral_windows", spied)
    phi = fr.bump_state(grid, (0.25, 0.75))
    fr.time_delay_sweep(gaussian_propagator, gaussian_curve, phi, f_ind, [4, 8, 16, 32, 64])
    union = np.unique(np.concatenate([kept for kept, _, _, _ in windows]))
    assert len(windows) == 5 and len(shapes) >= 1
    assert all(nodes == grid.points for _, nodes in shapes)
    assert sum(cols for cols, _ in shapes) == union.size  # measured 451 in 8 blocks
    assert all(cols * nodes <= resolvent._BLOCK_ENTRIES for cols, nodes in shapes)


def _sojourn_setup(prop, psi, f, rs, tol):
    """What _sojourns forms before its transform: (M, dk, c, horizons,
    fbars, windows, union)."""
    g = prop.grid
    dens = dynamics._momentum_density(psi)
    c_all = prop.coefficients(psi)
    horizons = [dynamics._sojourn_horizon(dens, g, f, r) for r in rs]
    fbars = [dynamics._f_cell_averages(f, g, r) for r in rs]
    spans = [2.0 * T * float(np.abs(fbar).max()) for (_, T), fbar in zip(horizons, fbars)]
    windows = dynamics._spectral_windows(c_all, g.spacing, spans, tol)
    union = np.flatnonzero(np.bincount(np.concatenate([kept for kept, _, _, _ in windows])))
    return g.points, g.momentum_spacing, c_all, horizons, fbars, windows, union


def _sojourn_record(prop, psi, f, r, K, T, samples, value, kept, discarded, window_term):
    """One scale's record from its form and tail samples, as _sojourns makes it."""
    g, half = prop.grid, np.linspace(0.5 * T, T, dynamics._TAIL_SAMPLES)
    dens, dk, kn = dynamics._momentum_density(psi), g.momentum_spacing, np.abs(g.momentum_nodes())
    gabs = np.abs(dk * samples)
    tail_lo, z_lo = dynamics._fitted_tail(half, gabs[0])
    tail_hi, z_hi = dynamics._fitted_tail(half, gabs[1])
    reach = r * f.support_radius
    overlap = np.clip(T - (2.0 * g.momentum_cutoff - kn - reach), 0.0, 2.0 * reach)
    tail = tail_hi + tail_lo + float((dens * overlap).sum() * dk)
    tail += float(dens[kn > K].sum() * dk) * 2.0 * reach
    return value, tail + window_term, min(z_hi, z_lo), kept.size, discarded


def _single_transform(prop, modes):
    """(M, modes) momentum coefficients of the modes' eigenvectors by one
    rfft of every column's parts over all M rows, the negative frequencies
    read as conjugates: the arithmetic of dynamics._momentum_rows, unblocked."""
    M = prop.grid.points
    cols = prop.columns(modes)[(np.arange(M) + M // 2) % M]
    F = np.fft.rfft(cols.view(float), axis=0)
    F = np.concatenate((F, F[1:M // 2].conj()[::-1]))
    if np.iscomplexobj(cols):
        F = F[:, 0::2] + 1j * F[:, 1::2]
    return F * (prop.grid.spacing / math.sqrt(2.0 * math.pi))


def _reference_sojourns(prop, psi, f, rs, tol):
    """The single-transform route: every kept column of the union
    transformed at once over all M rows, each scale's window rows read
    from that M x |union| array by the same row-block form."""
    M, dk, c_all, horizons, fbars, windows, union = _sojourn_setup(prop, psi, f, rs, tol)
    B = _single_transform(prop, union).T
    out = []
    for r, (K, T), fbar, (kept, light, discarded, window_term) in zip(rs, horizons, fbars,
                                                                    windows):
        win = np.nonzero(np.abs(fbar) > 1e-16 * max(float(np.abs(fbar).max()), 1e-300))[0]
        form, samples = dynamics._window_form(
            B, np.searchsorted(union, kept)[:, None], (win - M // 2) % M, fbar[win],
            c_all[kept], prop.eigenvalues[kept], T,
            np.linspace(0.5 * T, T, dynamics._TAIL_SAMPLES), light)
        out.append(_sojourn_record(prop, psi, f, r, K, T, samples, dk * form, kept, discarded,
                                 window_term))
    return out


def _gram_sojourns(prop, psi, f, rs, tol):
    """The Gram route: G = dk Bw^* diag(fbar) Bw over each scale's window
    rows and kept columns, T = Re c^* (G o S) c and the tail samples
    dk fbar^T |Bw e^{-iEt} c|^2, all unblocked, the samples through the
    phase table and real product of dynamics._window_form (tail_samples)."""
    M, dk, c_all, horizons, fbars, windows, union = _sojourn_setup(prop, psi, f, rs, tol)
    B = _single_transform(prop, union)
    out = []
    for r, (K, T), fbar, (kept, _, discarded, window_term) in zip(rs, horizons, fbars,
                                                                  windows):
        win = np.nonzero(np.abs(fbar) > 1e-16 * max(float(np.abs(fbar).max()), 1e-300))[0]
        Bw = B[np.ix_((win - M // 2) % M, np.searchsorted(union, kept))]
        c, E = c_all[kept], prop.eigenvalues[kept]
        G = dk * (Bw.conj().T * fbar[win]) @ Bw
        S = 2.0 * T * np.sinc(np.subtract.outer(E, E) * (T / math.pi))
        value = float(np.real(c.conj() @ (G * S) @ c))
        half = np.linspace(0.5 * T, T, dynamics._TAIL_SAMPLES)
        samples = tail_samples(Bw.T * c[:, None], fbar[win], E, half)
        out.append(_sojourn_record(prop, psi, f, r, K, T, samples, value, kept, discarded,
                                 window_term))
    return out


_SOJOURN_MODELS = [
    (lambda g: [fr.gaussian_state(g)], [1.0]),
    (lambda g: [fr.hermite_state(g, 0), fr.hermite_state(g, 1)], [0.8, -0.5]),
    (lambda g: [fr.gaussian_state(g, 0.0, 1.0, momentum=1.5)], [1.0]),
]


@pytest.mark.parametrize("vectors, lams, exact", [
    (*_SOJOURN_MODELS[0], True), (*_SOJOURN_MODELS[1], False), (*_SOJOURN_MODELS[2], False),
], ids=["demo", "hermite-0-1", "complex"])
def test_blocked_sojourn_transform_matches_the_single_transform(grid, f_ind, vectors, lams,
                                                                exact):
    # the demo (rank one) builds each column directly, so its column blocks
    # are bitwise the columns of one transform; at rank >= 2 the earlier
    # steps run on each block, whose rounding may differ
    prop = fr.build_propagator(fr.finite_rank_model(grid, vectors(grid), lams))
    w = fr.wave_operator(prop, fr.bump_state(grid, (0.25, 0.75)), "minus", tol=1e-5)
    rs, tol = [4, 8, 16, 32, 64], 1e-6
    got = dynamics._sojourns(prop, w, f_ind, rs, tol)
    want = _reference_sojourns(prop, w, f_ind, rs, tol)
    if exact:
        assert got == want
    for (value, tail, zeta, kept, mass), ref in zip(got, want):
        assert (kept, mass) == ref[3:]
        assert abs(value - ref[0]) <= 1e-14 * abs(ref[0])
        assert abs(tail - ref[1]) <= 1e-14 * abs(ref[1])
        assert abs(zeta - ref[2]) <= 1e-12 * abs(ref[2])


@pytest.mark.parametrize("vectors, lams, profile", [
    (*_SOJOURN_MODELS[0], "f_ind"), (*_SOJOURN_MODELS[1], "f_ind"),
    (*_SOJOURN_MODELS[2], "f_ind"), (*_SOJOURN_MODELS[0], "f_smooth"),
], ids=["demo", "hermite-0-1", "complex", "smooth-bump"])
def test_row_block_form_matches_the_gram_route(grid, vectors, lams, profile, request):
    # T = dk sum_k fbar_k <a_k, S a_k> over row blocks is the Gram form
    # Re c^* (G o S) c summed in another order, and so are the tail samples
    # (the smooth bump's fit at r = 64 reads zeta 0.24, an infinite tail on
    # both routes)
    f = request.getfixturevalue(profile)
    prop = fr.build_propagator(fr.finite_rank_model(grid, vectors(grid), lams))
    w = fr.wave_operator(prop, fr.bump_state(grid, (0.25, 0.75)), "minus", tol=1e-5)
    rs, tol = [4, 8, 16, 32, 64], 1e-6
    for (value, tail, zeta, kept, mass), ref in zip(dynamics._sojourns(prop, w, f, rs, tol),
                                                    _gram_sojourns(prop, w, f, rs, tol)):
        assert (kept, mass) == ref[3:]
        assert value == pytest.approx(ref[0], rel=1e-14, abs=0.0)
        assert tail == pytest.approx(ref[1], rel=1e-14, abs=0.0)
        assert zeta == pytest.approx(ref[2], rel=1e-12, abs=0.0)


@pytest.fixture(scope="module")
def demo_at_large_m():
    """The demo model, bump and window at M = 4096 and 8192: (propagator, phi)."""
    out = {}
    for M in (4096, 8192):
        g = fr.make_grid(16.0, M)
        prop = fr.build_propagator(fr.finite_rank_model(g, [fr.gaussian_state(g)], [1.0]))
        out[M] = prop, fr.bump_state(g, (0.25, 0.75))
    return out


def test_wave_operator_memory_does_not_grow_with_m(demo_at_large_m):
    # Cook's kernel is built in mode blocks of a fixed entry budget, so its
    # working memory does not grow as M x (support nodes); a full-height
    # kernel reads 14.3 and 56.6 MiB at M = 4096 and 8192
    peaks = [_traced_peak(fr.wave_operator, prop, phi, "minus", 1e-5)[1]
             for prop, phi in demo_at_large_m.values()]
    assert peaks[1] <= 1.25 * peaks[0]  # measured 14.1 / 14.1 MiB


def test_sojourn_of_the_zero_state_keeps_no_modes(gaussian_propagator, grid, f_ind):
    # every eigenmode holds no mass, so every one is dropped and the union of
    # kept columns is empty: nothing is transformed and the sojourn is 0
    zero = fr.grid_function(grid, np.zeros(grid.points))
    value, info = fr.sojourn(gaussian_propagator, zero, f_ind, 4.0, return_info=True)
    assert (value, info["tail_estimate"], info["modes_kept"]) == (0.0, 0.0, 0)


def test_sojourn_stage_forms_no_gram_matrix(gaussian_propagator, grid, f_ind):
    # the demo's five sojourns at M = 2048 hold the window rows of the
    # union's transforms (4.5 MiB) and one scale's kernel, phases and row
    # block at a time; the Gram route's G, G o K, Bw copies and full tail
    # samples peaked at 17.0 MiB
    w = fr.wave_operator(gaussian_propagator, fr.bump_state(grid, (0.25, 0.75)), "minus", 1e-5)
    _, peak = _traced_peak(dynamics._sojourns, gaussian_propagator, w, f_ind,
                           [4, 8, 16, 32, 64], 1e-6)
    assert peak <= 12 * 2 ** 20  # measured 10.1 MiB


def test_sojourn_stage_holds_no_full_height_column_array(demo_at_large_m, f_ind):
    # the sweep's five sojourns transform their kept columns in blocks and
    # keep only the window rows: the stage peaks below one complex
    # M x (kept modes) array, where one transform of every kept column
    # reads 35.5 MiB
    prop, phi = demo_at_large_m[8192]
    w = fr.wave_operator(prop, phi, "minus", tol=1e-5)
    out, peak = _traced_peak(dynamics._sojourns, prop, w, f_ind, [4, 8, 16, 32, 64], 1e-6)
    kept = max(modes for _, _, _, modes, _ in out)
    assert peak < prop.grid.points * kept * 16  # measured 6.2 MiB < 14.0 MiB
    # (11.6 with a Gram matrix, 35.5 with one transform)


_SPLIT_MODELS = {
    "demo": (lambda g: [fr.gaussian_state(g)], [1.0], (0.25, 0.75)),
    "resonant-a": (lambda g: [fr.hermite_state(g, 1), fr.hermite_state(g, 2)],
                   [-1.1606, 0.5558], (0.2971 - 0.25, 0.2971 + 0.25)),
    "rank-3": (lambda g: [fr.hermite_state(g, j) for j in range(3)], [0.7, -0.5, 0.4],
               (-0.6, 0.2)),
    "complex": (lambda g: [fr.gaussian_state(g, 0.0, 1.0, momentum=1.5)], [1.0], (0.25, 0.75)),
}


@pytest.mark.parametrize("name", list(_SPLIT_MODELS))
def test_split_form_is_the_full_form_less_a_charged_light_block(grid, f_ind, name):
    # each scale's form, with the light modes' own block left out, against
    # the all-modes K x K form on the same window rows of B: what is left out
    # is the light block L = 2T dk sum_k fbar_k <a_L, S_LL a_L>, which lies in
    # [0, span m_L], and that charge is at most eps span ||psi||^2.  The two
    # forms sum in different orders, which moves them by a few ulps of T
    # (measured at most 2.9), more than the charge itself on rank 3 (2.1e-14
    # against 2.9e-15 at r = 32); the tail samples read every kept mode
    vectors, lams, support = _SPLIT_MODELS[name]
    prop = fr.build_propagator(fr.finite_rank_model(grid, vectors(grid), lams))
    w = fr.wave_operator(prop, fr.bump_state(grid, support), "minus", tol=1e-5)
    rs, tol, eps = [4, 8, 16, 32, 64], 1e-6, np.finfo(float).eps
    M, dk, c, horizons, fbars, windows, union = _sojourn_setup(prop, w, f_ind, rs, tol)
    B = dynamics._momentum_rows(prop, union, np.arange(M))
    norm2 = fr.norm(w) ** 2
    for r, (value, *_), (K, T), fbar, (kept, light, _, _) in zip(
            rs, dynamics._sojourns(prop, w, f_ind, rs, tol), horizons, fbars, windows):
        win = np.flatnonzero(fbar > 1e-16 * fbar.max())
        pick, E, half = np.searchsorted(union, kept)[:, None], prop.eigenvalues[kept], \
            np.linspace(0.5 * T, T, dynamics._TAIL_SAMPLES)
        ref, ref_samples = full_window_form(B, pick, win, fbar[win], c[kept], E, T, half)
        split, samples = dynamics._window_form(B, pick, win, fbar[win], c[kept], E, T, half,
                                               light)
        span = 2.0 * T * fbar.max()
        charge = span * grid.spacing * float(np.sum(np.abs(c[kept[light]]) ** 2))
        block = dk * full_window_form(B, pick[light], win, fbar[win], c[kept[light]], E[light],
                                      T, half)[0]
        assert 0.0 < charge <= eps * span * norm2
        assert 0.0 <= block <= charge
        assert abs(value + block - dk * ref) <= 4.0 * eps * abs(dk * ref)
        assert abs(value - dk * ref) <= charge + 4.0 * eps * abs(dk * ref)
        assert dk * split == value
        np.testing.assert_allclose(samples, ref_samples, rtol=1e-12, atol=0.0)


def test_window_form_forms_sinc_rows_only_for_the_heavy_modes(grid, f_ind, monkeypatch):
    # numpy as dynamics sees it, with np.sin counted: on the demo sweep each
    # scale's kernel is (heavy modes) x (kept modes), at most 32 rows where
    # 440-451 modes are kept (measured 23 rows a scale)
    sins, windows, spectral_windows = [], [], dynamics._spectral_windows

    def counted(x, *args, **kwargs):
        sins.append(np.shape(x))
        return np.sin(x, *args, **kwargs)

    def spied(*args):
        out = spectral_windows(*args)
        windows.extend(out)
        return out

    view = types.ModuleType("numpy")
    view.__dict__.update(vars(np))
    view.sin = counted
    monkeypatch.setattr(dynamics, "np", view)
    monkeypatch.setattr(dynamics, "_spectral_windows", spied)
    prop = fr.build_propagator(fr.finite_rank_model(grid, [fr.gaussian_state(grid)], [1.0]))
    w = fr.wave_operator(prop, fr.bump_state(grid, (0.25, 0.75)), "minus", tol=1e-5)
    dynamics._sojourns(prop, w, f_ind, [4, 8, 16, 32, 64], 1e-6)
    assert sins == [(int(np.sum(~light)), kept.size) for kept, light, _, _ in windows]
    assert all(rows <= 32 < 400 < cols for rows, cols in sins)


def test_window_form_takes_two_phase_tables_a_scale(grid, f_ind, monkeypatch):
    # numpy as dynamics sees it, with np.exp counted: each scale's tail
    # phases are a coarse table, (kept modes) x n/J, and a fine one,
    # (kept modes) x J, J = 16 at n = 128, so 24 exponentials a mode where
    # e^{-iEt} at every sample took 128
    exps, windows, spectral_windows = [], [], dynamics._spectral_windows

    def counted(x, *args, **kwargs):
        exps.append(np.size(x))
        return np.exp(x, *args, **kwargs)

    def spied(*args):
        out = spectral_windows(*args)
        windows.extend(out)
        return out

    prop = fr.build_propagator(fr.finite_rank_model(grid, [fr.gaussian_state(grid)], [1.0]))
    w = fr.wave_operator(prop, fr.bump_state(grid, (0.25, 0.75)), "minus", tol=1e-5)
    view = types.ModuleType("numpy")
    view.__dict__.update(vars(np))
    view.exp = counted
    monkeypatch.setattr(dynamics, "np", view)
    monkeypatch.setattr(dynamics, "_spectral_windows", spied)
    dynamics._sojourns(prop, w, f_ind, [4, 8, 16, 32, 64], 1e-6)
    n, J = dynamics._TAIL_SAMPLES, 16
    assert len(exps) == 2 * len(windows) == 10
    assert [exps[2 * i] + exps[2 * i + 1] for i in range(5)] == [
        kept.size * (n // J + J) for kept, _, _, _ in windows]
    assert n // J + J <= n / 5


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                    reason="needs an extended-precision long double")
def test_tail_phases_hold_the_direct_phases_round_off(gaussian_propagator, grid, f_ind):
    # at the demo's r = 64 (T = 203.5, max|E| = 16), against e^{-iEt} taken
    # in long double at the same float64 E and t, np.exp of the rounded
    # products E t and the two-table phases, whose times half[Jp] + q dt
    # differ from half[Jp + q] by an ulp of T, both lie within
    # 2 eps max|E| T (measured 0.31 and 0.88 of eps max|E| T)
    prop = gaussian_propagator
    w = fr.wave_operator(prop, fr.bump_state(grid, (0.25, 0.75)), "minus", tol=1e-5)
    _, T = dynamics._sojourn_horizon(dynamics._momentum_density(w), grid, f_ind, 64.0)
    half, E = np.linspace(0.5 * T, T, dynamics._TAIL_SAMPLES), prop.eigenvalues
    theta = np.multiply.outer(E.astype(np.longdouble), half.astype(np.longdouble))
    cos, sin = np.cos(theta), np.sin(theta)
    bound = 2.0 * np.finfo(float).eps * float(np.abs(E).max()) * T
    for Q in (dynamics._tail_phases(E, half), np.exp(np.multiply.outer(E, -1j * half))):
        assert Q.shape == (grid.points, dynamics._TAIL_SAMPLES)
        err = np.hypot((Q.real - cos).astype(float), (Q.imag + sin).astype(float))
        assert float(err.max()) <= bound


@pytest.mark.parametrize("values", [
    [2.0], [3.0, 1.0], [20.3, 21.0, 21.9, 23.3, 25.2], [25.2, 20.3, 23.3, 21.0],
    [1.5, 1.5, -0.5], [1e308, 1.7e308, 1.6e308], [0.1, 0.2, 0.3, 0.7],
])
def test_median_is_the_statistics_median(values):
    # the sweep's zeta_measured takes the median of at most five zetas
    # without importing statistics (which loads fractions and decimal)
    assert dynamics._median(values) == statistics.median(values)
    rng = np.random.default_rng(len(values))
    for n in range(1, 8):
        draw = list(rng.standard_normal(n) * 10.0)
        assert dynamics._median(draw) == statistics.median(draw)


def test_cook_tail_probe_stays_within_the_entry_budget():
    # the probe's (support nodes x probe times) phases go in blocks of
    # _BLOCK_ENTRIES entries: at M = 16384 the bump's 257 support nodes and
    # 3206 probe times read 6.2 MiB, against 25.3 MiB in one piece
    g = fr.make_grid(16.0, 16384)
    prop = fr.build_propagator(fr.finite_rank_model(g, [fr.gaussian_state(g)], [1.0]))
    phi = fr.bump_state(g, (0.25, 0.75))
    _, peak = _traced_peak(dynamics._cook_tail, prop, phi, -1.0,
                           g.momentum_cutoff - dynamics._MARGIN)
    assert peak < 6 * resolvent._BLOCK_ENTRIES * 8


def test_sweep_refuses_as_sojourn_does_at_the_scale_that_fails(gaussian_propagator,
                                                              gaussian_curve, grid, f_ind):
    # the tail over |T| is 1.15e-8 at r = 32 and 1.19e-8 at r = 64, so
    # tol = 1.17e-8 passes the first scale and refuses the second
    prop, tol = gaussian_propagator, 1.17e-8
    phi = fr.bump_state(grid, (0.25, 0.75))
    w = fr.wave_operator(prop, phi, "minus", tol=1e-5)
    fr.sojourn(prop, w, f_ind, 32.0, tol=tol)
    with pytest.raises(ToleranceError) as alone:
        fr.sojourn(prop, w, f_ind, 64.0, tol=tol)
    with pytest.raises(ToleranceError) as swept:
        fr.time_delay_sweep(prop, gaussian_curve, phi, f_ind, [64.0, 32.0], tol=tol)
    assert str(swept.value) == str(alone.value)


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


def test_sweep_refuses_a_curve_of_another_model(rank2_model, gaussian_curve, grid, f_ind):
    phi = fr.bump_state(grid, (0.25, 0.75))
    with pytest.raises(ValidationError, match="another model"):
        fr.time_delay_sweep(fr.build_propagator(rank2_model), gaussian_curve, phi,
                            f_ind, [4.0])


def test_sweep_validates_r_list(gaussian_propagator, gaussian_curve, grid, f_ind):
    phi = fr.bump_state(grid, (0.25, 0.75))
    with pytest.raises(ValidationError):
        fr.time_delay_sweep(gaussian_propagator, gaussian_curve, phi, f_ind, [])
    with pytest.raises(ValidationError):
        fr.time_delay_sweep(gaussian_propagator, gaussian_curve, phi, f_ind, [-2.0])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="positive and finite"):
            fr.time_delay_sweep(gaussian_propagator, gaussian_curve, phi, f_ind,
                                [4.0, 8.0, bad])
    # a repeated scale would leave a zero gap, certifying a convergence
    # never shown
    with pytest.raises(ValidationError, match="repeat"):
        fr.time_delay_sweep(gaussian_propagator, gaussian_curve, phi, f_ind,
                            [4.0, 4.0, 8.0])


def test_sweep_settles_on_its_last_gap(gaussian_propagator, gaussian_curve, grid, f_ind):
    # tau_inf is tau_in at the largest r, never an extrapolation; fit_ok
    # says the last gap lies within twice the larger tail of its two
    # sojourns (plus round-off), and a sweep that has not settled warns
    phi = fr.bump_state(grid, (0.25, 0.75))
    with pytest.warns(UserWarning, match=r"not settled: its last gap 0\.00973 "
                                         r"exceeds the floor 2\.08e-07"):
        records, summary = fr.time_delay_sweep(
            gaussian_propagator, gaussian_curve, phi, f_ind, [1.0, 2.0, 3.0])
    assert not summary["fit_ok"]
    assert summary["tau_inf"] == records[-1].tau_in
    assert summary["fit_residual"] == abs(records[-1].tau_in - records[-2].tau_in)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records, summary = fr.time_delay_sweep(
            gaussian_propagator, gaussian_curve, phi, f_ind, [4.0, 8.0, 16.0])
    assert summary["fit_ok"]
    assert summary["tau_inf"] == records[-1].tau_in
    assert summary["fit_residual"] <= 2.0 * records[-1].tail_estimate

    with pytest.warns(UserWarning, match="a single scale shows no gap"):
        records, summary = fr.time_delay_sweep(
            gaussian_propagator, gaussian_curve, phi, f_ind, [4.0])
    assert not summary["fit_ok"] and math.isnan(summary["fit_residual"])
    assert summary["tau_inf"] == records[-1].tau_in


def test_a_non_finite_state_sample_is_refused_by_name(grid):
    # a NaN sample is refused by name where the state is built, so no
    # downstream routine ever sees it
    samples = fr.bump_state(grid, (0.25, 0.75)).samples.copy()
    k = int(np.flatnonzero(samples)[3])
    samples[k] = math.nan
    match = f"state sample {k} is not finite"
    for rep in Representation:
        with pytest.raises(fr.StateNotAdmissible, match=match):
            fr.GridFunction(grid, rep, samples)
    with pytest.raises(fr.StateNotAdmissible, match=match):
        fr.grid_function(grid, samples)
    samples[k] = complex(1.0, math.inf)
    with pytest.raises(fr.StateNotAdmissible, match=match):
        fr.grid_function(grid, samples, Representation.MOMENTUM)


def test_the_sweep_refuses_every_state_it_cannot_certify(gaussian_propagator, gaussian_curve,
                                                         grid, f_ind):
    def sweep(phi, curve=gaussian_curve):
        fr.time_delay_sweep(gaussian_propagator, curve, phi, f_ind, [4.0])

    with pytest.raises(fr.StateNotAdmissible, match="zero state has no support"):
        sweep(fr.grid_function(grid, np.zeros(grid.points)))
    excluded = dataclasses.replace(gaussian_curve, exclusions=((0.5, 0.1),))
    with pytest.raises(fr.StateNotAdmissible, match="excluded energy 0.5"):
        sweep(fr.bump_state(grid, (0.25, 0.75)), excluded)
    edge = fr.bump_state(grid, (0.25, 0.75)).samples.copy()
    edge[0] = 1e-3
    with pytest.raises(ValidationError):        # a sample at the box edge
        sweep(fr.grid_function(grid, edge))
