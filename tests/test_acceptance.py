"""Acceptance suite: one test per criterion, one printed verdict line each.

Every test funnels its measurements into a single PASS/FAIL line naming
the criterion, the measured residuals, and the bound they were held to
(run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they appear).  Bounds and case lists follow the package contract; where
a sequence is expected to decrease but has converged to the quadrature
floor, the floor (sum of adjacent tail estimates plus round-off slack)
is the operative bound.
"""

import math
import time

import numpy as np
import pytest

import friedrichs as fr
from friedrichs.localization import localization_integral
from friedrichs.scattering import (
    _state_scattering,
    compute_curve,
    spectral_shift_density_determinant,
)


def verdict(tag, ok, detail):
    print(f"{tag} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag}: {detail}"


@pytest.fixture(scope="module")
def models_123(grid, gaussian_model, rank2_model):
    v = [fr.hermite_state(grid, n) for n in range(3)]
    m3 = fr.finite_rank_model(grid, v, [0.8, -0.5, 0.3])
    return {1: gaussian_model, 2: rank2_model, 3: m3}


@pytest.fixture(scope="module")
def headline(grid, gaussian_model, gaussian_curve, gaussian_propagator):
    """The flagship sweep: rank-one Gaussian model, bump state, indicator."""
    phi = fr.bump_state(grid, (0.25, 0.75))
    f = fr.make_localization("indicator", J=(-1.0, 1.0))
    t0 = time.perf_counter()
    records, summary = fr.time_delay_sweep(
        gaussian_propagator, gaussian_curve, phi, f,
        [4.0, 8.0, 16.0, 32.0, 64.0], tol=1e-6)
    wall = time.perf_counter() - t0
    return records, summary, wall


def test_ac1_free_sojourn_identity(grid):
    t0 = time.perf_counter()
    prop0 = fr.build_propagator(fr.finite_rank_model(grid, [], []))
    states = [fr.gaussian_state(grid), fr.bump_state(grid, (0.25, 0.75))]
    profiles = [fr.make_localization("indicator", J=(-1.0, 1.0)),
                fr.make_localization("smooth_bump", delta=1.0, width=1.0, rho=3.0)]
    worst = 0.0
    for phi in states:
        for f in profiles:
            t_exact = fr.norm(phi) ** 2 * float(np.real(localization_integral(f)))
            for r in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0):
                t_num = fr.sojourn(prop0, phi, f, r, "freenumeric")
                worst = max(worst, abs(t_num - r * t_exact) / (r * t_exact))
    wall = time.perf_counter() - t0
    verdict("AC-1", worst <= 1e-4 and wall <= 10.0,
            f"free sojourn identity relative residual {worst:.2e} "
            f"(bound 1e-4) in {wall:.1f} s (bound 10 s)")


def test_ac2_unitarity(models_123):
    t0 = time.perf_counter()
    worst = 0.0
    for model in models_123.values():
        curve = compute_curve(model, (-6.0, 6.0), 1001)
        worst = max(worst, float(np.max(np.abs(np.abs(curve.s) - 1.0))))
    wall = time.perf_counter() - t0
    verdict("AC-2", worst <= 1e-8 and wall <= 30.0,
            f"max ||S|-1| = {worst:.2e} over 1001 energies, N in 1..3 "
            f"(bound 1e-8) in {wall:.1f} s (bound 30 s)")


def test_ac3_stationary_vs_chain(models_123):
    worst = 0.0
    for model in models_123.values():
        curve = compute_curve(model, (-6.0, 6.0), 1001)
        chain = np.array([fr.s_matrix_chain(model, float(x))
                          for x in curve.energies])
        worst = max(worst, float(np.max(np.abs(curve.s - chain))))
    verdict("AC-3", worst <= 1e-8,
            f"sup |s_matrix - s_matrix_chain| = {worst:.2e} "
            f"over the energy grid, N in 1..3 (bound 1e-8)")


def test_ac4_plemelj_and_conjugation(rank2_model):
    gen = np.random.default_rng(42)
    xs = gen.uniform(-5.0, 5.0, size=50)
    jump = 0.0
    conj = 0.0
    for x in xs:
        plus = fr.boundary_matrix(rank2_model, float(x), "plus").matrix
        minus = fr.boundary_matrix(rank2_model, float(x), "minus").matrix
        vx = np.array([fr.evaluate_many(v, [float(x)])[0]
                       for v in rank2_model.vectors])
        expected = 2j * math.pi * np.outer(np.conj(vx), vx)
        jump = max(jump, float(np.max(np.abs(plus - minus - expected))))
        conj = max(conj, float(np.max(np.abs(minus - plus.conj().T))))
    verdict("AC-4", jump <= 1e-6 and conj <= 1e-6,
            f"Plemelj jump residual {jump:.2e}, conjugation residual "
            f"{conj:.2e} at 50 random energies (bound 1e-6)")


def test_ac5_derivative_fidelity(rank2_model):
    h = 1e-5
    xs = np.linspace(-4.0, 4.0, 20)
    worst_s = 0.0
    for x in xs:
        x = float(x)
        fd = (fr.s_matrix(rank2_model, x + h)
              - fr.s_matrix(rank2_model, x - h)) / (2.0 * h)
        worst_s = max(worst_s, abs(fr.s_prime(rank2_model, x) - fd) / abs(fd))
    # second kernel power against the derivative of the first:
    # d/dx r[1](x) = r[2](x) for this family
    worst_r = 0.0
    for x in (-1.7, 0.3, 2.1):
        fd = (fr.boundary_matrix(rank2_model, x + h, "plus").matrix
              - fr.boundary_matrix(rank2_model, x - h, "plus").matrix) / (2.0 * h)
        second = fr.boundary_matrix(rank2_model, x, "plus", n=2).matrix
        worst_r = max(worst_r, float(np.max(np.abs(second - fd)))
                      / float(np.max(np.abs(second))))
    verdict("AC-5", worst_s <= 1e-5 and worst_r <= 1e-5,
            f"s_prime vs finite differences {worst_s:.2e} at 20 energies, "
            f"r2 vs d/dx r1 {worst_r:.2e} (bound 1e-5)")


def test_ac6_propagation_formula():
    f = fr.make_localization("indicator", J=(-1.0, 1.0))
    flat = fr.indicator_momentum_density((1.0, 2.0))
    exact = 0.0
    for r in (2.5, 3.0, 4.0, 10.0, 64.0):
        exact = max(exact, abs(fr.propagation_functional(flat, f, r) - 3.0))
    gauss = fr.gaussian_momentum_density(momentum=1.5, width=1.0)
    rs = (2.5, 4.0, 8.0, 16.0, 32.0)
    devs = [abs(fr.propagation_functional(gauss, f, r) - 3.0) for r in rs]
    monotone = all(b <= a + 1e-12 for a, b in zip(devs, devs[1:]))
    verdict("AC-6", exact <= 1e-8 and devs[-1] <= 1e-6 and monotone,
            f"indicator case |I_r - 3| = {exact:.2e} (bound 1e-8); Gaussian "
            f"deviation at r=32 is {devs[-1]:.2e} (bound 1e-6), "
            f"monotone={monotone}")


def test_ac7_time_delay_identities(headline):
    records, _, _ = headline
    tau_gap = max(abs(rec.tau_in - rec.tau_sym) for rec in records)
    free_sym = max(abs(rec.T0_S - rec.T0) for rec in records)
    verdict("AC-7", tau_gap <= 1e-6 and free_sym <= 1e-6,
            f"max |tau_in - tau_sym| = {tau_gap:.2e}, "
            f"max |T0(S phi) - T0(phi)| = {free_sym:.2e} "
            f"at every sweep r (bound 1e-6)")


def test_ac8_headline_sweep(headline):
    records, summary, wall = headline
    ew = summary["ew_value"]
    rel = summary["rel_gap"]
    gaps = [abs(rec.tau_in - ew) for rec in records]
    # the gap sequence must decrease until it reaches the quadrature
    # floor; from there adjacent tail estimates bound any wobble
    settled = True
    for i in range(1, len(gaps)):
        floor = 2.0 * (records[i].tail_estimate
                       + records[i - 1].tail_estimate) + 1e-12 * (1 + abs(ew))
        if gaps[i] > gaps[i - 1] + floor:
            settled = False
    ok = (summary["fit_ok"] and rel <= 0.02 and settled and wall <= 300.0)
    verdict("AC-8", ok,
            f"tau_inf = {summary['tau_inf']:.9g} vs ew = {ew:.9g}, "
            f"rel gap {rel:.2e} (bound 2e-2); gaps "
            + " -> ".join(f"{g:.1e}" for g in gaps)
            + f" decreasing to the floor; {wall:.0f} s (bound 300 s)")


def _ac9_gap(model, curve, phi):
    """|ew_time_delay - (-2 pi) int |phi|^2 xi'|, the integral by
    80-point Gauss-Legendre over the support with the determinant route."""
    ew = fr.ew_time_delay(curve, phi)
    a, b = fr.state_support(phi)
    nodes, weights = np.polynomial.legendre.leggauss(80)
    xs = 0.5 * (b - a) * nodes + 0.5 * (a + b)
    w = 0.5 * (b - a) * weights
    dens = np.abs(fr.evaluate_many(phi, xs)) ** 2
    xi = spectral_shift_density_determinant(model, xs)
    return abs(ew - (-2.0 * math.pi * float(np.sum(w * dens * xi))))


def test_ac9_birman_krein(grid, gaussian_model, gaussian_curve):
    bk = float(np.max(np.abs(gaussian_curve.delay_density
                             + 2.0 * math.pi * gaussian_curve.shift_density)))
    gap = _ac9_gap(gaussian_model, gaussian_curve, fr.bump_state(grid, (0.25, 0.75)))
    verdict("AC-9", bk <= 1e-6 and gap <= 1e-8,
            f"max |theta' + 2 pi xi'| = {bk:.2e} on the energy grid "
            f"(bound 1e-6); integral form vs ew_time_delay {gap:.2e} "
            f"(bound 1e-8)")


@pytest.fixture(scope="module")
def hermite_curve(grid):
    """coupling -> 1001-point curve of the rank-one hermite(0) model."""
    curves = {}

    def curve(lam):
        if lam not in curves:
            model = fr.finite_rank_model(grid, [fr.hermite_state(grid, 0)], [lam])
            curves[lam] = compute_curve(model, (-6.0, 6.0), 1001)
        return curves[lam]
    return curve


@pytest.mark.parametrize("lam", [-1.2, -1.0, -0.75, -0.3, 0.3, 0.75, 1.0, 1.2])
@pytest.mark.parametrize("center", [-1.0, -0.5, 0.0, 0.5, 0.9, 1.0])
def test_ac9_holds_across_centres_and_couplings(grid, hermite_curve, lam, center):
    # bumps of half-width 0.25 centred across [-1, 1], where AC-9 is held
    curve = hermite_curve(lam)
    phi = fr.bump_state(grid, (center - 0.25, center + 0.25))
    gap = _ac9_gap(curve.model, curve, phi)
    verdict("AC-9", gap <= 1e-8,
            f"lambda = {lam:g}, bump centre {center:g}: integral form vs "
            f"ew_time_delay {gap:.2e} (bound 1e-8)")


def test_ac10_wave_operator_quality(grid, gaussian_model, gaussian_propagator):
    phi = fr.gaussian_state(grid, 0.5, 0.4)
    w_cook = fr.wave_operator(gaussian_propagator, phi, "minus")
    w_stat = _state_scattering(gaussian_model, phi, ())[3]
    agree = fr.norm(fr.grid_function(grid, w_cook.samples - w_stat.samples))
    isometry = abs(fr.norm(w_cook) - fr.norm(phi))
    t = 1.0
    lhs = fr.wave_operator(gaussian_propagator,
                           fr.evolve(gaussian_propagator, phi, t, "free"), "minus")
    rhs = fr.evolve(gaussian_propagator, w_cook, t, "full")
    intertwine = fr.norm(fr.grid_function(grid, lhs.samples - rhs.samples))
    prop0 = fr.build_propagator(fr.finite_rank_model(grid, [], []))
    trivial = 0.0
    for sign in ("plus", "minus"):
        w0 = fr.wave_operator(prop0, phi, sign)
        trivial = max(trivial, float(np.max(np.abs(w0.samples - phi.samples))))
    ok = (agree <= 1e-4 and isometry <= 1e-4 and intertwine <= 1e-4
          and trivial <= 1e-12)
    verdict("AC-10", ok,
            f"stationary vs cook {agree:.2e}, isometry {isometry:.2e}, "
            f"intertwining {intertwine:.2e} (bound 1e-4); V=0 identity "
            f"residual {trivial:.2e} (round-off)")


def test_ac11_point_spectrum(grid):
    v = fr.gaussian_state(grid)
    found = []
    for lam in (0.5, -0.5, 1.0, -1.0, 2.0, -2.0):
        ps = fr.point_spectrum(fr.finite_rank_model(grid, [v], [lam]))
        found.extend(ps.eigenvalues)
    x = grid.position_nodes()
    c = (1.5 * math.sqrt(math.pi)) ** -0.5
    v_emb = fr.grid_function(grid, c * (x - 1.0) * np.exp(-0.5 * x * x))
    ps_emb = fr.point_spectrum(fr.finite_rank_model(grid, [v_emb], [1.5]))
    hit = (len(ps_emb.eigenvalues) == 1
           and abs(ps_emb.eigenvalues[0] - 1.0) <= 1e-4)
    verdict("AC-11", not found and hit,
            f"Gaussian family eigenvalues found: {len(found)} (want 0); "
            f"constructed embedded eigenvalue located at "
            + (f"{ps_emb.eigenvalues[0]:.6f}" if ps_emb.eigenvalues else "none")
            + " (want 1 within 1e-4)")
