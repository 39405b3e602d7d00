"""Scattering matrix, delay density, and curve plumbing.

Oracle notes.  For the Gaussian rank-one model with unit coupling the
boundary value F(x + i0) = i sqrt(pi) w(x) (Faddeeva function) gives

    S(x)      = (1 - lambda F_-) ... = D_-(x)/D_+(x),
    theta'(x) = -2 Im[F'(x) / (1 + F(x))],   F'(x) = -2x F(x) - 2.

The delay-density values below were frozen from an independent
evaluation of that formula; theta'(1) = 0 holds exactly because
F' = -2(1 + F) there, making the ratio real.  S(0) follows by parity:
the PV part vanishes, so S(0) = (1 - i sqrt(pi))/(1 + i sqrt(pi)).
"""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import friedrichs as fr
from friedrichs import PointSpectrumProximity, StateNotAdmissible, ValidationError
from friedrichs.resolvent import _ChirpProjection, _cut_determinants, _determinant

SQRT_PI = 1.7724538509055159

S_AT_ZERO = -0.5170939859895523 - 0.8559286241582508j

# x -> theta'(x) for the Gaussian lambda = 1 model
DELAY_DENSITY = {
    0.0: -1.711857248316502,
    0.5: -1.431706754941279,
    1.0: 0.0,
    2.0: 0.817124329950176,
}


def _delay_from_pointwise(model, x):
    s = fr.s_matrix(model, x)
    sp = fr.s_prime(model, x)
    return float(np.real(-1j * np.conj(s) * sp))


def test_s_matrix_closed_form_at_zero(gaussian_model):
    s = fr.s_matrix(gaussian_model, 0.0)
    assert abs(s - S_AT_ZERO) < 1e-13
    assert abs(abs(s) - 1.0) < 1e-14


def test_delay_density_frozen_values(gaussian_model):
    for x, ref in DELAY_DENSITY.items():
        got = _delay_from_pointwise(gaussian_model, x)
        assert abs(got - ref) < 1e-10


def test_born_regime_small_coupling(grid):
    # S = 1 - 2 pi i lam |v(x)|^2 + O(lam^2)
    lam = 1e-4
    model = fr.finite_rank_model(grid, [fr.gaussian_state(grid)], [lam])
    for x in [0.0, 0.8, -1.6]:
        s = fr.s_matrix(model, x)
        born = 1.0 - 2j * math.pi * lam * math.exp(-x * x) / SQRT_PI
        assert abs(s - born) < 20.0 * lam ** 2


def test_chain_route_agreement(grid, gaussian_model):
    # product of boundary-determinant ratios against the direct formula; each
    # side of the chain's shared projection against one perturbation_determinant
    # per side, and the chain against the ratio of those two calls
    couplings = [0.8, -0.5, 0.3]
    xs = [float(x) for x in np.linspace(-5.0, 5.0, 41)]
    models = [gaussian_model] + [
        fr.finite_rank_model(grid, [fr.hermite_state(grid, j) for j in range(n)],
                             couplings[:n]) for n in (1, 2, 3)]
    for model in models:
        worst = max(abs(fr.s_matrix(model, x) - fr.s_matrix_chain(model, x)) for x in xs)
        assert worst < 1e-8
        for x in xs:
            lower = fr.perturbation_determinant(model, x, "minus")
            upper = fr.perturbation_determinant(model, x, "plus")
            for got, want in zip(_cut_determinants(model, x), (lower, upper)):
                assert abs(got - want) <= 1e-14 * max(1.0, abs(want))
            assert abs(fr.s_matrix_chain(model, x) - lower / upper) <= 1e-13


def test_s_prime_against_finite_differences(rank2_model):
    gen = np.random.default_rng(5)
    xs = gen.uniform(-4.5, 4.5, size=20)
    h = 1e-5
    for x in xs:
        fd = (fr.s_matrix(rank2_model, float(x + h)) -
              fr.s_matrix(rank2_model, float(x - h))) / (2.0 * h)
        an = fr.s_prime(rank2_model, float(x))
        assert abs(fd - an) < 1e-5 * max(1.0, abs(an))


def test_curve_invariants(gaussian_curve):
    assert np.max(np.abs(np.abs(gaussian_curve.s) - 1.0)) < 1e-8
    assert np.max(np.abs(gaussian_curve.delay_density.imag)) == 0.0
    # Birman-Krein: the stored shift density comes from the determinant
    # phase, the delay density from conj(S) S'; they must cancel
    bk = gaussian_curve.delay_density + 2.0 * math.pi * gaussian_curve.shift_density
    assert np.max(np.abs(bk)) < 1e-6
    assert gaussian_curve.energies.flags.writeable is False


def test_curve_matches_pointwise_at_nodes(gaussian_model, gaussian_curve):
    # energy 0 is a node of the 1001-point span
    i = int(np.argmin(np.abs(gaussian_curve.energies)))
    assert gaussian_curve.energies[i] == 0.0
    assert abs(gaussian_curve.s[i] - S_AT_ZERO) < 1e-13
    assert abs(gaussian_curve.delay_density[i] - DELAY_DENSITY[0.0]) < 1e-10


def test_spectral_shift_routes(gaussian_model, gaussian_curve):
    # convention: xi' = -theta'/(2 pi); the determinant route is independent
    from_curve = fr.spectral_shift_density(gaussian_curve)
    assert np.allclose(from_curve,
                       -gaussian_curve.delay_density / (2.0 * math.pi))
    xs = np.array([0.0, 0.7, -1.9])
    det_route = fr.spectral_shift_density_determinant(gaussian_model, xs)
    for x, xi in zip(xs, det_route):
        assert abs(xi - (-_delay_from_pointwise(gaussian_model, x) /
                         (2.0 * math.pi))) < 1e-8


def test_ew_time_delay_against_quadrature(gaussian_model, gaussian_curve, grid):
    # independent route: Gauss-Legendre quadrature of |phi|^2 theta' using
    # band-limited interpolation of phi and the pointwise delay density
    phi = fr.bump_state(grid, (0.25, 0.75))
    got = fr.ew_time_delay(gaussian_curve, phi)
    nodes, weights = np.polynomial.legendre.leggauss(80)
    pts = 0.5 * (nodes + 1.0) * 0.5 + 0.25
    vals = np.abs(fr.evaluate_many(phi, pts)) ** 2
    dens = np.array([_delay_from_pointwise(gaussian_model, float(x)) for x in pts])
    ref = 0.25 * np.sum(weights * vals * dens)
    assert abs(got - ref) < 1e-8


def test_apply_scattering(gaussian_model, gaussian_curve, grid):
    phi = fr.bump_state(grid, (0.25, 0.75))
    out = fr.apply_scattering(gaussian_curve, phi)
    # multiplication by a unimodular function preserves the norm
    assert abs(fr.norm(out) - fr.norm(phi)) < 1e-9
    x = grid.position_nodes()
    inside = (x >= 0.25) & (x <= 0.75)
    # untouched outside the state's support
    assert np.array_equal(out.samples[~inside], phi.samples[~inside])
    # pointwise against the stationary formula on the support nodes
    ref = np.array([fr.s_matrix(gaussian_model, float(xx)) for xx in x[inside]])
    assert np.max(np.abs(out.samples[inside] - ref * phi.samples[inside])) < 1e-12


def test_state_data_come_from_the_model_not_the_table(gaussian_model, gaussian_curve, grid):
    # the curve's span and spacing do not enter: S and theta' are evaluated
    # from the model at the state's support nodes
    other = fr.compute_curve(gaussian_model, (-1.0, 2.0), 37)
    assert other.model is gaussian_curve.model
    phi = fr.bump_state(grid, (0.25, 0.75))
    assert fr.ew_time_delay(other, phi) == fr.ew_time_delay(gaussian_curve, phi)
    assert np.array_equal(fr.apply_scattering(other, phi).samples,
                          fr.apply_scattering(gaussian_curve, phi).samples)


def test_curve_rejects_nonpositive_exclusion_radius(gaussian_model):
    with pytest.raises(ValidationError):
        fr.compute_curve(gaussian_model, (-6.0, 6.0), 101,
                         exclusions=((1.0, 0.0),))


def _embedded_model(grid):
    x = grid.position_nodes()
    c = (1.5 * math.sqrt(math.pi)) ** -0.5
    v = fr.grid_function(grid, c * (x - 1.0) * np.exp(-0.5 * x * x))
    return fr.finite_rank_model(grid, [v], [1.5])


def test_exclusions_split_curve_and_gate_states(grid):
    model = _embedded_model(grid)
    ps = fr.point_spectrum(model)
    assert ps.eigenvalues and abs(ps.eigenvalues[0] - 1.0) < 1e-4
    curve = fr.compute_curve(model, (-4.0, 4.0), 801, exclusions=ps)
    # curve carries no energies inside the exclusion ball
    x0, rad = ps.eigenvalues[0], ps.radii[0]
    assert np.all(np.abs(curve.energies - x0) >= rad * 0.999)
    # a state clear of the eigenvalue passes
    safe = fr.bump_state(grid, (0.25, 0.75))
    assert math.isfinite(fr.ew_time_delay(curve, safe))
    # a state straddling it is refused
    riding = fr.bump_state(grid, (0.9, 1.1))
    with pytest.raises(StateNotAdmissible):
        fr.ew_time_delay(curve, riding)


def test_point_spectrum_is_refused_with_its_cause(grid):
    # no exclusions: the 801-point curve has a node on the eigenvalue x = 1,
    # and a bump straddling it puts a support node there
    model = _embedded_model(grid)
    with pytest.raises(PointSpectrumProximity, match="energy 1 "):
        fr.compute_curve(model, (-4.0, 4.0), 801)
    curve = fr.compute_curve(model, (-4.0, 4.0), 800)
    riding = fr.bump_state(grid, (0.9, 1.1))
    with pytest.raises(PointSpectrumProximity, match="energy 1 "):
        fr.ew_time_delay(curve, riding)
    with pytest.raises(PointSpectrumProximity, match="energy 1 "):
        fr.apply_scattering(curve, riding)


def test_trivial_scattering_for_zero_rank(grid):
    model = fr.finite_rank_model(grid, [], [])
    curve = fr.compute_curve(model, (-6.0, 6.0), 101)
    assert np.all(curve.s == 1.0)
    assert np.all(curve.delay_density == 0.0)
    assert np.all(curve.shift_density == 0.0)
    phi = fr.bump_state(grid, (0.25, 0.75))
    assert fr.ew_time_delay(curve, phi) == 0.0
    out = fr.apply_scattering(curve, phi)
    assert np.array_equal(out.samples, phi.samples)
    s = fr.s_matrix_chain(model, 0.3)
    assert type(s) is complex and s == 1.0 + 0.0j
    with pytest.raises(ValidationError, match="box edge"):
        fr.s_matrix_chain(model, grid.half_width - 5 * grid.spacing)


def test_curve_is_lipschitz_on_segments(gaussian_curve):
    # |S| = 1 with bounded S', so finite differences along the curve stay
    # below the sampled derivative bound with a little slack
    ds = np.abs(np.diff(gaussian_curve.s))
    dx = np.diff(gaussian_curve.energies)
    bound = 1.2 * np.max(np.abs(gaussian_curve.s_prime)) * np.max(dx)
    assert np.max(ds) < bound


# ---------------------------------------------------------------------------
# random models

_couplings = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(0.3, 1.2)).map(
    lambda sm: sm[0] * sm[1])


def _orthonormal_gaussians(grid, shapes):
    """Gaussians of the given (center, width), orthonormalised by Gram-Schmidt."""
    out = []
    for c, w in shapes:
        v = fr.gaussian_state(grid, c, w)
        for u in out:
            v = fr.grid_function(grid, v.samples - fr.inner_product(u, v) * u.samples)
        out.append(fr.grid_function(grid, v.samples / fr.norm(v)))
    return out


@settings(max_examples=12, derandomize=True, deadline=None)
@given(rank=st.integers(1, 3), hermite=st.booleans(),
       center=st.floats(-1.0, 1.0), width=st.floats(0.7, 1.3),
       shapes=st.lists(st.tuples(st.floats(-0.25, 0.25), st.floats(0.7, 1.3)),
                       min_size=3, max_size=3),
       lams=st.lists(_couplings, min_size=3, max_size=3),
       energies=st.lists(st.floats(-4.0, 4.0), min_size=3, max_size=3))
def test_random_hermite_models_keep_their_invariants(coarse_grid, rank, hermite, center,
                                                     width, shapes, lams, energies):
    # every array the model and its propagator derive from the vectors
    # enters one of these checks, so a stale or misfiled one shows here
    if hermite:
        vecs = [fr.hermite_state(coarse_grid, n, center=center, width=width)
                for n in range(rank)]
    else:
        # centres kept >= 0.25 apart so the Gaussians stay independent
        vecs = _orthonormal_gaussians(coarse_grid, [
            (0.75 * (j - 1) + dc, w) for j, (dc, w) in enumerate(shapes[:rank])])
    model = fr.finite_rank_model(coarse_grid, vecs, lams[:rank])
    for x in energies:
        s = fr.s_matrix(model, x)
        assert abs(abs(s) - 1.0) <= 1e-8                          # AC-2
        assert abs(s - fr.s_matrix_chain(model, x)) <= 1e-8       # AC-3
        plus = fr.boundary_matrix(model, x, "plus").matrix
        minus = fr.boundary_matrix(model, x, "minus").matrix
        vx = np.array([fr.evaluate_many(v, [x])[0] for v in model.vectors])
        jump = 2j * math.pi * np.outer(np.conj(vx), vx)
        assert np.max(np.abs(plus - minus - jump)) <= 1e-6        # AC-4
        assert np.max(np.abs(minus - plus.conj().T)) <= 1e-6
        theta = _delay_from_pointwise(model, x)
        xi = fr.spectral_shift_density_determinant(model, [x])[0]
        assert abs(theta + 2.0 * math.pi * xi) <= 1e-6            # AC-9

    # the dense decomposition diagonalizes H = Q + V, and its momentum
    # basis is the unitary transform of the eigenvectors
    g = coarse_grid
    vm = np.array([v.samples for v in vecs])
    H = np.diag(g.position_nodes()) + g.spacing * (vm.T * lams[:rank]) @ vm.conj()
    prop = fr.build_propagator(model)
    E, U = prop.eigenvalues, prop.eigenvectors
    assert np.max(np.abs(H @ U - U * E)) <= 1e-10 * np.max(np.abs(H))
    assert np.max(np.abs(U.conj().T @ U - np.eye(g.points))) <= 1e-12
    B = np.stack([fr.transform(fr.grid_function(g, U[:, j])).samples
                  for j in range(g.points)], axis=1)
    gram = g.momentum_spacing * (B.conj().T @ B)
    assert np.max(np.abs(gram - g.spacing * np.eye(g.points))) <= 1e-10 * g.spacing

    # the point-spectrum scan's chirp-z determinant against the dense one on
    # the same linspace, box-wide and narrow off-centre
    L, h = g.half_width, g.spacing
    for lo, hi, n in ((-L + 10 * h, L - 10 * h, 1001), (0.3, 0.9, 4001)):
        chirp = _determinant(model, _ChirpProjection(g, lo, hi, n), "plus")
        dense = fr.perturbation_determinant(model, np.linspace(lo, hi, n), "plus")
        assert np.all(np.abs(chirp - dense) <= 1e-11 * np.maximum(1.0, np.abs(dense)))
        assert np.array_equal(np.sign(chirp.real[:-1]) * np.sign(chirp.real[1:]) < 0,
                              np.sign(dense.real[:-1]) * np.sign(dense.real[1:]) < 0)


# ---------------------------------------------------------------------------
# the boundary-value engine

def _count_calls(monkeypatch, fn):
    """Wrap fn in every friedrichs module that binds it; returns the call log."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "friedrichs" or name.startswith("friedrichs."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_chain_route_transforms_each_pair_density_once(coarse_grid, monkeypatch):
    vecs = [fr.hermite_state(coarse_grid, n) for n in range(2)]
    model = fr.finite_rank_model(coarse_grid, vecs, [0.8, -0.5])
    calls = _count_calls(monkeypatch, fr.transform)
    fr.s_matrix_chain(model, 0.3)
    assert calls
    calls.clear()
    fr.s_matrix_chain(model, -1.1)
    assert calls == []


def test_chain_route_builds_one_evaluation_matrix(rank2_model, monkeypatch):
    from friedrichs.grid import evaluation_matrix

    calls = _count_calls(monkeypatch, evaluation_matrix)
    fr.s_matrix_chain(rank2_model, 0.3)
    assert calls == ["evaluation_matrix"]


def test_chain_route_refuses_point_spectrum(grid):
    # v = c (x - a) e^{-x^2/2} with lambda = (1/2 + a^2)/a has eigenvalue a
    a = 1.1
    x = grid.position_nodes()
    c = (math.sqrt(math.pi) * (0.5 + a * a)) ** -0.5
    v = fr.grid_function(grid, c * (x - a) * np.exp(-0.5 * x * x))
    model = fr.finite_rank_model(grid, [v], [(0.5 + a * a) / a])
    with pytest.raises(PointSpectrumProximity, match="energy 1.1 "):
        fr.s_matrix(model, a)
    with pytest.raises(PointSpectrumProximity, match="energy 1.1 "):
        fr.s_matrix_chain(model, a)


def test_curve_builds_no_evaluation_matrix(gaussian_model, monkeypatch):
    from friedrichs.grid import evaluation_matrix

    calls = _count_calls(monkeypatch, evaluation_matrix)
    fr.compute_curve(gaussian_model, (-2.0, 2.0), 1001, exclusions=[(0.5, 0.1)])
    assert calls == []


def test_exclusions_only_drop_rows(gaussian_model):
    full = fr.compute_curve(gaussian_model, (-6.0, 6.0), 1001)
    cut = fr.compute_curve(gaussian_model, (-6.0, 6.0), 1001,
                           exclusions=[(-2.0, 0.3), (0.5, 0.05), (1.0, 0.5)])
    kept = np.isin(full.energies, cut.energies)
    assert 0 < cut.energies.size == np.count_nonzero(kept) < full.energies.size
    for name in ("energies", "s", "s_prime", "delay_density", "shift_density"):
        assert np.array_equal(getattr(full, name)[kept], getattr(cut, name))


def test_s_prime_interpolates_each_pair_density_order_once(coarse_grid, monkeypatch):
    from friedrichs import resolvent

    products = []

    class Counting(np.ndarray):
        def __matmul__(self, other):
            products.append(np.shape(other))
            return np.asarray(self) @ other

    build = resolvent.evaluation_matrix
    monkeypatch.setattr(resolvent, "evaluation_matrix",
                        lambda grid, xs: build(grid, xs).view(Counting))
    vecs = [fr.hermite_state(coarse_grid, n) for n in range(2)]
    model = fr.finite_rank_model(coarse_grid, vecs, [0.8, -0.5])
    fr.s_prime(model, 0.3)
    products.clear()
    fr.s_prime(model, -1.1)
    # one column per pair density and order (4 pairs x orders 0..1, for r1
    # and r2), then v_j and v_j' at x
    M = coarse_grid.points
    assert products == [(M, 4), (M, 4), (M, 2), (M, 2)]


def test_curve_residuals_name_the_summary_invariants(gaussian_curve):
    res = gaussian_curve.residuals()
    assert list(res) == ["unitarity_residual", "delay_reality_residual",
                         "birman_krein_residual"]
    assert all(type(v) is float for v in res.values())
    assert res["unitarity_residual"] <= 1e-8 and res["birman_krein_residual"] <= 1e-6


def test_subnormal_distance_from_a_node_warns_nothing(gaussian_model):
    # c's odd series replaces the overflowing 1/(k - x) entry at the node
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = fr.s_matrix(gaussian_model, 5e-324)
        fr.s_matrix_chain(gaussian_model, 5e-324)
    assert abs(s - fr.s_matrix(gaussian_model, 0.0)) <= 1e-12
