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
import re
import sys
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import friedrichs as fr
from friedrichs import (PointSpectrumProximity, StateNotAdmissible, ToleranceError,
                        ValidationError, scattering)
from friedrichs import resolvent
from friedrichs.resolvent import _boundary_batch, _ChirpProjection, _cut_det

from conftest import _band_models, full_width_boundary, full_width_stationary

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


def test_chain_route_agreement(grid, gaussian_model, full_width_determinant):
    # product of boundary-determinant ratios against the direct formula; each
    # side of the chain's shared band cut against the full-width dense
    # determinant of that side, and the chain against the ratio of the two
    couplings = [0.8, -0.5, 0.3]
    xs = [float(x) for x in np.linspace(-5.0, 5.0, 41)]
    models = [gaussian_model] + [
        fr.finite_rank_model(grid, [fr.hermite_state(grid, j) for j in range(n)],
                             couplings[:n]) for n in (1, 2, 3)]
    for model in models:
        worst = max(abs(fr.s_matrix(model, x) - fr.s_matrix_chain(model, x)) for x in xs)
        assert worst < 1e-8
        sides = (full_width_determinant(model, xs, side) for side in ("minus", "plus"))
        for x, lower, upper in zip(xs, *sides):
            for got, want in zip((fr.perturbation_determinant(model, x, side)
                                  for side in ("minus", "plus")), (lower, upper)):
                assert abs(got - want) <= 1e-14 * max(1.0, abs(want))
            assert abs(fr.s_matrix_chain(model, x) - lower / upper) <= 1e-13


@pytest.mark.parametrize("points", [2048, 8192])
def test_node_reads_match_the_full_width_route(points):
    # r1 and r2 by the node FFTs, and the stationary W- phi they feed, on the
    # band models against dense rows over every coefficient and node, at the
    # sweep bump's support nodes and every 16th node of the box (measured
    # at most 3.1e-15 relative); the reference's a_k come from its own X
    g = fr.make_grid(16.0, points)
    x, phi = g.position_nodes(), fr.bump_state(g, (0.25, 0.75))
    on = scattering._support_nodes(phi)
    nodes = np.union1d(on, np.arange(0, points, 16))
    for model in _band_models(g):
        lam, vm = model.coupling_array(), model.vector_matrix()
        for n in (0, 1):
            dens = model.pair_densities(n)[0]
            got = resolvent._node_boundary(g, dens, resolvent.Side.PLUS)[nodes]
            want = full_width_boundary(g, dens, x[nodes], "plus")
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        w = vm[:, on].T.conj() * lam
        X = full_width_stationary(model, x[on])["X"]
        amp = np.zeros((points, model.rank), dtype=complex)
        amp[on] = phi.samples[on, None] * (w - lam * np.einsum("ekj,ej->ek", X, w))
        want = phi.samples[nodes] + np.sum(
            vm[:, nodes].T * full_width_boundary(g, amp, x[nodes], "minus"), axis=1)
        got = scattering._state_scattering(model, phi, ())[3].samples[nodes]
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("points", [2048, 16384])
def test_state_scattering_takes_v_prime_on_the_vectors_band(points, monkeypatch):
    # Hermite 0 has v' = -x v: the derivative cut on the vectors' momentum
    # band reads 3.0e-16 and 4.3e-16 of max|v'| at the bump's support nodes;
    # over every coefficient it carried round-off amplified by |k|, 4.4e-14
    # and 3.1e-13
    g = fr.make_grid(16.0, points)
    model = fr.finite_rank_model(g, [fr.hermite_state(g, 0)], [0.8])
    phi, batch, seen = fr.bump_state(g, (0.25, 0.75)), scattering._stationary_batch, []

    def spied(model, xs, r1, r2, v, d1):
        seen.append(d1[:, 0])
        return batch(model, xs, r1, r2, v, d1)

    monkeypatch.setattr(scattering, "_stationary_batch", spied)
    scattering._state_scattering(model, phi, ())
    x, v = g.position_nodes(), model.vector_matrix()[0]
    on = scattering._support_nodes(phi)
    assert np.max(np.abs(seen[0] - (-x * v)[on])) <= 1e-15 * np.max(np.abs(x * v))


@pytest.mark.parametrize("points", [2048, 8192])
def test_off_grid_assembly_matches_the_full_width_route(points):
    # band rows for r1, r2, v and v' against dense rows over every
    # coefficient and node, relative to each quantity's largest value
    # (measured S, X, xi' 4.7e-15; S', theta' 6.2e-14)
    g = fr.make_grid(16.0, points)
    es = np.concatenate([[float(g.position_nodes()[points // 2 + 3]), 5e-324, -1.37, 2.9],
                         np.random.default_rng(41).uniform(-6.0, 6.0, 20)])
    for model in _band_models(g):
        got, want = scattering._stationary_at(model, es), full_width_stationary(model, es)
        for key, tol in (("s", 1e-14), ("X", 1e-14), ("xi_det", 1e-14),
                         ("s_prime", 1e-13), ("delay", 1e-13)):
            assert np.max(np.abs(got[key] - want[key])) <= tol * np.max(np.abs(want[key])), key


def test_a_number_and_an_array_assemble_bitwise_alike():
    # each energy of an array is read by its own band rows, so S, S' and
    # the determinant-route xi' at a number are the same bits as at that
    # energy inside an array
    g = fr.make_grid(16.0, 2048)
    x = g.position_nodes()
    es = np.array([x[1024], x[1027], x[700], 5e-324, -1.37, 2.9])
    for model in _band_models(g):
        batch = scattering._stationary_at(model, es)
        xi = fr.spectral_shift_density_determinant(model, es)
        for i, e in enumerate(es.tolist()):
            assert fr.s_matrix(model, e) == batch["s"][i]
            assert fr.s_prime(model, e) == batch["s_prime"][i]
            assert fr.spectral_shift_density_determinant(model, e)[0] == xi[i]


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
    xs = np.array([0.0, 0.7, -1.9])
    det_route = fr.spectral_shift_density_determinant(gaussian_model, xs)
    for x, xi in zip(xs, det_route):
        assert abs(xi - (-_delay_from_pointwise(gaussian_model, x) /
                         (2.0 * math.pi))) < 1e-8


def test_the_stationary_batch_takes_energies_as_the_determinant_does(rank2_model):
    # no energies give empty results, a 2-D array is refused by name
    xi = fr.spectral_shift_density_determinant(rank2_model, [])
    D = fr.perturbation_determinant(rank2_model, [], "plus")
    assert xi.shape == D.shape == (0,)
    for call in (lambda xs: fr.spectral_shift_density_determinant(rank2_model, xs),
                 lambda xs: fr.perturbation_determinant(rank2_model, xs, "plus")):
        with pytest.raises(ValidationError, match="energies must be a number or a 1-D array"):
            call(np.zeros((2, 2)))


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


@pytest.mark.parametrize("radius", [-1.0, math.nan])
def test_curve_rejects_a_bad_point_spectrum_radius(gaussian_model, radius):
    # a PointSpectrum reads through the same radius check as a list of pairs
    with pytest.raises(ValidationError, match="exclusion radii must be positive"):
        fr.compute_curve(gaussian_model, (-6.0, 6.0), 101,
                         exclusions=fr.PointSpectrum((0.5,), (radius,)))


def test_curve_gates_refuse_a_nan_curve(gaussian_model, monkeypatch):
    # a NaN residual compares false against its bound, so each gate reads
    # "not residual <= bound"
    batch = scattering._stationary_batch

    def nan_s(*args, **kwargs):
        out = batch(*args, **kwargs)
        return dict(out, s=np.full_like(out["s"], math.nan))

    monkeypatch.setattr(scattering, "_stationary_batch", nan_s)
    with pytest.raises(ToleranceError, match="unitarity residual nan"):
        fr.compute_curve(gaussian_model, (-6.0, 6.0), 101)


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
def test_random_hermite_models_keep_their_invariants(coarse_grid, full_width_determinant, rank,
                                                     hermite, center, width, shapes, lams,
                                                     energies):
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
    E, U = prop.eigenvalues, prop.columns(np.arange(g.points))
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
        proj = _ChirpProjection(g, lo, hi, n)
        chirp = _cut_det(model, proj.xs, _boundary_batch(model, proj)[0])
        dense = full_width_determinant(model, np.linspace(lo, hi, n), "plus")
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
    # one plane-wave row for the one energy on the one band: evaluation_matrix's
    # row builder, run once on the band's stored plan
    from friedrichs.grid import _plane_rows

    calls = _count_calls(monkeypatch, _plane_rows)
    fr.s_matrix_chain(rank2_model, 0.3)
    assert calls == ["_plane_rows"]


@pytest.mark.parametrize("points", [2048, 16384])
def test_chain_route_reads_a_column_band_that_does_not_grow_with_M(points, monkeypatch):
    # Hermite 0-2 pair coefficients are above round-off on about 135 of M
    # momentum indices at any M, so the one plane-wave row the chain forms is
    # that wide, not M
    from friedrichs import resolvent

    g = fr.make_grid(16.0, points)
    model = fr.finite_rank_model(g, [fr.hermite_state(g, j) for j in range(3)], [0.8, -0.5, 0.3])
    widths, build = [], resolvent._plane_rows

    def recorded(grid, plan, taus):
        row = build(grid, plan, taus)
        widths.append(row.shape[-1])
        return row

    monkeypatch.setattr(resolvent, "_plane_rows", recorded)
    fr.s_matrix_chain(model, 0.3)
    assert len(widths) == 1 and widths[0] <= 192


def test_chain_route_exponentiates_only_the_blocks_its_band_meets(monkeypatch):
    # numpy as the package sees it, with np.exp counted: one chain call takes
    # one exp, over the J fine phases and the coarse blocks the order-0 band
    # meets, at most J + ceil(band/J) + 1 (68 for Hermite 0-2 at M = 2048,
    # J = 64), where a row over every coarse block up to the band's last took
    # J + last/J (82)
    from friedrichs import grid as grid_module

    g = fr.make_grid(16.0, 2048)
    model = fr.finite_rank_model(g, [fr.hermite_state(g, j) for j in range(3)], [0.8, -0.5, 0.3])
    fr.s_matrix_chain(model, 0.3)                       # the band store, taken once
    exps = []

    def counted(x, *args, **kwargs):
        exps.append(np.size(x))
        return np.exp(x, *args, **kwargs)

    view = types.ModuleType("numpy")
    view.__dict__.update(vars(np))
    view.exp = counted
    for module in (grid_module, resolvent, scattering):
        monkeypatch.setattr(module, "np", view)
    fr.s_matrix_chain(model, -1.1)
    J, cols = g._nodes[2], model.pair_densities(0)[2]
    band = cols.stop - cols.start
    assert (J, band) == (64, 135)
    assert len(exps) == 1 and exps[0] <= J + -(-band // J) + 1 < J + -(-cols.stop // J) == 82


_SCALAR_ROUTES = {
    "s_matrix": fr.s_matrix,
    "s_prime": fr.s_prime,
    "s_matrix_chain": fr.s_matrix_chain,
    "boundary_matrix": lambda model, x: fr.boundary_matrix(model, x, "plus").matrix,
    "pv_integral": lambda model, x: fr.pv_integral(model.vectors[0], x),
}


@pytest.mark.parametrize("route", list(_SCALAR_ROUTES))
def test_single_energy_routes_refuse_an_array_by_name(gaussian_model, route):
    # a float, a numpy scalar and a 0-d array are one energy, read alike; an
    # array of any other shape, one entry long included, is refused as an
    # array, and energies off the box keep their own refusals
    read = _SCALAR_ROUTES[route]
    want = read(gaussian_model, 0.1)
    for x in (np.float64(0.1), np.array(0.1)):
        assert np.array_equal(read(gaussian_model, x), want)
    for x, shape in ((np.array([0.1, 0.2]), "(2,)"), ([0.1, 0.2], "(2,)"), ([0.1], "(1,)"),
                     (np.array([[0.1]]), "(1, 1)")):
        with pytest.raises(ValidationError, match=rf"^energy must be one number, got an array "
                                                  rf"of shape {re.escape(shape)}$"):
            read(gaussian_model, x)
    with pytest.raises(ValidationError, match="^energy nan is not finite$"):
        read(gaussian_model, math.nan)
    with pytest.raises(ValidationError, match="^energy -15.9 is within 10 grid spacings"):
        read(gaussian_model, -15.9)


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
    from friedrichs.grid import _plane_rows

    rows = []

    def recorded(grid, plan, taus):
        row = _plane_rows(grid, plan, taus)
        rows.append((np.size(taus), row.shape[-1]))
        return row

    for module in (resolvent, scattering):
        monkeypatch.setattr(module, "_plane_rows", recorded)
    vecs = [fr.hermite_state(coarse_grid, n) for n in range(2)]
    model = fr.finite_rank_model(coarse_grid, vecs, [0.8, -0.5])
    fr.s_prime(model, 0.3)
    rows.clear()
    fr.s_prime(model, -1.1)
    # one plane-wave row per pair-density order (all 4 pairs, orders 0..1,
    # for r1 and r2) on that order's band, then one for v_j and v_j' at x on
    # the vectors' band
    bands = [model.pair_densities(n)[2] for n in (0, 1)] + [resolvent._band(model.vectors_momentum.T)]
    assert rows == [(1, band.stop - band.start) for band in bands]


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
