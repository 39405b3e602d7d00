"""Grid, transform, and certificate behavior.

Oracle notes: the unit Gaussian has the closed-form transform
(F phi)(k) = pi^{-1/4} exp(-k^2/2); Parseval and node-interpolation
identities are exact for band-limited data, so tolerances are near
machine epsilon.
"""

import math
import sys

import numpy as np
import pytest

import friedrichs as fr
from friedrichs import Representation, StateNotAdmissible, ValidationError


def test_grid_nodes_and_weights(grid):
    x = grid.position_nodes()
    k = grid.momentum_nodes()
    assert x[0] == -16.0
    assert x.size == 2048
    assert np.allclose(np.diff(x), grid.spacing)
    assert np.allclose(np.diff(k), grid.momentum_spacing)
    assert k[1024] == 0.0  # zero momentum is a node
    assert math.isclose(grid.momentum_cutoff, math.pi / grid.spacing)


def test_nodes_are_one_read_only_array_per_grid():
    g = fr.make_grid(16.0, 512)
    x, k = g.position_nodes(), g.momentum_nodes()
    assert x is g.position_nodes() and k is g.momentum_nodes()
    assert not x.flags.writeable and not k.flags.writeable
    assert np.array_equal(x, -16.0 + g.spacing * np.arange(512))
    assert np.array_equal(k, g.momentum_spacing * np.arange(-256, 256))
    # the kept arrays take no part in equality or hashing
    fresh = fr.make_grid(16.0, 512)
    assert fresh == g and hash(fresh) == hash(g)


def test_grid_validation():
    with pytest.raises(ValidationError):
        fr.make_grid(-1.0, 2048)
    with pytest.raises(ValidationError):
        fr.make_grid(16.0, 1000)  # not a power of two
    with pytest.raises(ValidationError):
        fr.make_grid(16.0, 2)


def test_transform_unitary_roundtrip(grid):
    gen = np.random.default_rng(7)
    s = gen.standard_normal(2048) + 1j * gen.standard_normal(2048)
    phi = fr.grid_function(grid, s)
    ph = fr.transform(phi)
    assert ph.representation is Representation.MOMENTUM
    assert math.isclose(fr.norm(ph), fr.norm(phi), rel_tol=1e-13)
    back = fr.transform(ph)
    assert np.max(np.abs(back.samples - phi.samples)) < 1e-12 * np.max(np.abs(s))


def test_transform_gaussian_closed_form(grid):
    phi = fr.gaussian_state(grid)
    ph = fr.transform(phi)
    k = grid.momentum_nodes()
    ref = math.pi ** -0.25 * np.exp(-0.5 * k * k)
    assert np.max(np.abs(ph.samples - ref)) < 1e-14


def test_transform_shift_phase(grid):
    # translating by a gives a phase exp(-i k a) on the transform
    a = 0.75
    phi = fr.gaussian_state(grid)
    shifted = fr.gaussian_state(grid, center=a)
    k = grid.momentum_nodes()
    lhs = fr.transform(shifted).samples
    rhs = np.exp(-1j * k * a) * fr.transform(phi).samples
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_inner_product_conventions(grid):
    phi = fr.gaussian_state(grid)
    psi = fr.hermite_state(grid, 1)
    ip = fr.inner_product(phi, psi)
    assert abs(ip) < 1e-14  # parity
    # conjugate linearity in the first slot
    z = 0.3 + 0.4j
    phi_z = fr.grid_function(grid, z * phi.samples)
    psi_z = fr.grid_function(grid, z * psi.samples)
    h2 = fr.hermite_state(grid, 2)
    base = fr.inner_product(phi, h2)
    assert np.isclose(fr.inner_product(phi_z, h2), np.conj(z) * base)
    ph2 = fr.grid_function(grid, z * h2.samples)
    assert np.isclose(fr.inner_product(phi, ph2), z * base)


def test_inner_product_representation_mismatch(grid):
    phi = fr.gaussian_state(grid)
    ph = fr.transform(phi)
    with pytest.raises(ValidationError):
        fr.inner_product(phi, ph)


def test_parseval(grid):
    gen = np.random.default_rng(21)
    for seed_shift in range(3):
        s = gen.standard_normal(2048) * np.exp(-np.abs(np.linspace(-4, 4, 2048)))
        phi = fr.grid_function(grid, s)
        assert math.isclose(fr.norm(fr.transform(phi)), fr.norm(phi), rel_tol=1e-12)


def test_sobolev_norm_reduces_to_plain_norm(grid):
    phi = fr.gaussian_state(grid)
    assert math.isclose(fr.sobolev_norm(phi, 0.0), fr.norm(phi), rel_tol=1e-13)


def test_sobolev_norm_gaussian_value(grid):
    # <P^2> = 1/2 for the unit Gaussian, so
    # ||phi||_1^2 = <phi, (1+P^2) phi> = 3/2
    phi = fr.gaussian_state(grid)
    val = fr.sobolev_norm(phi, 1.0)
    assert math.isclose(val, math.sqrt(1.5), rel_tol=1e-12)


def test_evaluate_at_between_nodes(grid):
    # band-limited interpolation is exact for a pure momentum node mode
    k = grid.momentum_nodes()
    x = grid.position_nodes()
    mode = np.exp(1j * k[1030] * x) * np.exp(-0.5 * x * x)
    phi = fr.grid_function(grid, mode)
    pts = np.array([-3.21, -0.077, 0.5, 2.925])
    ref = np.exp(1j * k[1030] * pts) * np.exp(-0.5 * pts * pts)
    got = fr.evaluate_many(phi, pts)
    assert np.max(np.abs(got - ref)) < 1e-12


def test_a_state_is_transformed_once(grid, monkeypatch):
    # repeated point values and the model's stacked coefficients read the
    # coefficients a state keeps, read-only, from its one transform; every
    # binding of transform in the package is counted
    from friedrichs import grid as grid_module

    calls, transform = [], grid_module.transform

    def counted(phi):
        calls.append(phi)
        return transform(phi)

    for name, module in list(sys.modules.items()):
        if name.startswith("friedrichs") and getattr(module, "transform", None) is transform:
            monkeypatch.setattr(module, "transform", counted)
    vecs = [fr.hermite_state(grid, j) for j in range(2)]
    for x in (0.3, -1.1, 0.3):
        for v in vecs:
            fr.evaluate_many(v, [x])[0]
    assert len(calls) == 2 and all(a is b for a, b in zip(calls, vecs))
    fr.finite_rank_model(grid, vecs, [0.8, -0.5]).vectors_momentum
    assert len(calls) == 2
    coeffs = grid_module._as_momentum(vecs[0])
    assert not coeffs.flags.writeable
    with pytest.raises(ValueError):
        coeffs[0] = 1.0
    assert np.array_equal(coeffs, transform(vecs[0]).samples)


def test_a_row_costs_two_short_phase_tables(grid, monkeypatch):
    # M/J + J = 32 + 64 exponentials for one energy at M = 2048, not M
    from friedrichs import grid as grid_module

    sizes = []

    class Counting:
        def __getattr__(self, name):
            return getattr(np, name)

        def exp(self, z, *args, **kwargs):
            sizes.append(np.size(z))
            return np.exp(z, *args, **kwargs)

    monkeypatch.setattr(grid_module, "np", Counting())
    row = grid_module.evaluation_matrix(grid, 0.37)
    assert row.shape == (1, grid.points) and sum(sizes) <= 128


@pytest.mark.parametrize("points, pad", [(2048, 10), (16, 1)])
def test_rows_match_exactly_reduced_phases(points, pad):
    # x k_j = pi (x/L) j, with x/L exact for L = 16, reduced mod 2 exactly
    from friedrichs.grid import evaluation_matrix
    from friedrichs.resolvent import _half_turns

    g = fr.make_grid(16.0, points)
    L, h, scale = g.half_width, g.spacing, g.momentum_spacing / math.sqrt(2.0 * math.pi)
    xs = np.random.default_rng(23).uniform(-L + pad * h, L - pad * h, 200)
    j = np.arange(-points // 2, points // 2)
    ref = scale * np.array([_half_turns(x / L, j) for x in xs])
    bound = 8.0 * np.finfo(float).eps * (1.0 + np.abs(xs).max() * g.momentum_cutoff) * scale
    assert np.max(np.abs(evaluation_matrix(g, xs) - ref)) <= bound


def test_rows_of_no_energies_and_of_the_smallest_grid():
    from friedrichs.grid import evaluation_matrix

    g = fr.make_grid(16.0, 4)
    assert evaluation_matrix(g, []).shape == (0, 4)
    xs = np.array([-7.5, 0.3, 11.0])
    direct = g.momentum_spacing / math.sqrt(2.0 * math.pi) * np.exp(
        1j * np.outer(xs, g.momentum_nodes()))
    assert np.max(np.abs(evaluation_matrix(g, xs) - direct)) <= 1e-15


def test_a_column_band_is_bitwise_the_full_rows_columns(grid):
    from friedrichs.grid import evaluation_matrix

    xs = [-3.3, 0.0, 0.37, 5e-324, 11.9]
    full = evaluation_matrix(grid, xs)
    for lo, hi in ((963, 1086), (0, 2048), (1, 2048), (1024, 1025), (64, 128), (5, 5)):
        assert np.array_equal(evaluation_matrix(grid, xs, slice(lo, hi)), full[:, lo:hi])


def test_evaluate_many_requires_position_rep(grid):
    # one point and an array reach the same refusal, which names evaluate_many;
    # a point outside the box is refused by name
    phi = fr.transform(fr.gaussian_state(grid))
    for call in (lambda: fr.evaluate_many(phi, [0.0])[0], lambda: fr.evaluate_many(phi, [0.0])):
        with pytest.raises(ValidationError, match="^evaluate_many expects a position-"):
            call()
    psi = fr.gaussian_state(grid)
    with pytest.raises(ValidationError, match="^evaluation point 17 outside"):
        fr.evaluate_many(psi, [17.0])[0]


def test_derivative_spectral(grid):
    phi = fr.gaussian_state(grid)
    x = grid.position_nodes()
    d1 = fr.derivative(phi, 1)
    assert np.max(np.abs(d1.samples + x * phi.samples)) < 1e-12
    d2 = fr.derivative(phi, 2)
    ref2 = (x * x - 1.0) * phi.samples
    assert np.max(np.abs(d2.samples - ref2)) < 1e-11


def test_boundary_decay(grid):
    from friedrichs.grid import boundary_decay

    phi = fr.gaussian_state(grid)
    assert boundary_decay(phi) < 1e-14
    wide = fr.gaussian_state(grid, width=8.0)
    assert boundary_decay(wide) > 1e-3


def test_certificate_accepts_true_support(grid):
    b = fr.bump_state(grid, (0.25, 0.75))
    cert = fr.certify_support(b, (0.25, 0.75))
    assert cert.support == (0.25, 0.75)
    assert np.isfinite(cert.sobolev)


def test_certificate_rejects_leaky_state(grid):
    phi = fr.gaussian_state(grid)  # full-line support
    with pytest.raises(StateNotAdmissible):
        fr.certify_support(phi, (-1.0, 1.0))


def test_an_overflowing_sobolev_norm_is_refused_by_the_certificate(grid):
    # at s = 200 the weighted coefficients overflow; the norm reports that
    # as a value, and certify_support names it
    b = fr.bump_state(grid, (0.25, 0.75))
    with np.errstate(over="ignore", invalid="ignore"):
        assert not math.isfinite(fr.sobolev_norm(b, 200.0))
        with pytest.raises(StateNotAdmissible, match="Sobolev norm at s = 200.0 is not finite"):
            fr.certify_support(b, (0.25, 0.75), s=200.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_overflowing_sobolev_norm_reads_inf_without_a_warning(grid):
    # at s = 200 exactly-zero momentum coefficients of the Gaussian meet an
    # infinite weight; the norm is inf, and the certificate names it
    phi = fr.gaussian_state(grid)
    assert fr.sobolev_norm(phi, 200.0) == math.inf
    with pytest.raises(StateNotAdmissible, match="Sobolev norm at s = 200.0 is not finite"):
        fr.certify_support(phi, (-15.0, 15.0), s=200.0)


def test_certificate_rejects_excluded_point_overlap(grid):
    b = fr.bump_state(grid, (0.25, 0.75))
    with pytest.raises(StateNotAdmissible):
        fr.certify_support(b, (0.25, 0.75), excluded=((0.5, 0.1),))
    # exclusion far away is fine
    fr.certify_support(b, (0.25, 0.75), excluded=((3.0, 0.5),))
