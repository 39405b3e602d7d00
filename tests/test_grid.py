"""Grid, transform, and certificate behavior.

Oracle notes: the unit Gaussian has the closed-form transform
(F phi)(k) = pi^{-1/4} exp(-k^2/2); Parseval and node-interpolation
identities are exact for band-limited data, so tolerances are near
machine epsilon.
"""

import math

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


def test_evaluate_at_requires_position_rep(grid):
    phi = fr.transform(fr.gaussian_state(grid))
    with pytest.raises(ValidationError):
        fr.evaluate_at(phi, 0.0)
    psi = fr.gaussian_state(grid)
    with pytest.raises(ValidationError):
        fr.evaluate_at(psi, 17.0)


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


def test_certificate_rejects_excluded_point_overlap(grid):
    b = fr.bump_state(grid, (0.25, 0.75))
    with pytest.raises(StateNotAdmissible):
        fr.certify_support(b, (0.25, 0.75), excluded=((0.5, 0.1),))
    # exclusion far away is fine
    fr.certify_support(b, (0.25, 0.75), excluded=((3.0, 0.5),))
