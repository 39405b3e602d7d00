"""State family contracts: norms, supports, analytic momentum content."""

import math

import numpy as np
import pytest

import friedrichs as fr
from friedrichs import ValidationError


def test_gaussian_norm_and_moment(grid):
    phi = fr.gaussian_state(grid, center=0.3, width=0.8, momentum=1.2)
    assert math.isclose(fr.norm(phi), 1.0, rel_tol=1e-13)
    ph = fr.transform(phi)
    k = grid.momentum_nodes()
    dens = np.abs(ph.samples) ** 2
    mean_k = grid.momentum_spacing * np.sum(k * dens)
    assert math.isclose(mean_k, 1.2, rel_tol=1e-10)


def test_gaussian_momentum_density_matches_grid(grid):
    # the grid density of the state has the analytic density's mass, mean
    # and variance scale^2
    dens = fr.gaussian_momentum_density(momentum=1.5, width=0.9)
    ongrid = np.abs(fr.transform(fr.gaussian_state(grid, 0.0, 0.9, 1.5)).samples) ** 2
    k, dk = grid.momentum_nodes(), grid.momentum_spacing
    mass = dk * np.sum(ongrid)
    mean = dk * np.sum(k * ongrid)
    var = dk * np.sum((k - dens.mean) ** 2 * ongrid)
    assert dens.family == "gaussian"
    assert abs(mass - 1.0) < 1e-14
    assert abs(mean - dens.mean) < 1e-14 and dens.mean == 1.5
    assert abs(var - dens.scale ** 2) < 1e-14


def test_hermite_orthonormal(grid):
    hs = [fr.hermite_state(grid, n) for n in range(5)]
    for i, hi in enumerate(hs):
        for j, hj in enumerate(hs):
            ip = fr.inner_product(hi, hj)
            assert abs(ip - (1.0 if i == j else 0.0)) < 1e-12


def test_hermite_eigenfunction_of_transform(grid):
    # F h_n = (-i)^n h_n; the transform lives on momentum nodes, so the
    # reference is h_n interpolated at those nodes (band-limited
    # interpolation of the position samples is exact to ~1e-13 here)
    k = grid.momentum_nodes()
    mask = np.abs(k) < 12.0
    for n in range(4):
        hn = fr.hermite_state(grid, n)
        ft = fr.transform(hn)
        ref = (-1j) ** n * fr.evaluate_many(hn, k[mask])
        assert np.max(np.abs(ft.samples[mask] - ref)) < 1e-12
        assert np.max(np.abs(ft.samples[~mask])) < 1e-12  # Gaussian tail


def test_bump_state_support_and_norm(grid):
    b = fr.bump_state(grid, (0.25, 0.75))
    x = grid.position_nodes()
    assert math.isclose(fr.norm(b), 1.0, rel_tol=1e-13)
    outside = (x < 0.25) | (x > 0.75)
    assert np.all(b.samples[outside] == 0.0)
    fr.certify_support(b, (0.25, 0.75))


def test_bump_momentum_decay(grid):
    # the truncated-Gaussian window keeps momentum content inside the
    # grid band: what matters for aliasing is the mass near the cutoff
    b = fr.bump_state(grid, (0.25, 0.75))
    ph = fr.transform(b)
    k = grid.momentum_nodes()
    edge = np.abs(k) > 0.9 * grid.momentum_cutoff
    assert np.max(np.abs(ph.samples[edge])) < 1e-7
    edge_mass = grid.momentum_spacing * np.sum(np.abs(ph.samples[edge]) ** 2)
    assert edge_mass < 1e-14


def test_momentum_indicator(grid):
    mi = fr.momentum_indicator_state(grid, (1.0, 2.0))
    assert math.isclose(fr.norm(mi), 1.0, rel_tol=1e-13)
    k = grid.momentum_nodes()
    inside = (k >= 1.0) & (k < 2.0)
    assert np.all(mi.samples[~inside] == 0.0)
    vals = mi.samples[inside]
    assert np.allclose(vals, vals[0])


def test_indicator_momentum_density():
    # a band is flat on mean +- scale
    dens = fr.indicator_momentum_density((1.0, 2.0))
    assert (dens.family, dens.mean, dens.scale) == ("band", 1.5, 0.5)
    wide = fr.indicator_momentum_density((0.5, 3.0))
    assert (wide.mean, wide.scale) == (1.75, 1.25)


@pytest.mark.parametrize("family, mean, scale, cause", [
    ("bnad", 1.5, 0.5, "density family must be gaussian or band"),
    ("band", math.nan, 0.5, "density mean must be finite"),
    ("gaussian", 1.5, math.nan, "density scale must be positive"),
    ("gaussian", 1.5, 0.0, "density scale must be positive"),
    ("gaussian", 1.5, -0.5, "density scale must be positive"),
])
def test_a_direct_momentum_density_is_refused_by_name(family, mean, scale, cause):
    with pytest.raises(ValidationError, match=cause):
        fr.MomentumDensity(family, mean, scale)


def test_state_validation(grid):
    with pytest.raises(ValidationError):
        fr.gaussian_state(grid, width=0.0)
    with pytest.raises(ValidationError):
        fr.hermite_state(grid, -1)
    with pytest.raises(ValidationError):
        fr.bump_state(grid, (1.0, 0.5))
    with pytest.raises(ValidationError):
        fr.momentum_indicator_state(grid, (2.0, 1.0))
    # a NaN width passed the old width <= 0 test and the momentum went
    # unchecked: both built NaN samples
    for build, cause in [
        (lambda: fr.gaussian_state(grid, momentum=math.nan), "gaussian momentum must be finite"),
        (lambda: fr.gaussian_state(grid, momentum=-math.inf), "gaussian momentum must be finite"),
        (lambda: fr.gaussian_state(grid, center=math.inf), "gaussian center must be finite"),
        (lambda: fr.gaussian_state(grid, width=math.nan), "gaussian width must be positive"),
        (lambda: fr.gaussian_state(grid, width=math.inf), "gaussian width must be positive"),
        (lambda: fr.hermite_state(grid, 1, center=math.nan), "hermite center must be finite"),
        (lambda: fr.hermite_state(grid, 1, width=math.nan), "hermite width must be positive"),
        (lambda: fr.bump_state(grid, (0.25, math.inf)), "bump support must be finite"),
        (lambda: fr.bump_state(grid, (math.nan, 0.75)), "bump support must be finite"),
    ]:
        with pytest.raises(ValidationError, match=cause):
            build()

