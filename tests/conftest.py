import numpy as np
import pytest

import friedrichs as fr


@pytest.fixture(scope="session")
def grid():
    return fr.make_grid(16.0, 2048)


@pytest.fixture(scope="session")
def coarse_grid():
    return fr.make_grid(16.0, 512)


@pytest.fixture(scope="session")
def gaussian_model(grid):
    """Rank-one model with a unit Gaussian vector, coupling 1."""
    from friedrichs.resolvent import finite_rank_model

    v = fr.gaussian_state(grid)
    return finite_rank_model(grid, [v], [1.0])


@pytest.fixture(scope="session")
def rank2_model(grid):
    """Rank-two model: first two Hermite functions, mixed couplings."""
    from friedrichs.resolvent import finite_rank_model

    v0 = fr.hermite_state(grid, 0)
    v1 = fr.hermite_state(grid, 1)
    return finite_rank_model(grid, [v0, v1], [0.8, -0.5])


@pytest.fixture(scope="session")
def gaussian_curve(gaussian_model):
    from friedrichs.scattering import compute_curve

    return compute_curve(gaussian_model, (-6.0, 6.0), 1001)


@pytest.fixture(scope="session")
def gaussian_propagator(gaussian_model):
    from friedrichs.dynamics import build_propagator

    return build_propagator(gaussian_model)


@pytest.fixture(scope="session")
def free_propagator(grid):
    """The rank-0 propagator: free evolution under H0 = Q."""
    from friedrichs.dynamics import build_propagator
    from friedrichs.resolvent import finite_rank_model

    return build_propagator(finite_rank_model(grid, [], []))


@pytest.fixture(scope="session")
def full_width_determinant():
    """D(x +- i0) at a 1-D array of energies from dense projections over
    every momentum coefficient and node: the full-width reference the banded
    determinants are checked against, independent of their band cut."""
    from friedrichs.resolvent import _dense_blocks, _determinant

    def determinant(model, xs, side):
        xs = np.asarray(xs, dtype=float)
        return np.concatenate([_determinant(model, proj, side)
                               for _, proj in _dense_blocks(model.grid, xs)])

    return determinant


def rng(seed):
    return np.random.default_rng(seed)
