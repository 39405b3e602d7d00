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


def rng(seed):
    return np.random.default_rng(seed)
