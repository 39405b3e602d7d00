"""Numerical workbench for rank-finite perturbations of the position operator."""

from ._errors import (
    PointSpectrumProximity,
    StateNotAdmissible,
    ToleranceError,
    ValidationError,
)
from .grid import (
    CompactSupportCertificate,
    GridFunction,
    GridSpec,
    Representation,
    certify_support,
    derivative,
    evaluate_many,
    grid_function,
    inner_product,
    make_grid,
    norm,
    sobolev_norm,
    transform,
)
from .localization import LocalizationProfile, make_localization
from .states import (
    MomentumDensity,
    bump_state,
    gaussian_momentum_density,
    gaussian_state,
    hermite_state,
    indicator_momentum_density,
    momentum_indicator_state,
)
from .resolvent import (
    BoundaryData,
    FiniteRankModel,
    PointSpectrum,
    Side,
    boundary_matrix,
    finite_rank_model,
    perturbation_determinant,
    point_spectrum,
    pv_integral,
    resolvent_matrix,
)
from .scattering import (
    ScatteringCurve,
    apply_scattering,
    compute_curve,
    ew_time_delay,
    s_matrix,
    s_matrix_chain,
    s_prime,
    spectral_shift_density_determinant,
    state_support,
)
from .dynamics import (
    Propagator,
    SojournRecord,
    build_propagator,
    evolve,
    propagation_functional,
    sojourn,
    time_delay_sweep,
    wave_operator,
)

__version__ = "0.1.0"
