"""Translation surfaces in the upper half-space model: group structure,
surface jets, soliton residuals, profile ODEs, and deterministic exports."""

from .errors import (
    DegenerateJetError,
    DomainError,
    ParameterError,
    SamplingError,
)
from .lie_halfspace import (
    IDENTITY,
    lie_inverse,
    lie_product,
    rotation_about_vertical,
    semidirect_product,
    semidirect_to_halfspace,
)
from .profile_odes import (
    ConformalProfileParams,
    GrimReaperParams,
    MinimalProfileParams,
    ProfileSolution,
    conformal_halfwidth_quadrature,
    integrate_conformal_profile,
    integrate_grim_reaper,
    integrate_minimal_profile,
    minimal_halfwidth_quadrature,
)
from .soliton_residuals import (
    ResidualReport,
    SolitonMode,
    reduced_residual_first_kind,
    reduced_residual_second_kind,
    residual,
    residual_report,
)
from .surface_factory import (
    GridSpec,
    SurfaceFamily,
    grid_axes,
    make_conformal_cylinder,
    make_generic_first_kind,
    make_generic_second_kind,
    make_grim_reaper,
    make_horosphere,
    make_minimal_cylinder,
    make_vertical_plane,
    perturb_profile,
    sample_grid,
)
from .surface_jets import (
    finite_difference_jet,
    first_kind_jet,
    mean_curvature,
    product_surface_jet,
    second_kind_jet,
    unit_normal,
)

__version__ = "0.1.0"
