"""Affine processes on positive semidefinite matrices: admissible parameter
sets, generalized Riccati transforms, closed-form MBAJD/Wishart formulas and
Monte Carlo cross-checks."""

from ._dopri5 import StepBudgetError
from .closedform import (
    MBAJDSpec,
    flow_omega,
    mbajd_phi,
    mbajd_psi,
    mbajd_transform,
    sigma_integral,
    wishart_transform,
)
from .model import (
    AffineParams,
    AlphaClass,
    AtomicMeasure,
    GeneralDrift,
    LyapunovDrift,
    MatrixAtomicMeasure,
    TruncatedParams,
    detruncate,
    growth_constant,
    inward_pointing_check,
    jump_transform_m,
    jump_transform_mu,
    validate,
)
from .montecarlo import (
    DiffusionFactor,
    MCEstimate,
    SimConfig,
    diffusion_factor,
    estimate_char_function,
    estimate_transform,
    estimate_transforms,
    simulate_paths,
    step,
)
from .riccati import (
    BlowUpError,
    BoundaryLimitResult,
    DegenerateAlphaWarning,
    RiccatiSolution,
    boundary_limit,
    characteristic_function,
    generator_exp,
    rhs_phi,
    rhs_psi,
    solve,
    solve_batches,
    solve_boundary,
    solve_grid,
    transform,
    transform_grid,
)
from .symcore import (
    DomainError,
    Spectrum,
    boundary_pairs,
    csym,
    frobenius,
    is_psd,
    lemma_b_form,
    mat_exp,
    psd_project,
    riccati_quadratic_real,
    spectrum,
    sqrt_psd,
    sym,
    trace_inner,
)

__version__ = "0.1.0"
