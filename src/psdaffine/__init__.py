"""Affine processes on positive semidefinite matrices: admissible parameter
sets, generalized Riccati transforms, closed-form MBAJD/Wishart formulas and
Monte Carlo cross-checks."""

from ._dopri5 import NoDenseOutputError, StepBudgetError
from .closedform import (
    MBAJDSpec,
    flow_omega,
    mbajd_grid,
    mbajd_phi,
    mbajd_psi,
    mbajd_transform,
    sigma_integral,
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
    MCEstimate,
    SimConfig,
    diffusion_factor,
    estimate_transform,
    estimate_transforms,
    simulate_paths,
)
from .riccati import (
    BlowUpError,
    BoundaryLimitResult,
    DegenerateAlphaWarning,
    RiccatiSolution,
    boundary_limit,
    generator_exp,
    solve,
    solve_boundary,
    solve_grid,
    transform,
    transform_grid,
)
from .symcore import (
    DomainError,
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
