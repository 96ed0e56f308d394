"""Solvers for variational and quasi-variational inequalities constrained
through the fractional gradient, on periodic-box discretizations."""

from .fields import (
    DomainMask,
    Grid,
    ScalarField,
    VectorField,
    full_torus,
    inner,
    lp_norm,
    make_grid,
    mask_box,
    read_fvf,
    scalar_field,
    write_fvf,
    zero_field,
)
from .fracgrad import (
    FracOrder,
    frac_divergence,
    frac_gradient,
    frac_laplacian,
    gradient_matrix,
    gradient_rows,
    gram_matrix,
    hsigma_norm,
    quadrature_frac_gradient,
    random_band_limited,
    riesz_constant,
    riesz_potential,
)
from .vi import (
    EllipticCoefficients,
    PenaltyConfig,
    ProblemData,
    SolverDivergence,
    Threshold,
    VISolution,
    energy,
    extract_multiplier,
    feasibility_violation,
    identity_coefficients,
    multiplier_equation_residual,
    penalized_residual,
    penalty_value,
    sample_feasible,
    shrink_to_feasible,
    solve_penalized,
    solve_vi,
    vi_residual,
)
from .oracle import oracle_solve_pde, oracle_solve_vi
from .qvi import (
    ConstantGamma,
    ContractionReport,
    FracGradKernelOperator,
    GammaFunctional,
    IntegralGamma,
    KernelIntegralOperator,
    OuterFunction,
    QVIProblem,
    QVISolution,
    SeparatedOperator,
    SuperpositionOperator,
    ThresholdOperator,
    contraction_certificate,
    estimate_poincare_constant,
    estimate_sobolev_constant,
    estimate_sup_constant,
    sobolev_exponents,
    solve_qvi,
)
from .studies import (
    StudyReport,
    holder_study_g,
    lipschitz_study_f,
    mosco_diagnostic,
    penalty_trace_study,
    sigma_limit_study,
)

__all__ = [name for name in dir() if not name.startswith("_")]
