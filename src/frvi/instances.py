"""Shipped test problems.

Small, deterministic instances used by the test suite, the studies and the
CLI examples.  Data scales are chosen so that the penalty-floor bias
(feasibility overshoot ~ eps_min * log(1 + lambda), an absolute quantity
invariant under joint scaling of f and g) sits far below the
scale-proportional acceptance bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fields import ScalarField, lp_norm, make_grid, mask_box, scalar_field
from .qvi import (
    FracGradKernelOperator,
    IntegralGamma,
    KernelIntegralOperator,
    OuterFunction,
    QVIProblem,
    SeparatedOperator,
    SuperpositionOperator,
    ThresholdOperator,
    estimate_poincare_constant,
    estimate_sobolev_constant,
    sobolev_exponents,
)
from .vi import (
    EllipticCoefficients,
    PenaltyConfig,
    ProblemData,
    Threshold,
    identity_coefficients,
)

VI_CFG = PenaltyConfig(newton_tol=2e-5)
QVI_INNER_CFG = PenaltyConfig(newton_tol=1e-7)
QVI_OUTER_TOL = 1e-6


def _box_problem(dim, extent, n, omega, sigma, f_value, g_value) -> ProblemData:
    grid = make_grid(dim, extent, n)
    mask = mask_box(grid, omega)
    f = ScalarField(grid, np.where(mask.inside, float(f_value), 0.0))
    thr = Threshold(scalar_field(grid, float(g_value)), float(g_value))
    return ProblemData(mask, sigma, identity_coefficients(grid), f, thr)


@lru_cache(maxsize=None)
def binding_1d() -> ProblemData:
    """1D constraint-active instance: f = 100 on (-1,1), g = 150
    (~0.70 of the unconstrained gradient peak 213.3)."""
    return _box_problem(1, 2.0, 128, 1.0, 0.5, 100.0, 150.0)


@lru_cache(maxsize=None)
def small_binding_1d() -> ProblemData:
    """f = 10 variant with mild binding (g at ~0.85 of the peak 21.33)."""
    return _box_problem(1, 2.0, 128, 1.0, 0.5, 10.0, 18.1)


@lru_cache(maxsize=None)
def inactive_1d() -> ProblemData:
    """1D instance whose constraint never activates (g above the peak)."""
    return _box_problem(1, 2.0, 128, 1.0, 0.5, 100.0, 280.0)


@lru_cache(maxsize=None)
def binding_2d() -> ProblemData:
    """2D constraint-active instance at 64^2 (961 interior nodes)."""
    return _box_problem(2, 2.0, 64, 1.0, 0.4, 200.0, 187.0)


@lru_cache(maxsize=None)
def nonsymmetric_2d() -> ProblemData:
    """binding_2d with a constant skew part added to the coefficients."""
    base = binding_2d()
    grid = base.grid
    vals = np.zeros(grid.shape + (2, 2))
    vals[..., 0, 0] = 1.0
    vals[..., 1, 1] = 1.0
    vals[..., 0, 1] = 0.3
    vals[..., 1, 0] = -0.3
    A = EllipticCoefficients(grid, vals, a_star=1.0, a_upper=1.4)
    return ProblemData(base.mask, base.sigma, A, base.f, base.g)


def symmetric_instances() -> list:
    return [("binding_1d", binding_1d()), ("inactive_1d", inactive_1d()),
            ("binding_2d", binding_2d())]


# -- QVI instances -------------------------------------------------------------


@dataclass(frozen=True)
class QVIInstance:
    name: str
    problem: QVIProblem
    operator: ThresholdOperator


def _qvi_base() -> QVIProblem:
    base = binding_1d()
    return QVIProblem(base.mask, base.sigma, base.A, base.f)


def estimated_constants_1d() -> tuple:
    """(sobolev C*, poincare C_P) for the 1D mask, both certified upper
    bounds from the restricted Gram matrix."""
    base = binding_1d()
    return (estimate_sobolev_constant(base.mask, base.sigma),
            estimate_poincare_constant(base.mask, base.sigma))


@lru_cache(maxsize=None)
def qvi_kernel_1d() -> QVIInstance:
    """Kernel-integral operator: smooth averaging kernel, quadratic outer map."""
    prob = _qvi_base()
    outer = OuterFunction(nu=150.0, coeff=0.002, ramp="square")
    return QVIInstance("qvi_kernel_1d", prob,
                       KernelIntegralOperator.gaussian(prob.mask, 0.5, outer))


@lru_cache(maxsize=None)
def qvi_fracgrad_1d() -> QVIInstance:
    """Gradient-kernel operator: localized vector kernel against D^sigma u."""
    prob = _qvi_base()
    outer = OuterFunction(nu=150.0, coeff=0.0005, ramp="abs")
    return QVIInstance("qvi_fracgrad_1d", prob, FracGradKernelOperator.gaussian(
        prob.mask, prob.sigma, 0.3, outer))


@lru_cache(maxsize=None)
def qvi_superposition_1d() -> QVIInstance:
    """Superposition operator: threshold raised by the local solution value."""
    prob = _qvi_base()
    outer = OuterFunction(nu=150.0, coeff=0.01, ramp="square")
    return QVIInstance("qvi_superposition_1d", prob, SuperpositionOperator(outer))


@lru_cache(maxsize=None)
def qvi_separated_certified() -> QVIInstance:
    """Separated-form operator engineered to sit at contraction factor
    q = 0.5: the integral functional's weight c1 is solved from the
    certified embedding constants so the certificate lands on target."""
    prob = _qvi_base()
    c_star, c_poincare = estimated_constants_1d()
    _, two_sharp = sobolev_exponents(1, prob.sigma)
    f_norm = lp_norm(prob.f, two_sharp, prob.mask)
    c_sharp = c_star / prob.A.a_star
    target_ratio = 0.5 / (2.0 * c_sharp * f_norm)  # required lip/floor
    # lip = c1 beta and floor = 1 + c1 |Omega|, beta read off at c1 = 1
    beta = IntegralGamma(1.0, 1.0, prob.mask, prob.sigma, c_poincare).lip(0.0)
    vol = prob.mask.volume
    c1 = target_ratio / (beta - target_ratio * vol)
    gamma = IntegralGamma(1.0, c1, prob.mask, prob.sigma, c_poincare)
    phi = scalar_field(prob.mask.grid, 147.0)
    return QVIInstance("qvi_separated_certified", prob,
                       SeparatedOperator(phi, gamma))


def qvi_instances() -> list:
    return [qvi_kernel_1d(), qvi_fracgrad_1d(), qvi_superposition_1d(),
            qvi_separated_certified()]
