"""Solution-dependent constraints: threshold operators, the damped Picard
fixed-point driver, certified discrete Sobolev/Poincare constants, and the
contraction certificate for the separated-form operator.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .fields import DomainMask, ScalarField, lp_norm, magnitude
from .fracgrad import grad_arrays, gram_spectrum
from .vi import (
    EllipticCoefficients,
    PenaltyConfig,
    ProblemData,
    SolverDivergence,
    Threshold,
    VISolution,
    continues,
    solve_vi,
)


def sobolev_exponents(dim: int, sigma: float) -> tuple:
    """Embedding exponents (2*, 2#) for the fractional space on Omega.

    Below the critical order 2* = 2N/(N-2 sigma) and 2# its dual
    2N/(N+2 sigma); at the borderline sigma = N/2 any finite exponent is
    admissible and we fix 2* = 8; above it (only N=1, sigma>1/2) the
    sup-norm surrogate (inf, 1) is used.
    """
    if 2.0 * sigma < dim:
        return 2.0 * dim / (dim - 2.0 * sigma), 2.0 * dim / (dim + 2.0 * sigma)
    if 2.0 * sigma == dim:
        return 8.0, 8.0 / 7.0
    return math.inf, 1.0


def _gram_spectrum(mask: DomainMask, sigma: float) -> tuple:
    """gram_spectrum of the mask; ValueError above the dense limit or when M is singular."""
    spectrum = gram_spectrum(mask.grid, sigma, mask.inside.tobytes())
    if spectrum is None:
        raise ValueError("Gram matrix is singular: no Poincare inequality on this mask")
    return spectrum


def estimate_poincare_constant(mask: DomainMask, sigma: float) -> float:
    """Certified upper bound C_P on the discrete constant of ||u||_L2 <= C
    ||u||_Hsigma for u supported in the mask.  With ||u||_Hsigma^2 = h^N x^T
    M x (gram_matrix), C_P^2 = 1/lam_min(M) exactly, attained by the lam_min
    eigenvector; gram_spectrum's lowered lam_min cannot lower the bound."""
    return 1.0 / math.sqrt(_gram_spectrum(mask, sigma)[0])


def estimate_sup_constant(mask: DomainMask, sigma: float) -> float:
    """Certified upper bound C_inf on the discrete constant of
    ||u||_Linf(Omega) <= C ||u||_Hsigma: C_inf^2 = max_i (M^-1)_ii / h^N
    exactly, attained by M^-1 e_i, from the same lowered spectrum."""
    return math.sqrt(_gram_spectrum(mask, sigma)[1] / mask.grid.cell_volume)


def estimate_sobolev_constant(mask: DomainMask, sigma: float) -> float:
    """Certified upper bound on the constant of ||u||_L2* <= C ||u||_Hsigma:
    C_inf when 2* = inf, else C_inf^(1-2/p) C_P^(2/p) with p = 2*, since
    ||u||_p <= ||u||_inf^(1-2/p) ||u||_2^(2/p).  Each estimate raises
    ValueError above the dense limit or when M is singular (a full torus)."""
    two_star, _ = sobolev_exponents(mask.grid.dim, sigma)
    c_inf = estimate_sup_constant(mask, sigma)
    if math.isinf(two_star):
        return c_inf
    c_p = 1.0 / math.sqrt(_gram_spectrum(mask, sigma)[0])
    return c_inf ** (1.0 - 2.0 / two_star) * c_p ** (2.0 / two_star)


# -- threshold operators -----------------------------------------------------


@dataclass(frozen=True)
class OuterFunction:
    """Pointwise outer map F(x, w) = nu + coeff * ramp(w), bounded below by
    nu > 0; ramp is one of 'square' (w^2) or 'abs' (|w|)."""

    nu: float
    coeff: float = 0.0
    ramp: str = "square"

    def __post_init__(self):
        if not 0.0 < self.nu < math.inf:
            raise ValueError("outer function must be bounded below by a finite nu > 0")
        if self.ramp not in ("square", "abs"):
            raise ValueError(f"unknown ramp {self.ramp!r}")
        if not 0.0 <= self.coeff < math.inf:
            raise ValueError("coeff must be finite and nonnegative to preserve the lower bound")

    def apply(self, w: np.ndarray) -> np.ndarray:
        if self.ramp == "square":
            return self.nu + self.coeff * w**2
        return self.nu + self.coeff * np.abs(w)


class ThresholdOperator:
    """Maps a candidate solution to a new constraint threshold."""

    nu_out: float

    def apply(self, u: ScalarField) -> Threshold:
        return Threshold(ScalarField(u.grid, self._evaluate(u)), self.nu_out)

    def _evaluate(self, u: ScalarField) -> np.ndarray:
        raise NotImplementedError


def _axis_and_inside(mask: DomainMask) -> tuple:
    """(x, x_o): the nodes of a 1D grid and those inside the mask."""
    if mask.grid.dim != 1:
        raise ValueError("Gaussian kernels are built on 1D masks only")
    x = mask.grid.axis()
    return x, x[mask.inside.ravel()]


class KernelIntegralOperator(ThresholdOperator):
    """G[u](x) = F(x, integral_Omega kernel(x,y) u(y) dy)."""

    def __init__(self, mask: DomainMask, kernel: np.ndarray, outer: OuterFunction):
        self.mask = mask
        kernel = np.asarray(kernel, dtype=float)
        if kernel.shape != (mask.grid.num_nodes, mask.num_inside):
            raise ValueError("kernel must have shape (total nodes, inside nodes)")
        self.kernel = kernel
        self.outer = outer
        self.nu_out = outer.nu

    @classmethod
    def gaussian(cls, mask: DomainMask, width: float,
                 outer: OuterFunction) -> KernelIntegralOperator:
        """The operator of the kernel exp(-((x - y) / width)^2) on a 1D mask."""
        x, xo = _axis_and_inside(mask)
        return cls(mask, np.exp(-(((x[:, None] - xo[None, :]) / width) ** 2)), outer)

    def _evaluate(self, u: ScalarField) -> np.ndarray:
        hN = self.mask.grid.cell_volume
        w = hN * self.kernel @ u.values[self.mask.inside]
        return self.outer.apply(w.reshape(self.mask.grid.shape))


class FracGradKernelOperator(ThresholdOperator):
    """G[u](x) = F(x, integral theta(x, .) . D^sigma u) for x in Omega,
    with the intermediate field extended by zero outside Omega."""

    def __init__(self, mask: DomainMask, sigma: float, theta: np.ndarray,
                 outer: OuterFunction):
        self.mask = mask
        self.sigma = sigma
        theta = np.asarray(theta, dtype=float)
        expected = (mask.num_inside, mask.grid.dim) + mask.grid.shape
        if theta.shape != expected:
            raise ValueError(f"theta must have shape {expected}")
        self.theta = theta
        self.outer = outer
        self.nu_out = outer.nu

    @classmethod
    def gaussian(cls, mask: DomainMask, sigma: float, width: float,
                 outer: OuterFunction) -> FracGradKernelOperator:
        """The operator of theta(x, y) = exp(-((x - y) / width)^2) on a 1D
        mask."""
        x, xo = _axis_and_inside(mask)
        theta = np.exp(-(((xo[:, None] - x[None, :]) / width) ** 2))
        return cls(mask, sigma, theta.reshape(mask.num_inside, 1, x.size), outer)

    def _evaluate(self, u: ScalarField) -> np.ndarray:
        grid = self.mask.grid
        du = grad_arrays(u.values, grid, self.sigma)
        hN = grid.cell_volume
        w_inside = hN * self.theta.reshape(self.mask.num_inside, -1) @ du.ravel()
        w = np.zeros(grid.shape)
        w[self.mask.inside] = w_inside
        return self.outer.apply(w)


class SuperpositionOperator(ThresholdOperator):
    """G[u](x) = F(x, u(x)).

    On the continuum this variant asks for continuous arguments; every
    grid field qualifies discretely.  The Hoelder-compactness behind the
    continuum existence argument is not checked numerically.
    """

    def __init__(self, outer: OuterFunction):
        self.outer = outer
        self.nu_out = outer.nu

    def _evaluate(self, u: ScalarField) -> np.ndarray:
        return self.outer.apply(u.values)


class GammaFunctional:
    """Scalar functional with declared bounds on fractional-Sobolev balls:
    floor(R) <= value <= ceil(R) and Lipschitz modulus lip(R) on B_R.

    contraction_certificate takes these declarations as given: nothing
    checks them at run time.  The shipped ConstantGamma and IntegralGamma
    declare closed forms, which the tests check on sampled pairs.
    """

    def __call__(self, u: ScalarField) -> float:
        raise NotImplementedError

    def floor(self, radius: float) -> float:
        raise NotImplementedError

    def ceil(self, radius: float) -> float:
        raise NotImplementedError

    def lip(self, radius: float) -> float:
        raise NotImplementedError


class ConstantGamma(GammaFunctional):
    def __init__(self, value: float):
        if not 0.0 < value < math.inf:
            raise ValueError("constant functional must be finite and positive")
        self.value = value

    def __call__(self, u: ScalarField) -> float:
        return self.value

    def floor(self, radius: float) -> float:
        return self.value

    def ceil(self, radius: float) -> float:
        return self.value

    def lip(self, radius: float) -> float:
        return 0.0


class IntegralGamma(GammaFunctional):
    """Gamma(u) = eta0 + c1 * integral_Omega sqrt(1 + u^2 + |D^sigma u|^2).

    The integrand is 1-Lipschitz jointly in (u, D^sigma u), so a global
    Lipschitz modulus is c1 |Omega|^(1/2) (C_P + 1) <= 2 c1 |Omega|^(1/2)
    max(1, C_P), valid when `poincare` is an upper bound on the discrete
    Poincare constant C_P, as estimate_poincare_constant certifies.
    """

    def __init__(self, eta0: float, c1: float, mask: DomainMask, sigma: float,
                 poincare: float):
        if not (0.0 < eta0 < math.inf and 0.0 <= c1 < math.inf):
            raise ValueError("need finite eta0 > 0 and c1 >= 0")
        self.eta0 = eta0
        self.c1 = c1
        self.mask = mask
        self.sigma = sigma
        self.poincare = poincare

    def __call__(self, u: ScalarField) -> float:
        du = grad_arrays(u.values, u.grid, self.sigma)
        integrand = np.sqrt(1.0 + u.values**2 + np.sum(du * du, axis=0))
        return float(self.eta0 + self.c1 * u.grid.cell_volume
                     * integrand[self.mask.inside].sum())

    def floor(self, radius: float) -> float:
        return self.eta0 + self.c1 * self.mask.volume

    def ceil(self, radius: float) -> float:
        vol = self.mask.volume
        return self.eta0 + self.c1 * (
            vol + math.sqrt(vol) * (self.poincare + 1.0) * radius)

    def lip(self, radius: float) -> float:
        return 2.0 * self.c1 * math.sqrt(self.mask.volume) * max(1.0, self.poincare)


class SeparatedOperator(ThresholdOperator):
    """G[u](x) = phi(x) * Gamma(u) with phi >= nu_phi > 0."""

    def __init__(self, phi: ScalarField, gamma: GammaFunctional):
        self.phi = phi
        self.phi_min = float(phi.values.min())
        if self.phi_min <= 0:
            raise ValueError("separated profile must be strictly positive")
        self.gamma = gamma
        self.nu_out = self.phi_min * gamma.floor(0.0)

    def _evaluate(self, u: ScalarField) -> np.ndarray:
        return self.phi.values * self.gamma(u)


# -- contraction certificate --------------------------------------------------


@dataclass
class ContractionReport:
    C_sharp: float
    R_f: float
    eta_Rf: float
    gamma_Rf: float
    q: float
    certified: bool


def contraction_certificate(f: ScalarField, mask: DomainMask, sigma: float,
                            operator: SeparatedOperator, c_star: float,
                            a_star: float) -> ContractionReport:
    """Uniqueness certificate for the separated-form constraint.

    Uses C# = c_star / a_star, with c_star a certified upper bound on the
    embedding constant (estimate_sobolev_constant), the declared functional
    moduli at the a priori radius R_f = C# ||f||_2#, and certifies when
    q = 2 C# (lip/floor) ||f||_2# < 1.  It is arithmetic on these numbers
    and draws nothing: it trusts the declared floor and modulus.  The two
    shipped functionals, the only ones the CLI builds, declare closed forms
    that the tests check.  A user's own GammaFunctional is certified only
    as far as its declared lip is true; a sampled check could refute such
    a modulus but never prove it.
    """
    if not isinstance(operator, SeparatedOperator):
        raise ValueError("certificate applies to the separated variant only")
    _, two_sharp = sobolev_exponents(mask.grid.dim, sigma)
    f_norm = lp_norm(f, two_sharp, mask)
    c_sharp = c_star / a_star
    r_f = c_sharp * f_norm
    eta = operator.gamma.floor(r_f)
    gam = operator.gamma.lip(r_f)
    if eta <= 0:
        raise ValueError("functional floor must be positive")
    q = 2.0 * c_sharp * (gam / eta) * f_norm
    return ContractionReport(C_sharp=c_sharp, R_f=r_f, eta_Rf=eta,
                             gamma_Rf=gam, q=q, certified=bool(q < 1.0))


# -- fixed-point driver --------------------------------------------------------


@dataclass(frozen=True)
class QVIProblem:
    """Constrained-problem data without a threshold (supplied by G)."""

    mask: DomainMask
    sigma: float
    A: EllipticCoefficients
    f: ScalarField

    def with_threshold(self, g: Threshold) -> ProblemData:
        return ProblemData(self.mask, self.sigma, self.A, self.f, g)


@dataclass
class QVITraceRow:
    outer_iter: int
    fp_residual: float
    damping: float
    inner_eps_final: float
    feas_violation: float
    comp_gap: float
    iterate_norm: float


@dataclass
class QVISolution:
    u: ScalarField
    g_fixed: Threshold
    iterations: int
    fixed_point_residual: float
    converged: bool
    trace: list
    inner: VISolution


def solve_qvi(problem: QVIProblem, operator: ThresholdOperator,
              inner_cfg: PenaltyConfig | None = None,
              outer_tol: float = 1e-6, outer_max: int = 40,
              init: ScalarField | None = None) -> QVISolution:
    """Damped Picard iteration u <- (1-d) u + d S(f, G[u]).

    The first inner solve starts from init, or zero, and runs the whole eps
    schedule of inner_cfg.  On the dense path (vi.continues) every later
    one continues the previous inner solution (solve_vi with it as init):
    one tangent step for the new threshold and one penalized solve at
    eps_min, rerun cold by solve_vi when it diverges, as it can when the
    threshold moved far between outer steps.  On the Krylov path every
    later one is one penalized solve at eps_min from the previous iterate,
    rerun from it along the whole schedule when it diverges, the failed
    attempt's Newton steps added to the rerun's trace[0].  The sampled
    vi_residual runs only when a solution's vi_res is read, as that of the
    final solve, returned as `inner`, can be.

    The damping d starts at 1 and is halved, down to 1/64, after every
    fixed-point residual above 0.9 times the one before, so a cycle whose
    residuals are equal up to round-off is damped too.  On success the
    returned iterate solves the constrained problem for the returned fixed
    threshold (a final inner solve is run at the converged threshold);
    hitting outer_max is reported as non-converged, which existence theory
    cannot distinguish from cycling.
    """
    if (not 0.0 < outer_tol < math.inf or isinstance(outer_max, bool)
            or not isinstance(outer_max, numbers.Integral) or outer_max < 1):
        raise ValueError("invalid outer-loop controls: need a finite outer_tol > 0 "
                         "and an integer outer_max >= 1")
    inner_cfg = inner_cfg or PenaltyConfig()
    warm_cfg = replace(inner_cfg, eps0=inner_cfg.eps_min)
    grid = problem.mask.grid
    u = init if init is not None else ScalarField(grid, np.zeros(grid.shape))
    trace = []

    def inner_solve(g: Threshold, prev: VISolution | None) -> VISolution:
        data = problem.with_threshold(g)
        if prev is None or continues(data):
            return solve_vi(data, inner_cfg, init=u if prev is None else prev)
        try:
            return solve_vi(data, warm_cfg, init=u)
        except SolverDivergence as exc:
            sol = solve_vi(data, inner_cfg, init=u)
            sol.trace[0].newton_iters += len(exc.history)
            return sol

    sol = None
    damping = 1.0
    prev_res = math.inf
    converged = False
    for it in range(1, outer_max + 1):
        g_k = operator.apply(u)
        sol = inner_solve(g_k, sol)
        u_next = ScalarField(grid, (1.0 - damping) * u.values + damping * sol.u.values)
        # the hsigma_norms of u_next - u and u_next, from one stacked
        # transform: its rows keep the bits of lone ones
        grads = grad_arrays(np.stack([u_next.values - u.values, u_next.values]),
                            grid, problem.sigma)
        fp_res, norm_next = (lp_norm(ScalarField(grid, magnitude(w)), 2.0) for w in grads)
        trace.append(QVITraceRow(
            outer_iter=it, fp_residual=fp_res, damping=damping,
            inner_eps_final=sol.eps_final, feas_violation=sol.feas_violation,
            comp_gap=sol.comp_gap, iterate_norm=norm_next))
        u = u_next
        if fp_res <= outer_tol * (1.0 + norm_next):
            converged = True
            break
        if fp_res > 0.9 * prev_res:
            damping = max(damping / 2.0, 1.0 / 64.0)
        prev_res = fp_res
    # consistency solve at the converged threshold
    g_fix = operator.apply(u)
    sol = inner_solve(g_fix, sol)
    return QVISolution(
        u=sol.u, g_fixed=g_fix, iterations=len(trace),
        fixed_point_residual=trace[-1].fp_residual if trace else 0.0,
        converged=converged, trace=trace, inner=sol)
