"""Solution-dependent constraints: threshold operators, the damped Picard
fixed-point driver, discrete Sobolev/Poincare constant estimation, and the
contraction certificate for the separated-form operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import DomainMask, Grid, ScalarField, inner, lp_norm, magnitude
from .fracgrad import grad_arrays, hsigma_norm, neg_div_arrays, random_band_limited
from .vi import (
    EllipticCoefficients,
    PenaltyConfig,
    ProblemData,
    Threshold,
    VISolution,
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


# Cap on the grid values in one stack of restarts in the constant ascent.
# Inverse transforms of large 2D stacks cost more per row than lone calls:
# binding_2d's Poincare estimate (64^2, 20 restarts) took a median 1.64 s
# with all restarts in one stack and 1.27 s with 4 rows per stack.
ASCENT_STACK_VALUES = 1 << 14


@dataclass
class RayleighEstimate:
    """Result of the quotient-maximization run (a certified lower bound)."""

    value: float
    converged: bool
    restarts: list = field(default_factory=list)


def _rayleigh_ascent(grid: Grid, mask: DomainMask, sigma: float, p: float,
                     restarts: int, iters: int, seed: int) -> RayleighEstimate:
    """Projected gradient ascent on ||u||_Lp(Omega) / ||u||_Hsigma over
    fields supported in the mask.

    The restarts run together as the rows of stacked (R, *grid.shape)
    arrays, one transform call per stacked array.  A stack holds at most
    ASCENT_STACK_VALUES grid values: all restarts on a 128-point 1D grid,
    4 rows at 64^2.  Each row keeps its own step, its own 20-trial
    backtracking and its own stopping rule, so it follows the path it
    would follow alone, bit for bit: every norm sums one C-contiguous row,
    as lp_norm sums its 1-D array, and is finished by a scalar root per row
    (numpy's vectorized power may differ from the scalar one in the last
    place).  The ascent direction reuses D^sigma of the iterate, formed
    when its quotient was taken.
    """
    rng = np.random.default_rng(seed)
    inside = mask.inside
    hN = grid.cell_volume

    def per_row(x):
        # per-row scalars shaped to broadcast over (R, *grid.shape)
        return x.reshape((-1,) + (1,) * grid.dim)

    def finish(sums, exponent):
        # per-row scalar root of hN * sum, as lp_norm takes it
        return np.array([(hN * s) ** (1.0 / exponent) for s in sums])

    def hsigma(V):
        # hsigma_norm of each row, and the gradient it took
        w = grad_arrays(V, grid, sigma)
        mag = magnitude(np.moveaxis(w, 1, 0)).reshape(len(V), grid.num_nodes)
        return finish(np.sum(np.abs(mag) ** 2.0, axis=1), 2.0), w

    def lp(V):
        # lp_norm of each row over the mask
        v = np.abs(np.ascontiguousarray(V[:, inside]))
        if math.isinf(p):
            return v.max(axis=1)
        return finish(np.sum(v ** p, axis=1), p)

    def quotient(V):
        den, w = hsigma(V)
        return lp(V) / np.where(den > 0, den, np.inf), w  # 0 where den <= 0

    def grad_num(V, norm):
        # d||u||_p / du at the h^N measure; subgradient at p = inf
        if math.isinf(p):
            flat = V.reshape(len(V), grid.num_nodes)
            out = np.zeros_like(flat)
            rows = np.arange(len(V))
            idx = np.argmax(np.abs(flat), axis=1)
            out[rows, idx] = np.sign(flat[rows, idx])
            return out.reshape(V.shape)
        scale = np.array([float(n) ** (p - 1.0) if n != 0.0 else np.inf
                          for n in norm])  # zero rows give zero
        return hN * np.abs(V) ** (p - 1.0) * np.sign(V) / per_row(scale)

    def grad_den_sq(w):
        # gradient of ||u||_Hsigma^2 = <u, (-Delta)^sigma u> restricted,
        # from w = D^sigma u
        return 2.0 * np.where(inside, neg_div_arrays(w, grid, sigma), 0.0)

    def climb(draws):
        # final quotient and last gain of each row with a nonzero draw
        den, _ = hsigma(draws)
        keep = den != 0.0
        vals = draws[keep] / per_row(den[keep])
        q, grads = quotient(vals)  # grads[i] = D^sigma vals[i]
        step = np.full(len(vals), 0.5)
        last_gain = np.zeros(len(vals))
        active = np.arange(len(vals))
        for _ in range(iters):
            if not active.size:
                break
            V = vals[active]
            num = lp(V)
            # ascent direction of log quotient
            direction = (grad_num(V, num) / per_row(np.maximum(num, 1e-300))
                         - 0.5 * grad_den_sq(grads[active]))
            direction = np.where(inside, direction, 0.0)
            searching = np.arange(len(active))  # positions in active
            for _ in range(20):
                if not searching.size:
                    break
                rows = active[searching]
                trial = vals[rows] + per_row(step[rows]) * direction[searching]
                den, _ = hsigma(trial)
                ok = den > 0
                trial[ok] /= per_row(den[ok])
                q_try = np.zeros(len(rows))
                q_try[ok], w_try = quotient(trial[ok])
                won = ok & (q_try > q[rows])
                acc = rows[won]
                last_gain[acc] = q_try[won] - q[acc]
                vals[acc] = trial[won]
                grads[acc] = w_try[won[ok]]
                q[acc] = q_try[won]
                step[acc] *= 1.5
                step[rows[~won]] *= 0.5
                searching = searching[~won]
            # rows with no accepted trial stop climbing
            last_gain[active[searching]] = 0.0
            active = np.delete(active, searching)
        return q.tolist(), last_gain.tolist()

    draws = np.array([np.where(inside, rng.normal(size=grid.shape), 0.0)
                      for _ in range(restarts)]).reshape((restarts,) + grid.shape)
    stack = max(1, ASCENT_STACK_VALUES // grid.num_nodes)
    per_restart, gains = [], []
    for start in range(0, restarts, stack):
        q, last_gain = climb(draws[start:start + stack])
        per_restart += q
        gains += last_gain
    best = 0.0
    best_final_gain = 0.0
    for qr, gain in zip(per_restart, gains):
        if qr > best:
            best, best_final_gain = qr, gain
    # flagged when the winning restart was still climbing at its budget
    converged = best_final_gain <= 1e-3 * max(best, 1e-300)
    return RayleighEstimate(value=best, converged=converged, restarts=per_restart)


def estimate_sobolev_constant(grid: Grid, mask: DomainMask, sigma: float,
                              restarts: int = 50, iters: int = 60,
                              seed: int = 101) -> RayleighEstimate:
    """Lower bound on the discrete embedding constant ||u||_L2* <= C ||u||_Hsigma."""
    two_star, _ = sobolev_exponents(grid.dim, sigma)
    return _rayleigh_ascent(grid, mask, sigma, two_star, restarts, iters, seed)


def estimate_poincare_constant(grid: Grid, mask: DomainMask, sigma: float,
                               restarts: int = 20, iters: int = 60,
                               seed: int = 202) -> RayleighEstimate:
    """Lower bound on the discrete constant of ||u||_L2 <= C ||u||_Hsigma."""
    return _rayleigh_ascent(grid, mask, sigma, 2.0, restarts, iters, seed)


# -- threshold operators -----------------------------------------------------


@dataclass(frozen=True)
class OuterFunction:
    """Pointwise outer map F(x, w) = nu + coeff * ramp(w), bounded below by
    nu > 0; ramp is one of 'square' (w^2) or 'abs' (|w|)."""

    nu: float
    coeff: float = 0.0
    ramp: str = "square"

    def __post_init__(self):
        if self.nu <= 0:
            raise ValueError("outer function must be bounded below by nu > 0")
        if self.ramp not in ("square", "abs"):
            raise ValueError(f"unknown ramp {self.ramp!r}")
        if self.coeff < 0:
            raise ValueError("coeff must be nonnegative to preserve the lower bound")

    def apply(self, w: np.ndarray) -> np.ndarray:
        if self.ramp == "square":
            return self.nu + self.coeff * w**2
        return self.nu + self.coeff * np.abs(w)


class ThresholdOperator:
    """Maps a candidate solution to a new constraint threshold."""

    nu_out: float

    def apply(self, u: ScalarField) -> Threshold:
        g = self._evaluate(u)
        if float(g.min()) < self.nu_out - 1e-12 * self.nu_out:
            raise ValueError("threshold operator output dips below its floor")
        return Threshold(ScalarField(u.grid, g), self.nu_out)

    def _evaluate(self, u: ScalarField) -> np.ndarray:
        raise NotImplementedError


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
    floor(R) <= value <= ceil(R) and Lipschitz modulus lip(R) on B_R."""

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
        if value <= 0:
            raise ValueError("constant functional must be positive")
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
    max(1, C_P) with C_P the discrete Poincare constant.
    """

    def __init__(self, eta0: float, c1: float, mask: DomainMask, sigma: float,
                 poincare: float):
        if eta0 <= 0 or c1 < 0:
            raise ValueError("need eta0 > 0 and c1 >= 0")
        self.eta0 = eta0
        self.c1 = c1
        self.mask = mask
        self.sigma = sigma
        self.poincare = poincare

    def __call__(self, u: ScalarField) -> float:
        grid = self.mask.grid
        du = grad_arrays(u.values, grid, self.sigma)
        integrand = np.sqrt(1.0 + u.values**2 + np.sum(du * du, axis=0))
        return self.eta0 + self.c1 * grid.cell_volume * float(
            integrand[self.mask.inside].sum())

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

C_STAR_SAFETY = 2.0


def safety_factored_constant(c_star: float, a_star: float) -> float:
    """C# from the lower-bound embedding estimate c_star, kept conservative."""
    return C_STAR_SAFETY * c_star / a_star


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
                            a_star: float, falsify_samples: int = 100,
                            seed: int = 303) -> ContractionReport:
    """Uniqueness certificate for the separated-form constraint.

    Uses the safety-factored embedding constant (the supplied c_star is a
    lower-bound estimate, multiplied by C_STAR_SAFETY to stay conservative),
    the declared functional moduli at the a priori radius R_f, and certifies
    when q = 2 C# (lip/floor) ||f|| < 1.  The declared Lipschitz modulus is
    falsified on random pairs inside B_{R_f} before being trusted.
    """
    if not isinstance(operator, SeparatedOperator):
        raise ValueError("certificate applies to the separated variant only")
    _, two_sharp = sobolev_exponents(mask.grid.dim, sigma)
    f_norm = lp_norm(f, two_sharp, mask)
    c_sharp = safety_factored_constant(c_star, a_star)
    r_f = c_sharp * f_norm
    eta = operator.gamma.floor(r_f)
    gam = operator.gamma.lip(r_f)
    if eta <= 0:
        raise ValueError("functional floor must be positive")
    _falsify_lipschitz(operator.gamma, mask, sigma, r_f, falsify_samples, seed)
    q = 2.0 * c_sharp * (gam / eta) * f_norm
    return ContractionReport(C_sharp=c_sharp, R_f=r_f, eta_Rf=eta,
                             gamma_Rf=gam, q=q, certified=bool(q < 1.0))


def _falsify_lipschitz(gamma: GammaFunctional, mask: DomainMask, sigma: float,
                       radius: float, samples: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    grid = mask.grid
    lip = gamma.lip(radius)
    for _ in range(samples):
        pair = []
        for _ in range(2):
            z = random_band_limited(grid, rng)
            vals = np.where(mask.inside, z.values, 0.0)
            norm = hsigma_norm(ScalarField(grid, vals), sigma)
            scale = rng.uniform(0.0, radius) / norm if norm > 0 else 0.0
            pair.append(ScalarField(grid, scale * vals))
        u1, u2 = pair
        dist = hsigma_norm(ScalarField(grid, u1.values - u2.values), sigma)
        gap = abs(gamma(u1) - gamma(u2))
        if gap > lip * dist + 1e-10 * (1.0 + abs(gamma(u1))):
            raise ValueError(
                "declared Lipschitz modulus falsified on sampled pair")


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
              inner_cfg: PenaltyConfig | None = None, damping: float = 1.0,
              outer_tol: float = 1e-6, outer_max: int = 40,
              init: ScalarField | None = None) -> QVISolution:
    """Damped Picard iteration u <- (1-d) u + d S(f, G[u]).

    Damping is halved after three consecutive non-decreasing fixed-point
    residuals.  On success the returned iterate solves the constrained
    problem for the returned fixed threshold (a final inner solve is run
    at the converged threshold); hitting outer_max is reported as
    non-converged, which existence theory cannot distinguish from cycling.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    inner_cfg = inner_cfg or PenaltyConfig()
    grid = problem.mask.grid
    u = init if init is not None else ScalarField(grid, np.zeros(grid.shape))
    trace = []
    stall = 0
    prev_res = math.inf
    converged = False
    sol = None
    for it in range(1, outer_max + 1):
        g_k = operator.apply(u)
        sol = solve_vi(problem.with_threshold(g_k), inner_cfg, init=u)
        u_next = ScalarField(grid, (1.0 - damping) * u.values + damping * sol.u.values)
        fp_res = hsigma_norm(
            ScalarField(grid, u_next.values - u.values), problem.sigma)
        norm_next = hsigma_norm(u_next, problem.sigma)
        trace.append(QVITraceRow(
            outer_iter=it, fp_residual=fp_res, damping=damping,
            inner_eps_final=sol.eps_final, feas_violation=sol.feas_violation,
            comp_gap=sol.comp_gap, iterate_norm=norm_next))
        u = u_next
        if fp_res <= outer_tol * (1.0 + norm_next):
            converged = True
            break
        if fp_res >= prev_res:
            stall += 1
            if stall >= 3:
                damping = max(damping / 2.0, 1.0 / 64.0)
                stall = 0
        else:
            stall = 0
        prev_res = fp_res
    # consistency solve at the converged threshold
    g_fix = operator.apply(u)
    sol = solve_vi(problem.with_threshold(g_fix), inner_cfg, init=u)
    return QVISolution(
        u=sol.u, g_fixed=g_fix, iterations=len(trace),
        fixed_point_residual=trace[-1].fp_residual if trace else 0.0,
        converged=converged, trace=trace, inner=sol)
