"""Gradient-constrained variational inequality: problem data, exponential
penalization, semismooth Newton continuation, multiplier extraction and
diagnostics.

The constraint |D^sigma u| <= g is enforced by multiplying the fractional
gradient flux with the exponential penalty coefficient applied to the
pointwise excess |D^sigma u| - g, and driving the penalty parameter along
a geometric continuation schedule.  The discrete multiplier field is the
penalty coefficient at the final parameter; complementarity, feasibility
and residual diagnostics are recorded per continuation step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse.linalg import LinearOperator, bicgstab, cg

from .fields import (
    DomainMask,
    Grid,
    ScalarField,
    inner,
    magnitude,
)
from .fracgrad import (
    apply_symbol,
    assert_supported,
    grad_arrays,
    hsigma_norm,
    multiplier_table,
    neg_div_arrays,
    random_band_limited,
)

# Penalty parameter floor: exp(1/eps^2) must stay below the largest double
# (exponent <= ~709), hence eps >= 0.038.
EPS_FLOOR = 0.038

# Relative tolerance of each Newton system's Krylov solve: the forcing term
# of inexact Newton (see solve_penalized).
NEWTON_FORCING = 1e-2


class SolverDivergence(RuntimeError):
    """Inner solver failed; carries the last iterate, the residual history
    (one entry per Newton step) and the number of Krylov solves of the
    failed eps step that ended without converging."""

    def __init__(self, message, iterate=None, history=None, krylov_nonconverged=0):
        super().__init__(message)
        self.iterate = iterate
        self.history = list(history or [])
        self.krylov_nonconverged = krylov_nonconverged


@dataclass(frozen=True)
class EllipticCoefficients:
    """Coefficient A(x): scalar-isotropic field or full (not necessarily
    symmetric) matrix per node, with declared ellipticity bounds."""

    grid: Grid
    values: np.ndarray  # shape grid.shape (scalar) or grid.shape + (N, N)
    a_star: float
    a_upper: float

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        if not 0.0 < self.a_star <= self.a_upper:
            raise ValueError("need 0 < a_star <= a_upper")
        if v.shape == self.grid.shape:
            object.__setattr__(self, "_scalar", True)
            if v.min() < self.a_star - 1e-12 or v.max() > self.a_upper + 1e-12:
                raise ValueError("scalar coefficient violates declared bounds")
        elif v.shape == self.grid.shape + (self.grid.dim, self.grid.dim):
            object.__setattr__(self, "_scalar", False)
            self._check_matrix_bounds()
        else:
            raise ValueError(f"coefficient shape {v.shape} matches neither form")

    def _check_matrix_bounds(self):
        # exact per node: A xi . xi >= a_* |xi|^2 for all xi iff the least
        # eigenvalue of (A + A^T)/2 is >= a_*, and |A xi . eta| <= a^* |xi||eta|
        # for all xi, eta iff the matrix 2-norm of A is <= a^*
        A = self.values.reshape(-1, self.grid.dim, self.grid.dim)
        low = np.linalg.eigvalsh(0.5 * (A + np.swapaxes(A, -1, -2)))[:, 0]
        if low.min() < self.a_star - 1e-9:
            raise ValueError("coefficient violates lower ellipticity bound")
        if np.linalg.norm(A, ord=2, axis=(-2, -1)).max() > self.a_upper + 1e-9:
            raise ValueError("coefficient violates upper bound")

    @property
    def is_scalar(self) -> bool:
        return self._scalar

    @cached_property
    def is_symmetric(self) -> bool:
        if self._scalar:
            return True
        return bool(np.array_equal(self.values, np.swapaxes(self.values, -1, -2)))

    @cached_property
    def applied(self) -> "EllipticCoefficients":
        """The coefficient the penalized operator -div^sigma[A D^sigma .] is
        built from: A itself, or its symmetric part (A + A^T)/2 when the
        skew part A - A^T is the same at every node.  A constant skew part S
        drops out of the operator exactly, since sum_ij m_i S_ij m_j = 0 for
        the symbols m of D^sigma, so both give one operator and the
        symmetric one admits CG."""
        if self.is_symmetric:
            return self
        at = np.swapaxes(self.values, -1, -2)
        skew = (self.values - at).reshape(-1, self.grid.dim, self.grid.dim)
        if not np.array_equal(skew, np.broadcast_to(skew[0], skew.shape)):
            return self
        return EllipticCoefficients(self.grid, 0.5 * (self.values + at),
                                    a_star=self.a_star, a_upper=self.a_upper)

    def apply(self, w: np.ndarray) -> np.ndarray:
        """Apply A(x) nodewise to a stacked vector field (N, *grid.shape)."""
        if self._scalar:
            return self.values[None, ...] * w
        return np.einsum("...ij,j...->i...", self.values, w)


def identity_coefficients(grid: Grid, scale: float = 1.0) -> EllipticCoefficients:
    return EllipticCoefficients(grid, np.full(grid.shape, float(scale)),
                                a_star=float(scale), a_upper=float(scale))


@dataclass(frozen=True)
class Threshold:
    """Constraint threshold g with certified lower bound nu > 0."""

    g: ScalarField
    nu: float

    def __post_init__(self):
        if not self.nu > 0:
            raise ValueError("threshold lower bound violated")
        if float(self.g.values.min()) < self.nu - 1e-12 * self.nu:
            raise ValueError("threshold dips below its declared lower bound")

    def scaled(self, factor: float) -> "Threshold":
        return Threshold(ScalarField(self.g.grid, factor * self.g.values),
                         factor * self.nu)


@dataclass(frozen=True)
class ProblemData:
    """Data of one constrained problem: domain, order, coefficients,
    source supported in Omega, and threshold."""

    mask: DomainMask
    sigma: float
    A: EllipticCoefficients
    f: ScalarField
    g: Threshold

    def __post_init__(self):
        grid = self.mask.grid
        for obj, name in ((self.A.grid, "A"), (self.f.grid, "f"), (self.g.g.grid, "g")):
            if obj != grid:
                raise ValueError(f"{name} lives on a different grid")
        if not 0.0 < self.sigma <= 1.0:
            raise ValueError("sigma must lie in (0, 1]")
        assert_supported(self.f, self.mask)

    @property
    def grid(self) -> Grid:
        return self.mask.grid

    def scaled(self, mu: float) -> "ProblemData":
        """Same problem with data (mu f, mu g)."""
        return ProblemData(self.mask, self.sigma, self.A,
                           ScalarField(self.grid, mu * self.f.values),
                           self.g.scaled(mu))


@dataclass(frozen=True)
class PenaltyConfig:
    eps0: float = 0.5
    ratio: float = 0.6
    eps_min: float = 0.04
    newton_tol: float = 1e-9
    newton_max: int = 80
    damping: float = 1.0

    def __post_init__(self):
        if self.eps_min < EPS_FLOOR:
            raise ValueError(
                f"eps_min {self.eps_min} below representability floor {EPS_FLOOR}")
        if not 0.0 < self.ratio < 1.0:
            raise ValueError("ratio must lie in (0, 1)")
        if not self.eps_min <= self.eps0 < 1.0:
            raise ValueError("need eps_min <= eps0 < 1")
        if self.newton_tol <= 0 or self.newton_max < 1 or not 0 < self.damping <= 1:
            raise ValueError("invalid solver controls")

    def schedule(self) -> list:
        """Geometric continuation eps0 * ratio^j clipped to end at eps_min."""
        eps = [self.eps0]
        while eps[-1] * self.ratio > self.eps_min * (1 + 1e-12):
            eps.append(eps[-1] * self.ratio)
        if eps[-1] > self.eps_min * (1 + 1e-12):
            eps.append(self.eps_min)
        return eps


@dataclass
class PenaltyTraceRow:
    """Per-continuation-step monitored quantities."""

    eps: float
    newton_iters: int
    residual: float
    feas_violation: float
    comp_gap: float
    norm_dsu_l2: float
    k_eps_l1: float
    k_eps_dsu2_l1: float
    energy: float | None
    measure_u: float
    measure_v: float
    measure_w: float
    excess_integral: float


@dataclass
class VISolution:
    u: ScalarField
    multiplier: ScalarField
    eps_final: float
    feas_violation: float
    comp_gap: float
    vi_res: float
    energy: float | None
    trace: list = field(default_factory=list)


def penalty_value(s, eps: float):
    """Exponential penalty: 0 for s<0, e^(s/eps)-1 on [0, 1/eps], capped at
    e^(1/eps^2)-1 beyond.  Accepts scalars or arrays."""
    if not EPS_FLOOR <= eps < 1.0:
        raise ValueError(f"eps must lie in [{EPS_FLOOR}, 1), got {eps}")
    out = np.expm1(np.clip(s, 0.0, 1.0 / eps) / eps)
    if np.isscalar(s):
        return float(out)
    return out


def penalty_slope(s, eps: float):
    """Right-branch generalized derivative of the penalty (semismooth
    Newton convention at the kinks s=0 and s=1/eps)."""
    if not EPS_FLOOR <= eps < 1.0:
        raise ValueError(f"eps must lie in [{EPS_FLOOR}, 1), got {eps}")
    s_arr = np.asarray(s, dtype=float)
    inside = (s_arr >= 0.0) & (s_arr <= 1.0 / eps)
    out = np.where(inside, np.exp(np.clip(s_arr, 0.0, 1.0 / eps) / eps) / eps, 0.0)
    if np.isscalar(s):
        return float(out)
    return out


def penalized_residual(u: ScalarField, data: ProblemData, eps: float) -> ScalarField:
    """Strong-form residual of the penalized quasilinear problem on Omega
    nodes (zero outside): -div^sigma[(k_eps + A) D^sigma u] - f."""
    assert_supported(u, data.mask)
    sys = _PenalizedSystem(data, eps)
    return ScalarField(data.grid, sys.unpack(sys.residual(sys.pack(u.values))))


class _PenalizedSystem:
    """Matrix-free residual/Jacobian of the penalized problem restricted to
    the inside nodes, built on the applied coefficient data.A.applied."""

    def __init__(self, data: ProblemData, eps: float):
        self.data = data
        self.A = data.A.applied
        self.eps = eps
        self.grid = data.grid
        self.inside = data.mask.inside
        self.m = int(self.inside.sum())
        self.g = data.g.g.values
        self.f_inside = data.f.values[self.inside]

    def unpack(self, x: np.ndarray) -> np.ndarray:
        full = np.zeros(self.grid.shape)
        full[self.inside] = x
        return full

    def pack(self, full: np.ndarray) -> np.ndarray:
        return full[self.inside]

    def residual(self, x: np.ndarray) -> np.ndarray:
        return self.residual_of_grad(grad_arrays(self.unpack(x), self.grid, self.data.sigma))

    def residual_of_grad(self, w: np.ndarray) -> np.ndarray:
        """Residual of the iterate whose fractional gradient is w."""
        k = penalty_value(magnitude(w) - self.g, self.eps)
        flux = k[None, ...] * w + self.A.apply(w)
        r = neg_div_arrays(flux, self.grid, self.data.sigma)
        return self.pack(r) - self.f_inside

    def frozen_matvec(self, k: np.ndarray):
        """Linear operator with frozen penalty coefficient (Picard step)."""
        def mv(x):
            w = grad_arrays(self.unpack(x), self.grid, self.data.sigma)
            flux = k[None, ...] * w + self.A.apply(w)
            return self.pack(neg_div_arrays(flux, self.grid, self.data.sigma))
        return mv

    def jacobian_matvec(self, x: np.ndarray):
        """Generalized derivative at x of the penalized flux map."""
        w = grad_arrays(self.unpack(x), self.grid, self.data.sigma)
        mag = magnitude(w)
        s = mag - self.g
        k = penalty_value(s, self.eps)
        kp = penalty_slope(s, self.eps)
        safe_mag = np.where(mag > 0.0, mag, 1.0)
        coef = kp / safe_mag  # kp = 0 wherever mag could vanish (s < 0 there)

        def mv(v):
            dw = grad_arrays(self.unpack(v), self.grid, self.data.sigma)
            radial = coef * np.sum(w * dw, axis=0)
            flux = k[None, ...] * dw + radial[None, ...] * w + self.A.apply(dw)
            return self.pack(neg_div_arrays(flux, self.grid, self.data.sigma))
        return mv, k

    def preconditioner(self, k_mean: float):
        """Spectral inverse of the constant-coefficient surrogate."""
        _, mag_sigma = multiplier_table(self.grid, self.data.sigma)
        cbar = self.data.A.a_star + k_mean
        kmin = math.pi / (2.0 * self.grid.extent)
        mult = 1.0 / (cbar * (mag_sigma**2 + kmin ** (2.0 * self.data.sigma)))

        def mv(x):
            return self.pack(apply_symbol(self.unpack(x), mult))
        return mv

    def solve_linear(self, matvec, rhs: np.ndarray, precond, rtol: float) -> tuple:
        """Krylov solve; returns the iterate and the solver's info flag
        (0 when converged).  A non-converged iterate is still returned: the
        line search judges it, and the caller counts it."""
        op = LinearOperator((self.m, self.m), matvec=matvec)
        pre = LinearOperator((self.m, self.m), matvec=precond)
        solver = cg if self.A.is_symmetric else bicgstab
        return solver(op, rhs, rtol=rtol, atol=0.0, maxiter=400, M=pre)


def solve_penalized(data: ProblemData, eps: float, init: ScalarField,
                    cfg: PenaltyConfig) -> ScalarField:
    """Solve the penalized quasilinear problem at fixed eps.

    Damped inexact semismooth Newton: each Newton system is solved by a
    Krylov method to relative tolerance NEWTON_FORCING only.  Backtracking
    accepts a step that passes either of two Armijo tests: one on the
    squared residual norm, or, when the applied coefficient is symmetric,
    one on the convex penalized energy phi, whose gradient is the residual
    r: by convexity phi(x + t d) <= phi(x) + t d.r(x + t d), so
    d.r(x + t d) <= 1e-4 d.r(x) < 0 gives sufficient decrease of phi.  A
    space-dependent skew part makes r no gradient and keeps the residual
    test only.  The residual test stays for symmetric coefficients too:
    the energy test rejects a step that reaches the minimum of phi along
    d, which is where a full Newton step lands near the solution.  Falls
    back to frozen-coefficient (Picard) steps when backtracking stalls.
    Converges to sup-norm residual on Omega below newton_tol * (1 +
    sup|f|), judged on the true residual, so the inexact directions do not
    weaken the stopping test.
    """
    u, _ = _solve_penalized_impl(data, eps, init, cfg)
    return u


def _solve_penalized_impl(data: ProblemData, eps: float, init: ScalarField,
                          cfg: PenaltyConfig) -> tuple:
    assert_supported(init, data.mask)
    sys = _PenalizedSystem(data, eps)
    x = sys.pack(init.values)
    f_scale = 1.0 + float(np.abs(data.f.values).max())
    tol = cfg.newton_tol * f_scale
    history = []
    nonconverged = 0  # Krylov solves of this eps step that did not converge
    r = sys.residual(x)
    for it in range(cfg.newton_max):
        res_sup = float(np.abs(r).max())
        history.append(res_sup)
        if res_sup <= tol:
            return ScalarField(data.grid, sys.unpack(x)), it
        matvec, k = sys.jacobian_matvec(x)
        precond = sys.preconditioner(float(k.mean()))
        # solve for d / 2^e with 2^e near res_sup: an exact scaling that
        # keeps the Krylov norms of a residual beyond 1e154 representable
        scale = math.ldexp(1.0, min(math.frexp(res_sup)[1], 1023))
        d, info = sys.solve_linear(matvec, -r / scale, precond, rtol=NEWTON_FORCING)
        d *= scale
        nonconverged += info != 0
        with np.errstate(over="ignore", invalid="ignore"):
            merit0, slope0 = float(r @ r), float(d @ r)
        step = cfg.damping
        accepted = False
        for _ in range(30):
            x_try = x + step * d
            r_try = sys.residual(x_try)
            # a trial whose merit overflows is rejected: its d.r may read -inf
            with np.errstate(over="ignore", invalid="ignore"):
                merit, slope = float(r_try @ r_try), float(d @ r_try)
            # residual Armijo test, or the energy one (see the docstring)
            if math.isfinite(merit) and (
                    merit <= (1.0 - 1e-4 * step) * merit0
                    or (sys.A.is_symmetric and slope <= 1e-4 * slope0 < 0.0)):
                x, r = x_try, r_try
                accepted = True
                break
            step *= 0.5
        if accepted:
            continue
        # Picard fallback: frozen-coefficient solve, small safe steps
        frozen = sys.frozen_matvec(k)
        x_lin, info = sys.solve_linear(frozen, sys.f_inside, precond, rtol=1e-10)
        nonconverged += info != 0
        step = 0.5
        for _ in range(30):
            x_try = x + step * (x_lin - x)
            r_try = sys.residual(x_try)
            with np.errstate(over="ignore", invalid="ignore"):
                merit = float(r_try @ r_try)
            if math.isfinite(merit) and merit < merit0:
                x, r = x_try, r_try
                accepted = True
                break
            step *= 0.5
        if not accepted:
            raise SolverDivergence(
                f"no descent at eps={eps:.4g} (residual {res_sup:.3e}, "
                f"{nonconverged} Krylov solves not converged)",
                iterate=ScalarField(data.grid, sys.unpack(x)), history=history,
                krylov_nonconverged=nonconverged)
    raise SolverDivergence(
        f"newton_max={cfg.newton_max} exceeded at eps={eps:.4g} "
        f"({nonconverged} Krylov solves not converged)",
        iterate=ScalarField(data.grid, sys.unpack(x)), history=history,
        krylov_nonconverged=nonconverged)


def extract_multiplier(u_eps: ScalarField, data: ProblemData, eps: float) -> ScalarField:
    """Discrete multiplier density: the penalty coefficient of the iterate."""
    w = grad_arrays(u_eps.values, data.grid, data.sigma)
    lam = penalty_value(magnitude(w) - data.g.g.values, eps)
    return ScalarField(data.grid, lam)


def feasibility_violation(u: ScalarField, data: ProblemData) -> float:
    """Sup over the whole torus of (|D^sigma u| - g)^+."""
    return _violation_of_grad(grad_arrays(u.values, data.grid, data.sigma), data)


def _violation_of_grad(w: np.ndarray, data: ProblemData) -> float:
    """feasibility_violation(u, data) given w = D^sigma u."""
    excess = magnitude(w) - data.g.g.values
    return float(max(excess.max(), 0.0))


def energy(u: ScalarField, data: ProblemData) -> float:
    """Quadratic energy 1/2 <A D^sigma u, D^sigma u> - <f, u>; symmetric A only."""
    if not data.A.is_symmetric:
        raise ValueError("energy requires symmetric coefficients")
    return _energy_of_grad(u, grad_arrays(u.values, data.grid, data.sigma), data)


def _energy_of_grad(u: ScalarField, w: np.ndarray, data: ProblemData) -> float:
    """energy(u, data) given w = D^sigma u."""
    hN = data.grid.cell_volume
    quad = 0.5 * hN * float(np.sum(data.A.apply(w) * w))
    return quad - inner(data.f, u)


def _smooth_bump(mask: DomainMask) -> np.ndarray:
    """C^1-ish profile vanishing outside the mask, used to shape samples."""
    grid = mask.grid
    if mask.is_full:
        return np.ones(grid.shape)
    if mask.box_halfwidth is not None:
        w = mask.box_halfwidth
        bump = np.ones(grid.shape)
        x = grid.axis()
        prof1d = np.where(np.abs(x) < w, np.cos(0.5 * math.pi * x / w) ** 2, 0.0)
        for j in range(grid.dim):
            shape = [1] * grid.dim
            shape[j] = grid.resolution
            bump = bump * prof1d.reshape(shape)
        return bump
    return mask.inside.astype(float)


def sample_feasible(data: ProblemData, rng: np.random.Generator,
                    kmax: int | None = None) -> ScalarField:
    """Random member of the constraint set: band-limited field shaped into
    Omega, then shrunk by nu/(nu+eta) with eta its feasibility excess."""
    grid = data.grid
    z = random_band_limited(grid, rng, kmax=kmax)
    shaped = z.values * _smooth_bump(data.mask)
    if data.mask.is_full:
        shaped = shaped - shaped.mean()
    # aim near the constraint surface so directions are informative
    probe = ScalarField(grid, shaped)
    w = grad_arrays(probe.values, grid, data.sigma)
    mag_max = float(magnitude(w).max())
    if mag_max > 0:
        shaped = shaped * (0.8 * float(data.g.g.values.min()) / mag_max)
        probe = ScalarField(grid, shaped)
    eta = feasibility_violation(probe, data)
    factor = data.g.nu / (data.g.nu + eta)
    return ScalarField(grid, factor * shaped)


def shrink_to_feasible(u: ScalarField, data: ProblemData) -> ScalarField:
    """Post-hoc strictly feasible output: u scaled by nu/(nu+eta), then by
    further factors 1 - 4 machine eps while round-off in the recomputed
    gradient still leaves an excess above g."""
    return _shrink_with_grad(u, data)[0]


def _shrink_with_grad(u: ScalarField, data: ProblemData,
                      w: np.ndarray | None = None) -> tuple:
    """shrink_to_feasible(u, data) and D^sigma of the field it returns, the
    gradient it last checked; w, when given, is D^sigma u."""
    if w is None:
        w = grad_arrays(u.values, data.grid, data.sigma)
    eta = _violation_of_grad(w, data)
    if eta == 0.0:
        return u, w
    factor = data.g.nu / (data.g.nu + eta)
    while True:
        shrunk = ScalarField(u.grid, factor * u.values)
        w = grad_arrays(shrunk.values, data.grid, data.sigma)
        if _violation_of_grad(w, data) == 0.0:
            return shrunk, w
        factor *= 1.0 - 4.0 * np.finfo(float).eps


def vi_residual(u: ScalarField, data: ProblemData, trials: int = 64,
                seed: int = 0) -> float:
    """Minimum of <A D^sigma u, D^sigma(v-u)> - <f, v-u> over sampled
    feasible v; nonnegative (within tolerance) iff u solves the problem."""
    rng = np.random.default_rng(seed)
    grid = data.grid
    w = grad_arrays(u.values, grid, data.sigma)
    Aw = data.A.apply(w)
    hN = grid.cell_volume

    def functional(v_vals: np.ndarray) -> float:
        dv = grad_arrays(v_vals - u.values, grid, data.sigma)
        return hN * float(np.sum(Aw * dv)) - hN * float(
            np.dot(data.f.values.ravel(), (v_vals - u.values).ravel()))

    candidates = [np.zeros(grid.shape), _shrink_with_grad(u, data, w)[0].values]
    for _ in range(trials):
        candidates.append(sample_feasible(data, rng).values)
    return min(functional(v) for v in candidates)


def _trace_row(data: ProblemData, u: ScalarField, eps: float,
               iters: int) -> tuple:
    """Trace row of the eps step's iterate u, and its penalty coefficient
    (the multiplier density at eps), from one gradient of u."""
    grid = data.grid
    w = grad_arrays(u.values, grid, data.sigma)
    mag = magnitude(w)
    excess = mag - data.g.g.values
    k = penalty_value(excess, eps)
    hN = grid.cell_volume
    sqrt_eps = math.sqrt(eps)
    comp = abs(hN * float(np.sum(k * excess)))
    res = _PenalizedSystem(data, eps).residual_of_grad(w)
    en = _energy_of_grad(u, w, data) if data.A.is_symmetric else None
    return PenaltyTraceRow(
        eps=eps,
        newton_iters=iters,
        residual=float(np.abs(res).max()),
        feas_violation=float(max(excess.max(), 0.0)),
        comp_gap=comp,
        norm_dsu_l2=float(np.sqrt(hN * np.sum(mag**2))),
        k_eps_l1=hN * float(np.sum(np.abs(k))),
        k_eps_dsu2_l1=hN * float(np.sum(k * mag**2)),
        energy=en,
        measure_u=hN * float(np.sum(excess <= sqrt_eps)),
        measure_v=hN * float(np.sum((excess > sqrt_eps) & (excess <= 1.0 / eps))),
        measure_w=hN * float(np.sum(excess > 1.0 / eps)),
        excess_integral=hN * float(np.sum(np.maximum(excess, 0.0))),
    ), k


def solve_vi(data: ProblemData, cfg: PenaltyConfig | None = None,
             init: ScalarField | None = None, diag_trials: int = 32,
             seed: int = 0, shrink: bool = False) -> VISolution:
    """Continuation solve of the constrained problem.

    Runs the penalized solver along the geometric eps schedule with warm
    starts, stopping early once successive iterates differ by less than
    newton_tol in the fractional Sobolev norm; the multiplier is the
    penalty coefficient at the final eps.

    Feasibility is only reached asymptotically along the schedule; with
    shrink=True the returned u is additionally scaled by nu/(nu + eta)
    (eta the residual excess), which makes it strictly feasible while the
    multiplier and trace still describe the unshrunk final iterate.
    """
    cfg = cfg or PenaltyConfig()
    grid = data.grid
    u = init if init is not None else ScalarField(grid, np.zeros(grid.shape))
    trace = []
    eps_final = cfg.eps0
    prev = None
    for eps in cfg.schedule():
        u, iters = _solve_penalized_impl(data, eps, u, cfg)
        eps_final = eps
        row, k = _trace_row(data, u, eps, iters)
        trace.append(row)
        if prev is not None:
            delta = hsigma_norm(
                ScalarField(grid, u.values - prev.values), data.sigma)
            if delta < cfg.newton_tol:
                break
        prev = u
    lam = ScalarField(grid, k)  # the last row's k: extract_multiplier(u, data, eps_final)
    last = trace[-1]
    viol, en = last.feas_violation, last.energy
    if shrink:
        u, w = _shrink_with_grad(u, data)
        viol = 0.0  # shrink_to_feasible returns only once this is exactly 0
        en = _energy_of_grad(u, w, data) if data.A.is_symmetric else None
    return VISolution(
        u=u,
        multiplier=lam,
        eps_final=eps_final,
        feas_violation=viol,
        comp_gap=last.comp_gap,
        vi_res=vi_residual(u, data, trials=diag_trials, seed=seed),
        energy=en,
        trace=trace,
    )


def multiplier_equation_residual(sol: VISolution, data: ProblemData) -> float:
    """Sup-norm on Omega of -div^sigma[(lambda + A) D^sigma u] - f."""
    grid = data.grid
    w = grad_arrays(sol.u.values, grid, data.sigma)
    flux = sol.multiplier.values[None, ...] * w + data.A.apply(w)
    r = neg_div_arrays(flux, grid, data.sigma) - data.f.values
    return float(np.abs(r[data.mask.inside]).max())
