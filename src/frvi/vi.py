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
import numbers
import threading
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse.linalg import LinearOperator, bicgstab, cg

from .fields import (
    DomainMask,
    Grid,
    ScalarField,
    ball_projection,
    inner,
    magnitude,
)
from .fracgrad import (
    DENSE_UNKNOWN_LIMIT,
    apply_symbol,
    assert_supported,
    grad_arrays,
    gradient_matrix,
    gradient_rows,
    gram_spectrum,
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

# Newton systems are assembled and solved densely when N * num_nodes * m^2
# (the flops of one assembly, m inside nodes) is at most this; above it the
# matrix-free Krylov path is faster (README "Numerical notes").
DENSE_NEWTON_BUDGET = 2**23

# The splitting start of a cold dense solve (_splitting_start): the relative
# tolerance of its primal and dual residuals, and its sweep cap.
SEED_TOL = 1e-3
SEED_SWEEPS = 50

# Cap on newton_max of the eps_min solve continuing a nearby solution on
# the dense path, past which solve_vi reruns cold (README "Numerical notes").
CONTINUED_NEWTON_MAX = 9


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
        if not np.isfinite(v).all():
            raise ValueError("coefficient contains non-finite values")
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

    @cached_property
    def stacked(self) -> np.ndarray:
        """A matrix field as a contiguous (N, N, *grid.shape) array."""
        return np.ascontiguousarray(np.moveaxis(self.values, (-2, -1), (0, 1)))

    def apply(self, w: np.ndarray) -> np.ndarray:
        """Apply A(x) nodewise to a stacked vector field (N, *grid.shape)."""
        if self._scalar:
            return self.values[None, ...] * w
        return np.einsum("ij...,j...->i...", self.stacked, w)


def identity_coefficients(grid: Grid, scale: float = 1.0) -> EllipticCoefficients:
    return EllipticCoefficients(grid, np.full(grid.shape, float(scale)),
                                a_star=float(scale), a_upper=float(scale))


@dataclass(frozen=True)
class Threshold:
    """Constraint threshold g with certified lower bound nu > 0."""

    g: ScalarField
    nu: float

    def __post_init__(self):
        if not 0.0 < self.nu < math.inf:
            raise ValueError("threshold lower bound violated: nu must be finite and > 0")
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

    def __post_init__(self):
        if self.eps_min < EPS_FLOOR:
            raise ValueError(
                f"eps_min {self.eps_min} below representability floor {EPS_FLOOR}")
        if not 0.0 < self.ratio < 1.0:
            raise ValueError("ratio must lie in (0, 1)")
        if not self.eps_min <= self.eps0 < 1.0:
            raise ValueError("need eps_min <= eps0 < 1")
        if (not 0.0 < self.newton_tol < math.inf or isinstance(self.newton_max, bool)
                or not isinstance(self.newton_max, numbers.Integral) or self.newton_max < 1):
            raise ValueError("invalid solver controls: need a finite newton_tol > 0 "
                             "and an integer newton_max >= 1")

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
    """Result of solve_vi on `data`; vi_res, the sampled diagnostic
    vi_residual(u, data), is computed when first read."""

    u: ScalarField
    multiplier: ScalarField
    eps_final: float
    feas_violation: float
    comp_gap: float
    energy: float | None
    data: ProblemData = field(repr=False, compare=False)
    trace: list = field(default_factory=list)

    @cached_property
    def vi_res(self) -> float:
        return vi_residual(self.u, self.data)


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
    return ScalarField(data.grid, sys.unpack(
        sys.residual_of_grad(sys.gradient(sys.pack(u.values)))))


def _dense_gradient(mask: DomainMask, sigma: float) -> np.ndarray | None:
    """gradient_matrix G for the dense Newton path, built once per mask, or
    None for the Krylov path: N * num_nodes * m^2 above DENSE_NEWTON_BUDGET
    (nothing is built), or M = G^T G not certified positive definite
    (gram_spectrum), when LU would miss a kernel mode of G."""
    grid = mask.grid
    if grid.dim * grid.num_nodes * mask.num_inside**2 > DENSE_NEWTON_BUDGET:
        return None
    inside = mask.inside.tobytes()
    if gram_spectrum(grid, sigma, inside) is None:
        return None
    return _cached_gradient_matrix(grid, sigma, inside)


def continues(data: ProblemData) -> bool:
    """Whether solve_vi continues a VISolution init for data: on the dense
    path only, where the budget was measured (README "Numerical notes")."""
    return _dense_gradient(data.mask, data.sigma) is not None


@lru_cache(maxsize=16)
def _cached_gradient_matrix(grid: Grid, sigma: float, inside: bytes) -> np.ndarray:
    """Read-only gradient_matrix of the mask whose inside flags are `inside`."""
    flags = np.frombuffer(inside, dtype=bool).reshape(grid.shape)
    G = gradient_matrix(DomainMask(grid, flags, padding_fraction=0.0), sigma)
    G.flags.writeable = False
    return G


class _ActiveGram:
    """Gram matrix of the rows g_(i,a) = P G^T e_(i,a) (fracgrad.gradient_rows)
    of the torus nodes a the penalty has made active, under the spectral
    preconditioner T1 = P S1 E at cbar = 1: gram[i, j, a, b] = g_(i,a)^T T1
    g_(j,b), a and b the nodes' slots.  The rows depend only on the grid,
    sigma and the mask, so one instance (_active_gram) serves every solve
    on the mask, grown under a lock (readers hold slots valid in either
    array) up to `capacity` nodes.  An entry is built once, with the later
    of its nodes, so after other solves it may differ at round-off.

    Entry (i, a; j, b) is the gradient of E T1 g_(j,b) read at node a, so a
    new node needs no old row: its rows are built, transformed by S1,
    restricted and differentiated one node at a time."""

    def __init__(self, mask: DomainMask, sigma: float):
        grid = mask.grid
        self.mask = mask
        self.sigma = sigma
        _, mag_sigma = multiplier_table(grid, sigma)
        kmin = math.pi / (2.0 * grid.extent)
        # S1: the inverse of the surrogate symbol |kappa|^(2 sigma) + kmin^(2 sigma)
        self.symbol = 1.0 / (mag_sigma**2 + kmin ** (2.0 * sigma))
        # at most m / N nodes, so the Gram is never larger than the restricted
        # Gram matrix M (m x m); none at all above N m = DENSE_UNKNOWN_LIMIT,
        # below the crossovers measured in 1D and 2D (README "Numerical notes")
        m = mask.num_inside
        self.capacity = m // grid.dim if grid.dim * m <= DENSE_UNKNOWN_LIMIT else 0
        self.slot = np.full(grid.num_nodes, -1, dtype=np.intp)
        self.nodes = np.empty(0, dtype=np.intp)
        self.gram = np.empty((grid.dim, grid.dim, 0, 0))
        self.lock = threading.Lock()

    def stored(self, nodes: np.ndarray) -> np.ndarray:
        """The torus nodes of `nodes` (flat indices) that the Gram holds,
        after adding the new ones it has room for."""
        with self.lock:
            new = nodes[self.slot[nodes] < 0]
            room = self.capacity - len(self.nodes)
            if new.size and room > 0:
                self._add(new[:room])
            return nodes[self.slot[nodes] >= 0]

    def form(self, nodes: np.ndarray, normal: np.ndarray) -> np.ndarray:
        """U^T T1 U for the stored `nodes`, u_a = sum_i normal[i, a] g_(i,a):
        the (p, p) matrix sum_ij normal[i, a] gram[i, j, a, b] normal[j, b]."""
        slots = self.slot[nodes]
        gram = self.gram[:, :, slots[:, None], slots]
        return np.einsum("ia,ijab,jb->ab", normal, gram, normal)

    def _add(self, new: np.ndarray) -> None:
        grid, inside = self.mask.grid, self.mask.inside
        old = len(self.nodes)
        nodes = np.concatenate([self.nodes, new])
        gram = np.empty((grid.dim, grid.dim, len(nodes), len(nodes)))
        gram[:, :, :old, :old] = self.gram
        rows = gradient_rows(self.mask, self.sigma, new).transpose(1, 0, 2)
        field = np.zeros((grid.dim,) + grid.shape)
        for b, row in enumerate(rows, start=old):
            field[:, inside] = row
            smoothed = apply_symbol(field, self.symbol) * inside
            grads = grad_arrays(smoothed, grid, self.sigma)  # [j, i, y]
            read = grads.reshape(grads.shape[:2] + (-1,))[..., nodes]
            gram[:, :, :, b] = read.transpose(1, 0, 2)
        gram[:, :, old:, :old] = gram[:, :, :old, old:].transpose(1, 0, 3, 2)
        fresh = gram[:, :, old:, old:]
        fresh[...] = 0.5 * (fresh + fresh.transpose(1, 0, 3, 2))
        # published last, so that an interrupted build leaves the cache whole
        self.gram, self.nodes = gram, nodes
        self.slot[new] = old + np.arange(len(new))


@lru_cache(maxsize=1)
def _active_gram(grid: Grid, sigma: float, inside: bytes) -> _ActiveGram:
    """The _ActiveGram of the mask whose inside flags are `inside`."""
    flags = np.frombuffer(inside, dtype=bool).reshape(grid.shape)
    return _ActiveGram(DomainMask(grid, flags, padding_fraction=0.0), sigma)


class _PenalizedSystem:
    """Residual and Jacobian of the penalized problem restricted to the
    inside nodes, built on the applied coefficient data.A.applied.

    Small problems (see _dense_gradient) hold the dense restricted gradient
    G: then w = G x, the residual is G^T flux - f, and each Newton system
    J = sum_ij G_i^T diag(c_ij) G_j is assembled and solved exactly by LU.
    Every other problem is matrix-free: transforms for G and G^T, and
    preconditioned CG or BiCGSTAB for the Newton systems."""

    def __init__(self, data: ProblemData, eps: float):
        self.data = data
        self.A = data.A.applied
        self.eps = eps
        self.grid = data.grid
        self.inside = data.mask.inside
        self.m = int(self.inside.sum())
        self.g = data.g.g.values
        self.f_inside = data.f.values[self.inside]
        self.G = _dense_gradient(data.mask, data.sigma)

    def unpack(self, x: np.ndarray) -> np.ndarray:
        full = np.zeros(self.grid.shape)
        full[self.inside] = x
        return full

    def pack(self, full: np.ndarray) -> np.ndarray:
        return full[self.inside]

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """D^sigma E x, stacked as (N, *grid.shape)."""
        if self.G is None:
            return grad_arrays(self.unpack(x), self.grid, self.data.sigma)
        return (self.G @ x).reshape((self.grid.dim,) + self.grid.shape)

    def neg_div(self, flux: np.ndarray) -> np.ndarray:
        """P(-div^sigma flux) on the inside nodes: the adjoint of gradient."""
        if self.G is None:
            return self.pack(neg_div_arrays(flux, self.grid, self.data.sigma))
        return self.G.T @ flux.reshape(-1)

    def residual_of_grad(self, w: np.ndarray) -> np.ndarray:
        """Residual of the iterate whose fractional gradient is w."""
        k = penalty_value(magnitude(w) - self.g, self.eps)
        return self.neg_div(self.flux(w, k)) - self.f_inside

    def flux(self, dw: np.ndarray, k: np.ndarray, w: np.ndarray | None = None,
             coef: np.ndarray | None = None) -> np.ndarray:
        """C dw with the nodewise c_ij = k delta_ij + A_ij, plus coef w_i w_j
        when w is given: the penalized flux with k frozen, or with
        (k, coef) = linearization(w) its generalized derivative at w."""
        out = k[None, ...] * dw
        if w is not None:
            out = out + (coef * np.sum(w * dw, axis=0))[None, ...] * w
        return out + self.A.apply(dw)

    def linearization(self, w: np.ndarray) -> tuple:
        """Pointwise (k, k'/|w|) of the penalized flux at the gradient w:
        its generalized derivative maps dw to C dw with the nodewise matrix
        c_ij = k delta_ij + (k'/|w|) w_i w_j + A_ij."""
        mag = magnitude(w)
        s = mag - self.g
        safe_mag = np.where(mag > 0.0, mag, 1.0)
        # k' = 0 wherever mag could vanish (s < 0 there)
        return penalty_value(s, self.eps), penalty_slope(s, self.eps) / safe_mag

    def assemble(self, k: np.ndarray, w: np.ndarray | None = None,
                 coef: np.ndarray | None = None) -> np.ndarray:
        """Dense sum_ij G_i^T diag(c_ij) G_j, G_i the rows of component i:
        the matrix of v -> neg_div(flux(gradient(v), k, w, coef)), with the
        same c_ij as flux."""
        dim = self.grid.dim
        eye = np.eye(dim).reshape((dim, dim) + (1,) * dim)
        if self.A.is_scalar:
            c = eye * (k + self.A.values)
        else:
            c = eye * k + self.A.stacked
        if w is not None:
            c = c + coef * (w[:, None] * w[None, :])
        G = self.G.reshape(1, dim, -1, self.m)
        weighted = np.sum(c.reshape(dim, dim, -1, 1) * G, axis=1)
        return self.G.T @ weighted.reshape(-1, self.m)

    def solve(self, rhs: np.ndarray, k: np.ndarray, w: np.ndarray | None = None,
              coef: np.ndarray | None = None, rtol: float = NEWTON_FORCING) -> tuple:
        """(x, info): x solves P(-div^sigma[C D^sigma E x]) = rhs, C as in
        flux.  Exactly by LU of assemble(k, w, coef) on the dense path;
        otherwise by CG (BiCGSTAB for a nonsymmetric applied A) to relative
        tolerance rtol, with info the solver's flag (0 when converged), and
        preconditioned by preconditioner(k, w, coef).  A non-converged
        iterate is still returned: the line search judges it, and the
        caller counts it."""
        if self.G is not None:
            return np.linalg.solve(self.assemble(k, w, coef), rhs), 0
        # dtype given, so that LinearOperator does not probe each with a matvec
        op = LinearOperator((self.m, self.m), dtype=float, matvec=lambda v: self.neg_div(
            self.flux(self.gradient(v), k, w, coef)))
        pre = LinearOperator((self.m, self.m), dtype=float,
                             matvec=self.preconditioner(k, w, coef))
        solver = cg if self.A.is_symmetric else bicgstab
        return solver(op, rhs, rtol=rtol, atol=0.0, maxiter=400, M=pre)

    def preconditioner(self, k: np.ndarray, w: np.ndarray | None = None,
                       coef: np.ndarray | None = None):
        """The Krylov preconditioner, as a function of the residual.

        T = P S1 E / cbar, the spectral inverse of the constant-coefficient
        surrogate at cbar = a_* + mean(k) (S1 as in _ActiveGram), corrected
        for the stiff part of the Newton Jacobian.  At each of the p torus
        nodes a with coef > 0 the linearized flux adds the rank-one term
        beta_a u_a u_a^T, with w_a = |w_a| n_a, u_a = P G^T(n_a e_a) and
        beta_a = coef_a |w_a|^2; on binding_2d these give T J one eigenvalue
        above 10 per active node, up to 914 at eps 0.5 and 1.14e4 at 0.04.  M = T^-1 + U diag(beta) U^T
        removes them, and its exact inverse (Sherman-Morrison-Woodbury) is

            M^-1 r = T r - T U C^-1 U^T T r,  C = diag(1/beta) + U^T T U,

        with C factored by a p x p Cholesky.  U^T T U is gathered from the
        Gram matrix of the rows g_(i,a) (_active_gram, grown as nodes become
        active) and scaled by 1/cbar; U^T t is the gradient of E t read at
        the active nodes, and U c is P(-div^sigma) of the flux c_a n_a at
        node a.  So an apply costs eight transforms instead of two.  A
        frozen (Picard) system, one with no active node, or a C that is not
        numerically positive definite keeps T alone."""
        gram = _active_gram(self.grid, self.data.sigma, self.inside.tobytes())
        cbar = self.data.A.a_star + float(k.mean())
        symbol = gram.symbol / cbar

        def spectral(v):
            return self.pack(apply_symbol(self.unpack(v), symbol))
        if w is None:
            return spectral
        active = gram.stored(np.flatnonzero(coef > 0.0))
        if not active.size:
            return spectral
        dim = self.grid.dim
        w_active = w.reshape(dim, -1)[:, active]
        mag = magnitude(w_active)
        normal = w_active / mag
        with np.errstate(over="ignore"):
            inv_beta = 1.0 / (coef.reshape(-1)[active] * mag * mag)
        C = gram.form(active, normal) / cbar
        C[np.diag_indices_from(C)] += inv_beta
        try:
            factor = cho_factor(C, check_finite=False)
        except np.linalg.LinAlgError:
            return spectral
        grid, sigma, inside = self.grid, self.data.sigma, self.inside
        flux = np.zeros((dim,) + grid.shape)

        def corrected(v):
            t = apply_symbol(self.unpack(v), symbol) * inside  # E T v
            ut = np.sum(normal * grad_arrays(t, grid, sigma).reshape(dim, -1)[:, active], axis=0)
            flux.reshape(dim, -1)[:, active] = normal * cho_solve(
                factor, ut, check_finite=False)
            return self.pack(t - apply_symbol(neg_div_arrays(flux, grid, sigma) * inside,
                                              symbol))
        return corrected


def solve_penalized(data: ProblemData, eps: float, init: ScalarField,
                    cfg: PenaltyConfig) -> ScalarField:
    """Solve the penalized quasilinear problem at fixed eps.

    Semismooth Newton, whose backtracking starts at the full step 1.  On a
    small problem (N * num_nodes * m^2 at most DENSE_NEWTON_BUDGET, m inside
    nodes) whose restricted gradient G has full column rank, each Newton
    system is assembled from G and solved exactly (forcing 0), and so is a
    Picard fallback's frozen system.  On every other problem Newton is
    inexact: each system is solved by a Krylov method to relative tolerance
    NEWTON_FORCING only.  Backtracking accepts a step that passes either of
    two Armijo tests: one on the squared residual norm, or, when the
    applied coefficient is symmetric, one on the convex penalized energy
    phi, whose gradient is the residual r: by convexity phi(x + t d) <=
    phi(x) + t d.r(x + t d), so d.r(x + t d) <= 1e-4 d.r(x) < 0 gives
    sufficient decrease of phi.  A space-dependent skew part makes r no
    gradient and keeps the residual test only.  The residual test stays for
    symmetric coefficients too: the energy test rejects a step that reaches
    the minimum of phi along d, which is where a full Newton step lands
    near the solution.  Falls back to frozen-coefficient (Picard) steps,
    backtracking from half the step to the frozen solution, when Newton's
    backtracking stalls.  Converges to sup-norm residual on Omega below newton_tol * (1 +
    sup|f|) within newton_max Newton steps, the residual tested after the
    last one too, judged on the true residual, so the inexact directions do
    not weaken the stopping test.
    """
    u, _ = _solve_penalized_impl(data, eps, init, cfg)
    return u


def _solve_penalized_impl(data: ProblemData, eps: float, init: ScalarField,
                          cfg: PenaltyConfig) -> tuple:
    assert_supported(init, data.mask)
    sys = _PenalizedSystem(data, eps)
    x = sys.pack(init.values)
    tol = cfg.newton_tol * (1.0 + float(np.abs(data.f.values).max()))
    history = []
    nonconverged = 0  # Krylov solves of this eps step that did not converge
    w = sys.gradient(x)
    r = sys.residual_of_grad(w)
    for it in range(cfg.newton_max + 1):
        res_sup = float(np.abs(r).max())
        if res_sup <= tol:
            return ScalarField(data.grid, sys.unpack(x)), it
        if it == cfg.newton_max:
            failure = f"newton_max={cfg.newton_max} exceeded at eps={eps:.4g} ("
            break
        history.append(res_sup)  # one entry per Newton step taken or tried
        # solve for d / 2^e with 2^e near res_sup: an exact scaling that
        # keeps the Krylov norms of a residual beyond 1e154 representable
        scale = math.ldexp(1.0, min(math.frexp(res_sup)[1], 1023))
        k, coef = sys.linearization(w)
        d, info = sys.solve(-r / scale, k, w, coef)
        d *= scale
        nonconverged += info != 0
        with np.errstate(over="ignore", invalid="ignore"):
            merit0, slope0 = float(r @ r), float(d @ r)
        # residual Armijo test, or the energy one (see the docstring)
        trial = _backtrack(sys, x, d, 1.0, lambda merit, r_try, step: (
            merit <= (1.0 - 1e-4 * step) * merit0
            or (sys.A.is_symmetric and float(d @ r_try) <= 1e-4 * slope0 < 0.0)))
        if trial is None:
            # Picard fallback: frozen-coefficient solve, small safe steps
            x_lin, info = sys.solve(sys.f_inside, k, rtol=1e-10)
            nonconverged += info != 0
            trial = _backtrack(sys, x, x_lin - x, 0.5,
                               lambda merit, r_try, step: merit < merit0)
        if trial is None:
            failure = f"no descent at eps={eps:.4g} (residual {res_sup:.3e}, "
            break
        x, w, r = trial
    raise SolverDivergence(
        failure + f"{nonconverged} Krylov solves not converged)",
        iterate=ScalarField(data.grid, sys.unpack(x)), history=history,
        krylov_nonconverged=nonconverged)


def _backtrack(sys: _PenalizedSystem, x: np.ndarray, d: np.ndarray, step: float,
               accept) -> tuple | None:
    """First of the trials x + step d, step halved up to 30 times, whose
    merit r.r is finite and passes accept(merit, r, step), r the trial's
    residual: (x_try, D^sigma x_try, r), or None when no trial passes."""
    for _ in range(30):
        x_try = x + step * d
        w_try = sys.gradient(x_try)
        r_try = sys.residual_of_grad(w_try)
        # a trial whose merit overflows is rejected: its d.r may read -inf
        with np.errstate(over="ignore", invalid="ignore"):
            merit = float(r_try @ r_try)
            if math.isfinite(merit) and accept(merit, r_try, step):
                return x_try, w_try, r_try
        step *= 0.5
    return None


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
    """Random member of the constraint set: a band-limited field
    (random_band_limited) shaped into Omega, scaled so that its peak
    |D^sigma| is 0.8 min g, then shrunk by nu/(nu+eta) with eta its
    feasibility excess."""
    grid = data.grid
    shaped = random_band_limited(grid, rng, kmax=kmax).values * _smooth_bump(data.mask)
    if data.mask.is_full:
        shaped = shaped - shaped.mean()
    # aim near the constraint surface so directions are informative
    mag_max = float(magnitude(grad_arrays(shaped, grid, data.sigma)).max())
    if mag_max > 0:
        shaped = shaped * (0.8 * float(data.g.g.values.min()) / mag_max)
    eta = _violation_of_grad(grad_arrays(shaped, grid, data.sigma), data)
    return ScalarField(grid, data.g.nu / (data.g.nu + eta) * shaped)


def shrink_to_feasible(u: ScalarField, data: ProblemData) -> ScalarField:
    """Post-hoc strictly feasible output: u scaled by nu/(nu+eta), then by
    further factors 1 - 4 machine eps while round-off in the recomputed
    gradient still leaves an excess above g."""
    return _shrink_with_grad(u, data, grad_arrays(u.values, data.grid, data.sigma))


def _shrink_with_grad(u: ScalarField, data: ProblemData, w: np.ndarray) -> ScalarField:
    """shrink_to_feasible(u, data) given w = D^sigma u."""
    eta = _violation_of_grad(w, data)
    if eta == 0.0:
        return u
    factor = data.g.nu / (data.g.nu + eta)
    while True:
        shrunk = ScalarField(u.grid, factor * u.values)
        w = grad_arrays(shrunk.values, data.grid, data.sigma)
        if _violation_of_grad(w, data) == 0.0:
            return shrunk
        factor *= 1.0 - 4.0 * np.finfo(float).eps


def vi_residual(u: ScalarField, data: ProblemData, trials: int = 32,
                seed: int = 0) -> float:
    """Minimum of <A D^sigma u, D^sigma(v-u)> - <f, v-u> over sampled
    feasible v; nonnegative (within tolerance) iff u solves the problem.

    The candidates v are 0, shrink_to_feasible(u) and `trials`
    sample_feasible fields.
    """
    rng = np.random.default_rng(seed)
    grid = data.grid
    w = grad_arrays(u.values, grid, data.sigma)
    Aw = data.A.apply(w)
    hN = grid.cell_volume
    f = data.f.values.ravel()

    def functional(v: np.ndarray) -> float:
        dv = v - u.values
        pairing = float(np.sum(Aw * grad_arrays(dv, grid, data.sigma)))
        return hN * pairing - hN * float(np.dot(f, dv.ravel()))

    values = [functional(np.zeros(grid.shape)),
              functional(_shrink_with_grad(u, data, w).values)]
    values += [functional(sample_feasible(data, rng).values) for _ in range(trials)]
    return min(values)


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


def _scaled_stages(data: ProblemData, cfg: PenaltyConfig) -> tuple:
    """Cold-start path into the eps schedule: eps0 solves on the data scaled
    by mu = ratio^4, then ratio^2, each from the last iterate rescaled.
    penalty_value(mu s, eps) is the penalty of parameter eps/mu (its cap
    moved), so stage mu solves the problem at eps0/mu, scaled by mu: the
    schedule gains two ratio^2 steps above eps0.  Returns the start of the
    schedule, u/mu of the last stage, and the stages' Newton steps."""
    u = ScalarField(data.grid, np.zeros(data.grid.shape))
    iters = 0
    prev_mu = 1.0
    for mu in (cfg.ratio**4, cfg.ratio**2):
        u = ScalarField(data.grid, (mu / prev_mu) * u.values)
        u, it = _solve_penalized_impl(data.scaled(mu), cfg.eps0, u, cfg)
        iters += it
        prev_mu = mu
    return ScalarField(data.grid, u.values / prev_mu), iters


def _splitting_start(data: ProblemData, cfg: PenaltyConfig) -> ScalarField:
    """Loose splitting (ADMM) solve of the constrained minimization of
    1/2 <A D^sigma u, D^sigma u> - <f, u>, the start of a cold dense solve
    whose applied coefficient is symmetric.

    Plain sweeps from (w, y) = 0 at penalty rho = a_*, the lower bound of A,
    as in the oracle: the linear step in u with the gradient target w and
    scaled dual y fixed, the ball projection of D^sigma u + y for w, and
    the dual ascent.  The linear step's matrix G^T (A + rho) G is
    _PenalizedSystem.assemble(rho), positive definite because gram_spectrum
    certified G; each sweep solves it by LU with one right-hand side, the
    LAPACK call of the Newton path (README "Numerical notes" says why not a
    factor or an inverse kept across sweeps).  Stops when the primal and
    dual residuals, both in gradient units (the dual without rho), are at
    most SEED_TOL (1 + |D^sigma u|), or after SEED_SWEEPS sweeps; either
    way it returns the last u.  So scaling A and f together changes
    neither the iterates nor the number of sweeps."""
    grid = data.grid
    hN = grid.cell_volume
    sys = _PenalizedSystem(data, cfg.eps0)
    rho = data.A.a_star
    matrix = sys.assemble(np.full(grid.shape, rho))
    w = y = np.zeros((grid.dim,) + grid.shape)
    for _ in range(SEED_SWEEPS):
        x = np.linalg.solve(matrix, sys.f_inside + rho * sys.neg_div(w - y))
        du = sys.gradient(x)
        w_next = ball_projection(du + y, sys.g)
        y = y + du - w_next
        primal = math.sqrt(hN * float(np.sum((du - w_next) ** 2)))
        dual = math.sqrt(hN * float(np.sum(sys.neg_div(w_next - w) ** 2)))
        w = w_next
        if max(primal, dual) <= SEED_TOL * (1.0 + math.sqrt(hN * float(np.sum(du**2)))):
            break
    return ScalarField(grid, sys.unpack(x))


def solve_vi(data: ProblemData, cfg: PenaltyConfig | None = None,
             init: ScalarField | VISolution | None = None) -> VISolution:
    """Continuation solve of the constrained problem.

    Runs the penalized solver along the geometric eps schedule with warm
    starts, stopping early once successive iterates differ by less than
    newton_tol in the fractional Sobolev norm; the multiplier is the
    penalty coefficient at the final eps.

    A cold start (init None or all zero) takes one of three paths into the
    first eps step:
    - on the Krylov path (see _dense_gradient), the scaled-data stages of
      _scaled_stages, which lengthen the schedule by two eps steps above
      eps0 and cut the Krylov iterations of the first eps step; their
      Newton steps are counted in trace[0].newton_iters;
    - on the dense path with a symmetric applied coefficient, the loose
      splitting solve of _splitting_start, whose iterate lies near the
      constrained solution that the whole schedule approaches;
    - on the dense path with a skew part that varies in space, zero.
    From the third eps step on, each step starts from the secant
    prediction u2 + (eps - eps2) / (eps2 - eps1) (u2 - u1) through the last
    two iterates (eps1, u1) and (eps2, u2) of this call, on both paths.  A
    SolverDivergence from a predicted start (the splitting start or the
    secant) reruns the step from the unpredicted one (zero, or u2), and
    that step's trace row counts the Newton steps of both attempts.  Each
    penalized solve converges to newton_tol whatever its start.  Krylov
    solves on a mask share its _active_gram, so one after others on the
    mask may differ from a first one at round-off, in the preconditioner.

    An init that is the VISolution `prev` of a nearby problem (same mask,
    sigma and A, else ValueError) is continued where continues(data): from
    the tangent predictor of _continued, one penalized solve at eps_min
    with newton_max at most CONTINUED_NEWTON_MAX gives one trace row.  If
    it diverges, or where not continues(data), the cold solve runs, a
    failed attempt's Newton steps added to its trace[0].

    Every summary field of the returned VISolution is that of the last
    trace row.  Feasibility is only reached asymptotically along the
    schedule; a caller that needs a strictly feasible field takes
    shrink_to_feasible(sol.u, data).  The sampled diagnostic of the returned
    u runs when its vi_res is first read.
    """
    cfg = cfg or PenaltyConfig()
    if isinstance(init, VISolution):
        u, trace, k = _continued(data, cfg, init)
    else:
        u, trace, k = _along_schedule(data, cfg, init)
    last = trace[-1]
    return VISolution(
        u=u,
        multiplier=ScalarField(data.grid, k),  # the last row's
        eps_final=last.eps,
        feas_violation=last.feas_violation,
        comp_gap=last.comp_gap,
        energy=last.energy,
        data=data,
        trace=trace,
    )


def _along_schedule(data: ProblemData, cfg: PenaltyConfig,
                    init: ScalarField | None) -> tuple:
    """solve_vi's eps schedule from init: (u, trace, multiplier values)."""
    grid = data.grid
    u = init if init is not None else ScalarField(grid, np.zeros(grid.shape))
    cold = not np.any(u.values)
    guess = u  # the start of the next eps step
    stage_iters = 0
    if cold and _dense_gradient(data.mask, data.sigma) is None:
        u, stage_iters = _scaled_stages(data, cfg)
        guess = u
    elif cold and data.A.applied.is_symmetric:
        guess = _splitting_start(data, cfg)
    trace = []
    path = []  # (eps, iterate) of the last two eps steps
    for eps in cfg.schedule():
        if len(path) == 2:
            (eps1, u1), (eps2, u2) = path
            guess = ScalarField(grid, u2.values + (eps - eps2) / (eps2 - eps1)
                                * (u2.values - u1.values))
        try:
            u_next, iters = _solve_penalized_impl(data, eps, guess, cfg)
        except SolverDivergence as exc:
            if guess is u:
                raise
            u_next, iters = _solve_penalized_impl(data, eps, u, cfg)
            iters += len(exc.history)
        u = guess = u_next
        row, k = _trace_row(data, u, eps, iters)
        trace.append(row)
        if path:
            delta = hsigma_norm(
                ScalarField(grid, u.values - path[-1][1].values), data.sigma)
            if delta < cfg.newton_tol:
                break
        path = path[-1:] + [(eps, u)]
    trace[0].newton_iters += stage_iters
    return u, trace, k


def _continued(data: ProblemData, cfg: PenaltyConfig, prev: VISolution) -> tuple:
    """solve_vi from the solution prev of a nearby problem: (u, trace,
    multiplier values).  It starts from prev.u + d, d solving prev's Newton
    system at prev.u for the change of the residual with the data: f - f_prev
    on Omega plus P(-div^sigma)[k'(s) (g - g_prev) D^sigma u_prev], k' the
    penalty slope."""
    old = prev.data
    if (old.mask != data.mask or old.sigma != data.sigma
            or not np.array_equal(old.A.values, data.A.values)):
        raise ValueError("init solves a problem on another mask, sigma or A")
    if not continues(data):
        return _along_schedule(data, cfg, None)
    sys = _PenalizedSystem(old, prev.eps_final)
    x = sys.pack(prev.u.values)
    w = sys.gradient(x)
    k, coef = sys.linearization(w)
    slope_dg = (coef * magnitude(w)) * (data.g.g.values - old.g.g.values)  # k' (g - g_prev)
    rhs = sys.pack(data.f.values - old.f.values) + sys.neg_div(slope_dg * w)
    d, _ = sys.solve(rhs, k, w, coef)
    start = ScalarField(data.grid, sys.unpack(x + d))
    try:
        u, iters = _solve_penalized_impl(data, cfg.eps_min, start, replace(
            cfg, newton_max=min(cfg.newton_max, CONTINUED_NEWTON_MAX)))
    except SolverDivergence as exc:
        u, trace, k = _along_schedule(data, cfg, None)
        trace[0].newton_iters += len(exc.history)
        return u, trace, k
    row, k = _trace_row(data, u, cfg.eps_min, iters)
    return u, [row], k


def multiplier_equation_residual(sol: VISolution, data: ProblemData) -> float:
    """Sup-norm on Omega of -div^sigma[(lambda + A) D^sigma u] - f."""
    grid = data.grid
    w = grad_arrays(sol.u.values, grid, data.sigma)
    flux = sol.multiplier.values[None, ...] * w + data.A.apply(w)
    r = neg_div_arrays(flux, grid, data.sigma) - data.f.values
    return float(np.abs(r[data.mask.inside]).max())
