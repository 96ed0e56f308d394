"""Independent reference solvers at tiny scale.

For symmetric coefficients the constrained problem is the minimization of
the quadratic energy over the convex set |D^sigma u| <= g; this module
solves that program by operator splitting (ADMM: alternating a
prefactorized linear step in u, a nodewise ball projection of the gradient
target w, and a dual ascent in the scaled multiplier y), entirely
independent of the penalization route.  An unconstrained spectral / dense
linear solver covers inactive cases.

The penalty parameter is rho = a_*, the lower bound of A, so the linear
step's matrix, of u -> P[-div^s((A + rho) D^s E u)], is Cholesky-factored
once per call, and the iteration is unchanged when A and f are scaled
together.  Type-II Anderson acceleration (Zhang, O'Donoghue & Boyd, SIAM
J. Optim. 30 (2020)) of one sweep as a fixed-point map z -> F(z) of the
state z = (w, y), over the last ANDERSON_MEMORY differences, cuts
binding_2d's linear solves from 230 to 47.  The memory is cleared when
||F(z) - z|| grows by more than ANDERSON_SAFEGUARD over the previous
sweep; the next state is then the plain F(z).  Every iteration is one
sweep, so one linear solve, and the stopping test reads the primal/dual
residuals of that sweep, so tol means what it meant for the plain
iteration.

Each iteration calls `cho_solve` on the factor (two triangular solves)
through this module's names `cho_factor` and `cho_solve`, which the
benchmark counts as factorizations and iterations.  An explicit inverse
applied by a symmetric matrix-vector product would be faster per
iteration, but it costs an extra m^3 inversion and gives up the
triangular solves' backward stability.
"""

from __future__ import annotations

import math
import numbers

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .fields import ScalarField, ball_projection, lp_norm, magnitude
from .fracgrad import (
    apply_symbol,
    check_dense_limit,
    grad_arrays,
    gram_matrix,
    multiplier_table,
    neg_div_arrays,
)
from .vi import ProblemData, SolverDivergence

# differences kept by the Anderson acceleration of the sweep
ANDERSON_MEMORY = 5
# growth of ||F(z) - z|| over the previous sweep that clears that memory
ANDERSON_SAFEGUARD = 1.5


def _constant_scalar(A) -> float | None:
    """The value of A when it is one scalar at every node, else None."""
    if A.is_scalar and np.ptp(A.values) == 0.0:
        return float(A.values.flat[0])
    return None


def _step_matrix(data: ProblemData, shift: float) -> np.ndarray:
    """The matrix of u -> P[-div^s((A + shift) D^s E u)] on the inside
    nodes.  A constant scalar A scales the restricted Gram matrix in place;
    any other A is assembled column by column, one gradient/divergence
    pair per inside node."""
    a = _constant_scalar(data.A)
    if a is not None:
        mat = gram_matrix(data.mask, data.sigma)
        mat *= a + shift
        return mat
    check_dense_limit(data.mask)
    grid, sigma, inside = data.grid, data.sigma, data.mask.inside
    mat = np.empty((data.mask.num_inside,) * 2)
    basis = np.zeros(grid.shape)
    for j, node in enumerate(np.argwhere(inside)):
        basis[tuple(node)] = 1.0
        w = grad_arrays(basis, grid, sigma)
        mat[:, j] = neg_div_arrays(data.A.apply(w) + shift * w, grid, sigma)[inside]
        basis[tuple(node)] = 0.0
    return mat


class _Anderson:
    """Type-II Anderson acceleration of a fixed-point map z -> F(z) (Zhang,
    O'Donoghue & Boyd, SIAM J. Optim. 30 (2020)): the next state is
    F(z) - dG gamma, where gamma minimizes |f - dF gamma| over the last
    ANDERSON_MEMORY differences dF of the residuals f = F(z) - z and dG of
    the images F(z).  The differences live in preallocated rows, and gamma
    comes from the regularized k x k normal equations."""

    def __init__(self, size: int):
        self.df = np.empty((ANDERSON_MEMORY, size))
        self.dg = np.empty((ANDERSON_MEMORY, size))
        self.normal = np.empty((ANDERSON_MEMORY, ANDERSON_MEMORY))
        self.f_last = np.empty(size)
        self.g_last = np.empty(size)
        self.reset()

    def reset(self) -> None:
        """Forget the history: the safeguard fired, or the differences
        were singular."""
        self.stored = 0
        self.row = 0
        self.last_norm = None

    def step(self, z: np.ndarray, image: np.ndarray) -> None:
        """Overwrite the state z with the next one, given image = F(z)."""
        z_flat, g = z.reshape(-1), image.reshape(-1)
        f = g - z_flat
        norm = float(np.sqrt(f @ f))
        if self.last_norm is not None and norm > ANDERSON_SAFEGUARD * self.last_norm:
            self.reset()
        z_flat[:] = g
        if self.last_norm is not None:
            j = self.row
            np.subtract(f, self.f_last, out=self.df[j])
            np.subtract(g, self.g_last, out=self.dg[j])
            self.row = (j + 1) % ANDERSON_MEMORY
            self.stored = k = min(self.stored + 1, ANDERSON_MEMORY)
            col = self.df[:k] @ self.df[j]
            self.normal[j, :k] = col
            self.normal[:k, j] = col
            # a Tikhonov term 1e-12 tr(H) keeps nearly collinear differences
            # from blowing up gamma; exactly zero ones fall back to a plain step
            normal = self.normal[:k, :k]
            try:
                gamma = np.linalg.solve(normal + 1e-12 * np.trace(normal) * np.eye(k),
                                        self.df[:k] @ f)
            except np.linalg.LinAlgError:
                self.reset()
            else:
                z_flat -= gamma @ self.dg[:k]
        self.f_last[:] = f
        self.g_last[:] = g
        self.last_norm = norm


def oracle_solve_pde(data: ProblemData) -> ScalarField:
    """Unconstrained linear solve; errors out if the constraint turns out
    to be active.  Full-torus constant scalar coefficients go through exact
    spectral inversion, masked domains through a dense factorization."""
    grid = data.grid
    a = _constant_scalar(data.A)
    if data.mask.is_full and a is not None:
        _, mag_sigma = multiplier_table(grid, data.sigma)
        mult = mag_sigma**2
        inverse = np.where(mult > 0.0, 1.0 / (a * np.where(mult > 0, mult, 1.0)), 0.0)
        u_vals = apply_symbol(data.f.values, inverse)
    else:
        x = np.linalg.solve(_step_matrix(data, 0.0), data.f.values[data.mask.inside])
        u_vals = np.zeros(grid.shape)
        u_vals[data.mask.inside] = x
    u = ScalarField(grid, u_vals)
    # residual check
    w = grad_arrays(u.values, grid, data.sigma)
    r = neg_div_arrays(data.A.apply(w), grid, data.sigma) - data.f.values
    r = np.where(data.mask.inside, r, 0.0)
    fnorm = lp_norm(data.f, 2)
    if float(np.abs(r).max()) > 1e-10 * max(1.0, fnorm):
        raise SolverDivergence("linear oracle residual too large")
    if float((magnitude(w) - data.g.g.values).max()) >= 0.0:
        raise ValueError("constraint active: use the constrained path")
    return u


def check_oracle_input(data: ProblemData) -> None:
    """ValueError unless A is symmetric and the mask within the dense limit."""
    if not data.A.is_symmetric:
        raise ValueError("oracle requires symmetric coefficients")
    check_dense_limit(data.mask)


def oracle_solve_vi(data: ProblemData, tol: float = 1e-9,
                    max_iter: int = 4000) -> ScalarField:
    """Splitting solve of the symmetric constrained program, at rho = a_*.

    Each iteration is one sweep from the state (w, y): (i) linear solve in
    u with the gradient target w and dual y fixed, (ii) ball projection of
    D^s u + y for w, (iii) dual ascent.  The next state is the Anderson
    extrapolation of the sweeps.  It stops when both residuals of a sweep
    are below tol (relative to 1 + |D^s u|); max_iter bounds the sweeps,
    so the linear solves.
    """
    check_oracle_input(data)
    if not 0.0 < tol < math.inf:
        raise ValueError(f"need a finite tol > 0, got {tol}")
    if isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral) \
            or max_iter < 1:
        raise ValueError(f"need an integer max_iter >= 1, got {max_iter!r}")
    grid = data.grid
    inside = data.mask.inside
    f_in = data.f.values[inside]
    sigma = data.sigma
    g_vals = data.g.g.values
    hN = grid.cell_volume
    rho = data.A.a_star
    chol = cho_factor(_step_matrix(data, rho))
    z = np.zeros((2, grid.dim) + grid.shape)  # the state (w, y)
    image = np.empty_like(z)  # its sweep F(z)
    accel = _Anderson(z.size)
    u_vals = np.zeros(grid.shape)
    for _ in range(max_iter):
        w, y = z
        rhs = f_in + neg_div_arrays(w - y, grid, sigma)[inside] * rho
        # cho_factor checked the matrix; rescanning its factor on every
        # iteration cost a third of each solve, so only the m-vector is checked
        if not np.isfinite(rhs).all():
            raise ValueError("array must not contain infs or NaNs")
        u_vals[inside] = cho_solve(chol, rhs, check_finite=False)
        du = grad_arrays(u_vals, grid, sigma)
        image[0] = ball_projection(du + y, g_vals)
        image[1] = y + du - image[0]
        primal = float(np.sqrt(hN * np.sum((du - image[0]) ** 2)))
        dual_field = neg_div_arrays(image[0] - w, grid, sigma)[inside]
        dual = rho * float(np.sqrt(hN * np.sum(dual_field**2)))
        size = 1.0 + float(np.sqrt(hN * np.sum(du**2)))
        if primal <= tol * size and dual <= tol * size:
            return ScalarField(grid, u_vals)
        accel.step(z, image)
    raise SolverDivergence(
        f"splitting oracle: max_iter={max_iter} reached "
        f"(primal {primal:.3e}, dual {dual:.3e})",
        iterate=ScalarField(grid, u_vals))
