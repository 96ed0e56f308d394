"""Independent reference solvers at tiny scale.

For symmetric coefficients the constrained problem is the minimization of
the quadratic energy over the convex set |D^sigma u| <= g; this module
solves that program by operator splitting (alternating a prefactorized
linear step in u, a nodewise ball projection of the gradient target, and
a dual ascent), entirely independent of the penalization route.  An
unconstrained spectral / dense linear solver covers inactive cases.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .fields import ScalarField, VectorField, lp_norm, magnitude
from .fracgrad import (
    apply_symbol,
    grad_arrays,
    gram_matrix,
    multiplier_table,
    neg_div_arrays,
)
from .vi import (
    ProblemData,
    SolverDivergence,
    Threshold,
    energy,
    sample_feasible,
)

ORACLE_NODE_LIMIT = 16384


def project_ball(w: VectorField, g: Threshold) -> VectorField:
    """Nodewise Euclidean projection onto {|w(x)| <= g(x)}."""
    mag = w.magnitude()
    factor = np.where(mag > g.g.values, g.g.values / np.where(mag > 0, mag, 1.0), 1.0)
    return VectorField(w.grid, tuple(factor * c for c in w.components))


def _constant_scalar(A) -> float | None:
    """The value of A when it is one scalar at every node, else None."""
    if A.is_scalar and np.ptp(A.values) == 0.0:
        return float(A.values.flat[0])
    return None


def _dense_operators(data: ProblemData) -> tuple:
    """(mat_a, mat_lap): u -> P[-div^s(C D^s E u)] on the inside nodes for
    C = A and C = 1.  mat_lap is the restricted Gram matrix; a constant
    scalar A scales it, any other A is assembled column by column."""
    mat_lap = gram_matrix(data.mask, data.sigma)
    a = _constant_scalar(data.A)
    if a is not None:
        return (mat_lap if a == 1.0 else a * mat_lap), mat_lap
    grid, sigma, inside = data.grid, data.sigma, data.mask.inside
    mat_a = np.zeros(mat_lap.shape)
    basis = np.zeros(grid.shape)
    for j, node in enumerate(np.argwhere(inside)):
        basis[tuple(node)] = 1.0
        w = grad_arrays(basis, grid, sigma)
        mat_a[:, j] = neg_div_arrays(data.A.apply(w), grid, sigma)[inside]
        basis[tuple(node)] = 0.0
    return mat_a, mat_lap


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
        mat_a, _ = _dense_operators(data)
        x = np.linalg.solve(mat_a, data.f.values[data.mask.inside])
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


def oracle_solve_vi(data: ProblemData, rho: float = 1.0, tol: float = 1e-9,
                    max_iter: int = 4000) -> ScalarField:
    """Splitting solve of the symmetric constrained program.

    Alternates: (i) linear solve in u with the gradient target w and dual y
    fixed, (ii) ball projection for w, (iii) dual ascent; rho is rebalanced
    by factors of two when the primal and dual residuals drift apart.
    """
    if not data.A.is_symmetric:
        raise ValueError("oracle requires symmetric coefficients")
    grid = data.grid
    if grid.num_nodes > ORACLE_NODE_LIMIT:
        raise ValueError("grid too large for the oracle")
    mat_a, mat_lap = _dense_operators(data)
    inside = data.mask.inside
    f_in = data.f.values[inside]
    sigma = data.sigma

    shape = (grid.dim,) + grid.shape
    w = np.zeros(shape)
    y = np.zeros(shape)
    factor = cho_factor(mat_a + rho * mat_lap)
    since_refactor = 0
    for it in range(max_iter):
        rhs = f_in + neg_div_arrays(w - y, grid, sigma)[inside] * rho
        # cho_factor checked the matrix; rescanning its factor on every
        # iteration cost a third of each solve, so only the m-vector is checked
        if not np.isfinite(rhs).all():
            raise ValueError("array must not contain infs or NaNs")
        x = cho_solve(factor, rhs, check_finite=False)
        u_vals = np.zeros(grid.shape)
        u_vals[inside] = x
        du = grad_arrays(u_vals, grid, sigma)
        w_old = w
        w = np.stack(project_ball(VectorField(grid, tuple(du + y)), data.g).components)
        y = y + du - w
        hN = grid.cell_volume
        primal = float(np.sqrt(hN * np.sum((du - w) ** 2)))
        dual_field = neg_div_arrays(w - w_old, grid, sigma)[inside]
        dual = rho * float(np.sqrt(hN * np.sum(dual_field**2)))
        scale = 1.0 + float(np.sqrt(hN * np.sum(du**2)))
        if primal <= tol * scale and dual <= tol * scale:
            return ScalarField(grid, u_vals)
        since_refactor += 1
        if since_refactor >= 10:
            if primal > 10.0 * dual:
                rho *= 2.0
                y = y / 2.0
                factor = cho_factor(mat_a + rho * mat_lap)
                since_refactor = 0
            elif dual > 10.0 * primal:
                rho /= 2.0
                y = y * 2.0
                factor = cho_factor(mat_a + rho * mat_lap)
                since_refactor = 0
    raise SolverDivergence(
        f"splitting oracle: max_iter={max_iter} reached "
        f"(primal {primal:.3e}, dual {dual:.3e})",
        iterate=ScalarField(grid, u_vals))


def certify_minimum(u: ScalarField, data: ProblemData, samples: int = 1000,
                    tol: float = 1e-9, seed: int = 17) -> bool:
    """Check J(u) <= J(v) + tol*scale against sampled feasible v."""
    rng = np.random.default_rng(seed)
    ju = energy(u, data)
    scale = abs(ju) + 1.0
    for _ in range(samples):
        v = sample_feasible(data, rng)
        if energy(v, data) < ju - tol * scale:
            return False
    return True
