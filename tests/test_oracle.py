import math

import numpy as np
import pytest

import frvi.oracle
from frvi.fields import (
    ScalarField,
    VectorField,
    full_torus,
    make_grid,
    mask_box,
    scalar_field,
    zero_field,
)
from frvi.fracgrad import hsigma_norm
from frvi.instances import VI_CFG, small_binding_1d
from frvi.oracle import (
    certify_minimum,
    oracle_solve_pde,
    oracle_solve_vi,
    project_ball,
)
from frvi.vi import (
    EllipticCoefficients,
    ProblemData,
    Threshold,
    energy,
    feasibility_violation,
    identity_coefficients,
    solve_vi,
)


def test_project_ball_identity_inside():
    g = make_grid(1, 1.0, 16)
    w = VectorField(g, (np.full(g.shape, 0.5),))
    thr = Threshold(scalar_field(g, 1.0), 1.0)
    out = project_ball(w, thr)
    assert np.array_equal(out.components[0], w.components[0])


def test_project_ball_scalar_case():
    g = make_grid(1, 1.0, 16)
    w = VectorField(g, (np.full(g.shape, 3.0),))
    thr = Threshold(scalar_field(g, 1.0), 1.0)
    out = project_ball(w, thr)
    assert np.allclose(out.components[0], 1.0)


def test_project_ball_idempotent():
    # reprojection may touch the last bit where |w| rounds a hair above g
    rng = np.random.default_rng(2)
    g = make_grid(2, 1.0, 16)
    w = VectorField(g, (rng.normal(size=g.shape), rng.normal(size=g.shape)))
    thr = Threshold(scalar_field(g, 0.7), 0.7)
    once = project_ball(w, thr)
    twice = project_ball(once, thr)
    for a, b in zip(once.components, twice.components):
        np.testing.assert_allclose(a, b, rtol=1e-15, atol=0.0)


def test_pde_oracle_pure_mode():
    g = make_grid(1, math.pi, 64)
    x = g.axis()
    k, sigma, a = 3, 0.5, 2.0
    f = ScalarField(g, a * k ** (2 * sigma) * np.sin(k * x))
    data = ProblemData(full_torus(g), sigma, identity_coefficients(g, a), f,
                       Threshold(scalar_field(g, 10.0), 10.0))
    u = oracle_solve_pde(data)
    assert np.abs(u.values - np.sin(k * x)).max() < 1e-10


def test_pde_oracle_zero_source():
    g = make_grid(1, math.pi, 32)
    data = ProblemData(full_torus(g), 0.5, identity_coefficients(g),
                       zero_field(g), Threshold(scalar_field(g, 1.0), 1.0))
    u = oracle_solve_pde(data)
    assert np.abs(u.values).max() == 0.0


def test_pde_oracle_masked_dense():
    g = make_grid(1, 2.0, 64)
    m = mask_box(g, 1.0)
    f = ScalarField(g, np.where(m.inside, 1.0, 0.0))
    data = ProblemData(m, 0.5, identity_coefficients(g), f,
                       Threshold(scalar_field(g, 1e4), 1e4))
    u = oracle_solve_pde(data)
    # residual check is internal (raises above 1e-10 * |f|); spot check support
    assert np.all(u.values[~m.inside] == 0.0)
    assert np.abs(u.values).max() > 0.0


def test_pde_oracle_masked_variable_coefficient():
    # a variable scalar A takes the column-by-column assembly; the oracle's
    # internal residual check (1e-10 * |f|) verifies the solve
    g = make_grid(1, 2.0, 64)
    m = mask_box(g, 1.0)
    A = EllipticCoefficients(g, 1.5 + 0.5 * np.cos(np.pi * g.axis() / 2.0),
                             a_star=1.0, a_upper=2.0)
    f = ScalarField(g, np.where(m.inside, 1.0, 0.0))
    data = ProblemData(m, 0.5, A, f, Threshold(scalar_field(g, 1e4), 1e4))
    u = oracle_solve_pde(data)
    assert np.all(u.values[~m.inside] == 0.0)
    const = oracle_solve_pde(ProblemData(m, 0.5, identity_coefficients(g, 1.5), f,
                                         data.g))
    assert not np.allclose(u.values, const.values)


def test_pde_oracle_rejects_active_constraint():
    g = make_grid(1, 2.0, 64)
    m = mask_box(g, 1.0)
    f = ScalarField(g, np.where(m.inside, 10.0, 0.0))
    data = ProblemData(m, 0.5, identity_coefficients(g), f,
                       Threshold(scalar_field(g, 1.0), 1.0))
    with pytest.raises(ValueError, match="active"):
        oracle_solve_pde(data)


def test_splitting_oracle_zero_source():
    g = make_grid(1, 2.0, 32)
    m = mask_box(g, 1.0)
    data = ProblemData(m, 0.5, identity_coefficients(g), zero_field(g),
                       Threshold(scalar_field(g, 1.0), 1.0))
    u = oracle_solve_vi(data, tol=1e-10, max_iter=50)
    assert np.abs(u.values).max() < 1e-12


def test_splitting_oracle_matches_pde_when_inactive():
    g = make_grid(1, 2.0, 64)
    m = mask_box(g, 1.0)
    f = ScalarField(g, np.where(m.inside, 1.0, 0.0))
    data = ProblemData(m, 0.5, identity_coefficients(g), f,
                       Threshold(scalar_field(g, 1e4), 1e4))
    u_pde = oracle_solve_pde(data)
    u_adm = oracle_solve_vi(data, tol=1e-11)
    gap = hsigma_norm(ScalarField(g, u_pde.values - u_adm.values), 0.5)
    assert gap <= 1e-8 * max(1.0, hsigma_norm(u_pde, 0.5))


def test_splitting_oracle_rejects_nonsymmetric():
    from frvi.vi import EllipticCoefficients

    g = make_grid(2, 1.0, 8)
    vals = np.zeros(g.shape + (2, 2))
    vals[..., 0, 0] = 1.0
    vals[..., 1, 1] = 1.0
    vals[..., 0, 1] = 0.2
    vals[..., 1, 0] = -0.2
    A = EllipticCoefficients(g, vals, a_star=1.0, a_upper=1.3)
    m = mask_box(g, 0.5)
    data = ProblemData(m, 0.5, A, zero_field(g),
                       Threshold(scalar_field(g, 1.0), 1.0))
    with pytest.raises(ValueError, match="symmetric"):
        oracle_solve_vi(data)


def test_splitting_oracle_rejects_non_finite_right_hand_side(monkeypatch):
    # the Cholesky factor is checked once, when formed; each iteration's
    # right-hand side is still checked before the triangular solves
    g = make_grid(1, 2.0, 32)
    m = mask_box(g, 1.0)
    data = ProblemData(m, 0.5, identity_coefficients(g), zero_field(g),
                       Threshold(scalar_field(g, 1.0), 1.0))
    monkeypatch.setattr(frvi.oracle, "neg_div_arrays",
                        lambda w, grid, sigma: np.full(grid.shape, np.nan))
    with pytest.raises(ValueError, match="infs or NaNs"):
        oracle_solve_vi(data, max_iter=5)


@pytest.fixture(scope="module")
def binding_pair():
    data = small_binding_1d()
    return data, solve_vi(data, VI_CFG), oracle_solve_vi(data, tol=1e-9)


def test_oracle_agrees_with_penalty_solver(binding_pair):
    data, sol, u_or = binding_pair
    gap = hsigma_norm(ScalarField(data.grid, sol.u.values - u_or.values),
                      data.sigma)
    assert gap <= 1e-3 * hsigma_norm(u_or, data.sigma)


def test_oracle_energy_not_above_penalty_energy(binding_pair):
    data, sol, u_or = binding_pair
    j_or, j_pen = energy(u_or, data), energy(sol.u, data)
    scale = abs(j_or) + 1.0
    # the oracle minimizes over the feasible set; the penalty iterate may dip
    # slightly below by running infeasible at the floor
    assert j_or <= j_pen + 1e-4 * scale
    assert abs(j_or - j_pen) <= 1e-4 * abs(j_or)


def test_oracle_output_feasible(binding_pair):
    data, _, u_or = binding_pair
    assert feasibility_violation(u_or, data) <= 1e-6 * data.g.nu


def test_oracle_certified_minimum(binding_pair):
    data, _, u_or = binding_pair
    assert certify_minimum(u_or, data, samples=300, tol=1e-9)


def test_oracle_node_limit():
    g = make_grid(2, 2.0, 128)
    m = mask_box(g, 1.5, min_padding=0.1)  # 95^2 = 9025 unknowns
    f = ScalarField(g, np.where(m.inside, 1.0, 0.0))
    data = ProblemData(m, 0.5, identity_coefficients(g), f,
                       Threshold(scalar_field(g, 1.0), 1.0))
    with pytest.raises(ValueError, match="dense"):
        oracle_solve_vi(data, max_iter=2)
