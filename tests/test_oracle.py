import math
from collections import Counter

import numpy as np
import pytest

import frvi.oracle
from frvi.fields import (
    ScalarField,
    ball_projection,
    full_torus,
    make_grid,
    mask_box,
    scalar_field,
    zero_field,
)
from frvi.fracgrad import hsigma_norm
from frvi.instances import VI_CFG, binding_1d, binding_2d, small_binding_1d
from frvi.oracle import oracle_solve_pde, oracle_solve_vi
from frvi.vi import (
    EllipticCoefficients,
    ProblemData,
    Threshold,
    energy,
    feasibility_violation,
    identity_coefficients,
    solve_vi,
    vi_residual,
)


def test_project_ball_identity_inside():
    g = make_grid(1, 1.0, 16)
    w = np.full((1,) + g.shape, 0.5)
    out = ball_projection(w, np.full(g.shape, 1.0))
    assert np.array_equal(out, w)


def test_project_ball_scalar_case():
    g = make_grid(1, 1.0, 16)
    out = ball_projection(np.full((1,) + g.shape, 3.0), np.full(g.shape, 1.0))
    assert np.allclose(out[0], 1.0)


def test_project_ball_idempotent():
    # reprojection may touch the last bit where |w| rounds a hair above g
    rng = np.random.default_rng(2)
    g = make_grid(2, 1.0, 16)
    w = np.stack([rng.normal(size=g.shape), rng.normal(size=g.shape)])
    bound = np.full(g.shape, 0.7)
    once = ball_projection(w, bound)
    twice = ball_projection(once, bound)
    np.testing.assert_allclose(once, twice, rtol=1e-15, atol=0.0)


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
    # J is convex, so J(v) - J(u) >= <A D^s u, D^s(v - u)> - <f, v - u>:
    # the inequality on 300 feasible draws gives J(u) <= J(v) + tol on each
    data, _, u_or = binding_pair
    scale = abs(energy(u_or, data)) + 1.0
    assert vi_residual(u_or, data, trials=300, seed=17) >= -1e-9 * scale


def test_oracle_node_limit():
    g = make_grid(2, 2.0, 128)
    m = mask_box(g, 1.5, min_padding=0.1)  # 95^2 = 9025 unknowns
    f = ScalarField(g, np.where(m.inside, 1.0, 0.0))
    data = ProblemData(m, 0.5, identity_coefficients(g), f,
                       Threshold(scalar_field(g, 1.0), 1.0))
    with pytest.raises(ValueError, match="dense"):
        oracle_solve_vi(data, max_iter=2)


@pytest.mark.parametrize("controls", [
    {"max_iter": 0}, {"max_iter": -1}, {"max_iter": 2.5}, {"max_iter": True},
    {"max_iter": "10"},
    {"max_iter": None}, {"max_iter": np.int64(0)}, {"max_iter": np.float64(3.0)},
    {"max_iter": 1e3},
    {"tol": 0.0}, {"tol": -1.0}, {"tol": math.inf}, {"tol": math.nan},
])
def test_splitting_oracle_rejects_bad_controls(controls):
    # max_iter=0 used to end in an UnboundLocalError, and a nan or negative
    # tol in a reported divergence
    (name,) = controls
    with pytest.raises(ValueError, match=name):
        oracle_solve_vi(small_binding_1d(), **controls)


def test_splitting_oracle_accepts_numpy_integer_max_iter():
    u = oracle_solve_vi(small_binding_1d(), max_iter=np.int64(200))
    assert np.abs(u.values).max() > 0.0


def _count_factor_and_solve_calls(monkeypatch):
    """Calls of frvi.oracle.cho_factor and cho_solve, the names the
    benchmark counts as oracle factorizations and iterations."""
    calls = Counter()
    for name in ("cho_factor", "cho_solve"):
        def counted(*args, _fn=getattr(frvi.oracle, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(frvi.oracle, name, counted)
    return calls


def test_binding_2d_oracle_solves_and_factorizations(monkeypatch):
    # Anderson-accelerated sweeps: 47 linear solves (230 for the plain
    # splitting); the step matrix is factored once per call
    data = binding_2d()
    calls = _count_factor_and_solve_calls(monkeypatch)
    oracle_solve_vi(data, tol=1e-9)
    assert calls["cho_solve"] <= 80
    assert calls["cho_factor"] == 1


def _binding_variable_coefficient_1d():
    """binding_1d's mask and threshold with A = 1.5 + 0.5 cos(pi x / 2) and
    twice its source: the constraint binds (largest multiplier about 1.5)."""
    base = binding_1d()
    g = base.grid
    A = EllipticCoefficients(g, 1.5 + 0.5 * np.cos(np.pi * g.axis() / 2.0),
                             a_star=1.0, a_upper=2.0)
    return ProblemData(base.mask, base.sigma, A, ScalarField(g, 2.0 * base.f.values),
                       base.g)


def test_oracle_agrees_with_penalty_solver_for_variable_coefficient(monkeypatch):
    # a variable A is assembled column by column and factored once
    data = _binding_variable_coefficient_1d()
    sol = solve_vi(data, VI_CFG)
    assert sol.multiplier.values.max() > 1.0
    calls = _count_factor_and_solve_calls(monkeypatch)
    u_or = oracle_solve_vi(data, tol=1e-9)
    assert calls["cho_factor"] == 1
    # acceptance 05's bounds
    gap = hsigma_norm(ScalarField(data.grid, sol.u.values - u_or.values), data.sigma)
    assert gap <= 1e-3 * hsigma_norm(u_or, data.sigma)
    j_or = energy(u_or, data)
    assert abs(energy(sol.u, data) - j_or) <= 1e-4 * abs(j_or)


@pytest.mark.parametrize("scale", [1.0 / 64.0, 64.0])
def test_oracle_is_invariant_to_scaling_a_and_f_together(monkeypatch, scale):
    # rho = a_* scales with A, so the sweeps of (c A, c f) are those of
    # (A, f) and the solution is the same
    data = small_binding_1d()
    ref = oracle_solve_vi(data, tol=1e-9)
    scaled = ProblemData(data.mask, data.sigma, identity_coefficients(data.grid, scale),
                         ScalarField(data.grid, scale * data.f.values), data.g)
    calls = _count_factor_and_solve_calls(monkeypatch)
    u = oracle_solve_vi(scaled, tol=1e-9)
    assert calls["cho_factor"] == 1
    gap = hsigma_norm(ScalarField(data.grid, u.values - ref.values), data.sigma)
    assert gap <= 1e-9 * hsigma_norm(ref, data.sigma)
