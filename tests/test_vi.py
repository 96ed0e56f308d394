import math
import warnings

import numpy as np
import pytest

import frvi.vi
from frvi.fields import (
    ScalarField,
    full_torus,
    lp_norm,
    make_grid,
    mask_box,
    scalar_field,
    zero_field,
)
from frvi.fracgrad import (
    frac_gradient,
    frac_laplacian,
    hsigma_norm,
    random_band_limited,
)
from frvi.instances import (
    VI_CFG,
    binding_1d,
    binding_2d,
    inactive_1d,
    nonsymmetric_2d,
    small_binding_1d,
)
from frvi.vi import (
    EPS_FLOOR,
    EllipticCoefficients,
    PenaltyConfig,
    ProblemData,
    SolverDivergence,
    Threshold,
    energy,
    extract_multiplier,
    feasibility_violation,
    identity_coefficients,
    multiplier_equation_residual,
    penalized_residual,
    penalty_value,
    penalty_slope,
    sample_feasible,
    shrink_to_feasible,
    solve_penalized,
    solve_vi,
    vi_residual,
    _PenalizedSystem,
)


# -- penalty function ---------------------------------------------------------


def test_penalty_zero_for_negative_excess():
    assert penalty_value(-1.0, 0.5) == 0.0


def test_penalty_at_zero():
    assert penalty_value(0.0, 0.5) == 0.0


def test_penalty_exponential_branch():
    assert penalty_value(1.0, 0.5) == pytest.approx(math.e**2 - 1.0, rel=1e-12)


def test_penalty_cap_branch():
    # s=3 > 1/eps=2 lands on the constant branch e^(1/eps^2) - 1
    assert penalty_value(3.0, 0.5) == pytest.approx(math.e**4 - 1.0, rel=1e-12)


def test_penalty_rejects_eps_below_floor():
    with pytest.raises(ValueError):
        penalty_value(1.0, 0.01)
    with pytest.raises(ValueError):
        penalty_value(1.0, 1.0)


def test_penalty_monotone_in_s_and_eps():
    s_grid = np.linspace(-1.0, 30.0, 400)
    for eps in (0.05, 0.2, 0.8):
        vals = penalty_value(s_grid, eps)
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all(vals >= 0.0)
    for s in (0.1, 1.0, 5.0):
        v_small, v_big = penalty_value(s, 0.05), penalty_value(s, 0.5)
        assert v_small >= v_big


def test_penalty_continuous_at_cap():
    eps = 0.5
    left = penalty_value(1.0 / eps - 1e-12, eps)
    right = penalty_value(1.0 / eps + 1e-12, eps)
    assert left == pytest.approx(right, rel=1e-9)


def test_penalty_slope_right_branch_convention():
    eps = 0.5
    assert penalty_slope(0.0, eps) == pytest.approx(1.0 / eps)
    assert penalty_slope(-1e-9, eps) == 0.0
    assert penalty_slope(1.0 / eps + 1e-9, eps) == 0.0


def test_penalty_floor_value_representable():
    cap = penalty_value(1e9, EPS_FLOOR)
    assert np.isfinite(cap) and cap > 1e250


# -- data types ---------------------------------------------------------------


def test_threshold_requires_positive_floor():
    g = make_grid(1, 1.0, 16)
    with pytest.raises(ValueError):
        Threshold(scalar_field(g, 1.0), 0.0)
    with pytest.raises(ValueError):
        Threshold(scalar_field(g, 0.5), 1.0)


def test_coefficients_scalar_bounds_checked():
    g = make_grid(1, 1.0, 16)
    with pytest.raises(ValueError):
        EllipticCoefficients(g, np.full(g.shape, 0.5), a_star=1.0, a_upper=2.0)


def test_coefficients_matrix_spot_check():
    g = make_grid(2, 1.0, 8)
    vals = np.zeros(g.shape + (2, 2))
    vals[..., 0, 0] = 1.0
    vals[..., 1, 1] = 1.0
    A = EllipticCoefficients(g, vals, a_star=1.0, a_upper=1.0)
    assert A.is_symmetric
    bad = vals.copy()
    bad[..., 0, 0] = -1.0
    with pytest.raises(ValueError, match="ellipticity"):
        EllipticCoefficients(g, bad, a_star=1.0, a_upper=1.0)


@pytest.mark.parametrize("diag, a_star, a_upper, match", [
    # 1 - a_* - 1.0001e-9 along e_3 only: a sampled direction must lie
    # within 0.01 rad of +-e_3 to see it
    pytest.param(1.0 - 1.0001e-9, 1.0, 1.0, "lower ellipticity", id="lower"),
    pytest.param(1.0 + 1.0001e-9, 1.0, 1.0, "upper bound", id="upper"),
    pytest.param(1.0 - 0.9999e-9, 1.0, 1.0, None, id="lower-within-tolerance"),
])
def test_coefficients_matrix_bounds_are_exact(diag, a_star, a_upper, match):
    g = make_grid(3, 1.0, 8)
    vals = np.zeros(g.shape + (3, 3))
    vals[...] = np.eye(3)
    vals[1, 2, 3, 2, 2] = diag
    if match is None:
        EllipticCoefficients(g, vals, a_star=a_star, a_upper=a_upper)
        return
    with pytest.raises(ValueError, match=match):
        EllipticCoefficients(g, vals, a_star=a_star, a_upper=a_upper)


def test_coefficients_upper_bound_is_the_matrix_norm():
    # |A| = sqrt(1 + s^2) for A = [[1, s], [-s, 1]]
    g = make_grid(2, 1.0, 8)
    vals = np.zeros(g.shape + (2, 2))
    vals[..., 0, 0] = vals[..., 1, 1] = 1.0
    vals[..., 0, 1], vals[..., 1, 0] = 0.3, -0.3
    EllipticCoefficients(g, vals, a_star=1.0, a_upper=math.sqrt(1.09))
    with pytest.raises(ValueError, match="upper bound"):
        EllipticCoefficients(g, vals, a_star=1.0, a_upper=math.sqrt(1.09) - 1e-8)


def _skew_coefficients(grid, skew):
    vals = np.zeros(grid.shape + (2, 2))
    vals[..., 0, 0] = 1.0
    vals[..., 1, 1] = 1.0
    vals[..., 0, 1] = skew
    vals[..., 1, 0] = -skew
    return EllipticCoefficients(grid, vals, a_star=1.0, a_upper=1.4)


def test_applied_coefficient_drops_constant_skew_only():
    g = make_grid(2, 2.0, 8)
    const = _skew_coefficients(g, 0.3)
    assert not const.is_symmetric
    assert const.applied.is_symmetric
    assert np.array_equal(const.applied.values[..., 0, 1], np.zeros(g.shape))
    x0 = g.coordinates()[0]
    varying = _skew_coefficients(g, 0.3 * np.cos(0.5 * np.pi * x0))
    assert varying.applied is varying
    sym = identity_coefficients(g)
    assert sym.applied is sym


def _count_krylov(monkeypatch):
    calls = {"cg": 0, "bicgstab": 0}
    for name in calls:
        solver = getattr(frvi.vi, name)

        def counted(*args, _solver=solver, _name=name, **kwargs):
            calls[_name] += 1
            return _solver(*args, **kwargs)
        monkeypatch.setattr(frvi.vi, name, counted)
    return calls


def test_nonsymmetric_2d_runs_cg_only(monkeypatch):
    calls = _count_krylov(monkeypatch)
    solve_vi(nonsymmetric_2d(), VI_CFG, diag_trials=0)
    assert calls["bicgstab"] == 0
    assert calls["cg"] > 0


def test_variable_skew_runs_bicgstab_within_acceptance_bounds(monkeypatch):
    grid = make_grid(2, 2.0, 32)
    mask = mask_box(grid, 1.0)
    skew = 0.3 * np.cos(0.5 * np.pi * grid.coordinates()[0])
    f = ScalarField(grid, np.where(mask.inside, 200.0, 0.0))
    data = ProblemData(mask, 0.4, _skew_coefficients(grid, skew), f,
                       Threshold(scalar_field(grid, 187.0), 187.0))
    calls = _count_krylov(monkeypatch)
    sol = solve_vi(data, VI_CFG)
    assert calls["bicgstab"] > 0
    assert calls["cg"] == 0
    assert sol.energy is None
    _assert_acceptance_06_07(sol, data)


def _assert_acceptance_06_07(sol, data):
    """The bounds of acceptance criteria 06 and 07 on a binding solution."""
    assert sol.feas_violation <= 1e-3 * data.g.nu
    assert sol.multiplier.values.min() >= 0.0
    g_inf = float(data.g.g.values.max())
    assert sol.comp_gap <= 1e-3 * lp_norm(sol.multiplier, 1) * g_inf
    scale = (abs(sol.energy) + 1.0 if sol.energy is not None
             else 1.0 + hsigma_norm(sol.u, data.sigma) ** 2)
    assert sol.vi_res >= -1e-6 * scale
    bound = 10.0 * VI_CFG.newton_tol * (1.0 + float(np.abs(data.f.values).max()))
    assert multiplier_equation_residual(sol, data) <= bound


def test_binding_2d_first_continuation_step_newton_count():
    # the energy step test accepts long steps from the cold start u = 0
    # (46 Newton steps with the residual test alone)
    sol = solve_vi(binding_2d(), VI_CFG, diag_trials=0)
    assert sol.trace[0].newton_iters <= 30


def test_perturbed_binding_2d_converges_within_acceptance_bounds():
    # binding_2d with f scaled by 1 + 0.05 z, z band-limited: its cold
    # start used up newton_max at eps0 under the residual step test alone
    base = binding_2d()
    z = random_band_limited(base.grid, np.random.default_rng(1), kmax=3)
    z = np.where(base.mask.inside, z.values, 0.0)
    data = ProblemData(base.mask, base.sigma, base.A,
                       ScalarField(base.grid, base.f.values * (1.0 + 0.05 * z)),
                       base.g)
    sol = solve_vi(data, VI_CFG)
    _assert_acceptance_06_07(sol, data)


def test_penalty_config_floor_enforced():
    with pytest.raises(ValueError, match="floor"):
        PenaltyConfig(eps_min=0.01)
    with pytest.raises(ValueError):
        PenaltyConfig(ratio=1.5)


def test_problem_data_requires_supported_source():
    g = make_grid(1, 2.0, 32)
    m = mask_box(g, 1.0)
    f = scalar_field(g, 1.0)  # nonzero outside
    with pytest.raises(ValueError, match="outside"):
        ProblemData(m, 0.5, identity_coefficients(g), f,
                    Threshold(scalar_field(g, 1.0), 1.0))


# -- residual -----------------------------------------------------------------


def _bump_problem(n=64, gval=1e4):
    g = make_grid(1, 2.0, n)
    m = mask_box(g, 1.0)
    x = g.axis()
    f = ScalarField(g, np.where(m.inside, 3.0, 0.0))
    data = ProblemData(m, 0.5, identity_coefficients(g), f,
                       Threshold(scalar_field(g, gval), gval))
    return g, m, x, data


def test_residual_zero_for_trivial_problem():
    g, m, x, _ = _bump_problem()
    data = ProblemData(m, 0.5, identity_coefficients(g), zero_field(g),
                       Threshold(scalar_field(g, 1.0), 1.0))
    r = penalized_residual(zero_field(g), data, 0.5)
    assert np.all(r.values == 0.0)


def test_residual_matches_linear_operator_when_penalty_inactive():
    g, m, x, data = _bump_problem()
    u = ScalarField(g, np.where(m.inside, (1 - x**2) ** 2, 0.0))
    r = penalized_residual(u, data, 0.5)
    expect = frac_laplacian(u, 0.5).values - data.f.values
    assert np.abs(r.values[m.inside] - expect[m.inside]).max() < 1e-12 * (
        1 + np.abs(expect).max())
    assert np.all(r.values[~m.inside] == 0.0)


def test_jacobian_consistent_with_residual():
    rng = np.random.default_rng(8)
    g, m, x, _ = _bump_problem(gval=1.0)
    data = ProblemData(m, 0.5, identity_coefficients(g),
                       ScalarField(g, np.where(m.inside, 3.0, 0.0)),
                       Threshold(scalar_field(g, 1.0), 1.0))
    sys = _PenalizedSystem(data, 0.3)
    x0 = np.where(m.inside, 0.4 * (1 - x**2) ** 2, 0.0)[m.inside]
    v = rng.normal(size=x0.shape)
    matvec, _ = sys.jacobian_matvec(x0)
    jv = matvec(v)
    t = 1e-7
    fd = (sys.residual(x0 + t * v) - sys.residual(x0 - t * v)) / (2 * t)
    assert np.abs(jv - fd).max() <= 1e-5 * (1 + np.abs(jv).max())


# -- penalized solves ----------------------------------------------------------


def test_solve_penalized_zero_source():
    g, m, x, data = _bump_problem()
    data0 = ProblemData(m, 0.5, identity_coefficients(g), zero_field(g), data.g)
    u = solve_penalized(data0, 0.5, zero_field(g), PenaltyConfig())
    assert np.abs(u.values).max() == 0.0


def test_solve_penalized_spectral_regression():
    # full-torus test mode, penalty identically inactive: exact mode inversion
    g = make_grid(1, math.pi, 64)
    x = g.axis()
    mask = full_torus(g)
    k, sigma, amp = 2, 0.5, 0.5
    f = ScalarField(g, k ** (2 * sigma) * amp * np.sin(k * x))
    gval = 2.0 * k ** (-sigma)
    data = ProblemData(mask, sigma, identity_coefficients(g), f,
                       Threshold(scalar_field(g, gval), gval))
    u = solve_penalized(data, 0.5, zero_field(g), PenaltyConfig(newton_tol=1e-12))
    assert np.abs(u.values - amp * np.sin(k * x)).max() < 1e-8


def test_solve_penalized_classical_order_shares_code_path():
    # sigma = 1 runs the same solver against the classical spectral gradient
    g = make_grid(1, math.pi, 64)
    x = g.axis()
    mask = full_torus(g)
    k, amp = 3, 0.25
    f = ScalarField(g, k**2 * amp * np.sin(k * x))
    data = ProblemData(mask, 1.0, identity_coefficients(g), f,
                       Threshold(scalar_field(g, 10.0), 10.0))
    u = solve_penalized(data, 0.5, zero_field(g), PenaltyConfig(newton_tol=1e-12))
    assert np.abs(u.values - amp * np.sin(k * x)).max() < 1e-8


def test_solve_vi_shrink_flag_gives_strict_feasibility():
    data = small_binding_1d()
    sol = solve_vi(data, VI_CFG, shrink=True)
    assert sol.feas_violation == 0.0
    ref = solve_vi(data, VI_CFG)
    # the shrink factor nu/(nu+eta) is a small contraction of the iterate
    factor = data.g.nu / (data.g.nu + ref.feas_violation)
    assert np.allclose(sol.u.values, factor * ref.u.values, rtol=1e-12)


def test_shrunk_solution_reports_energy_and_residual_of_returned_field():
    # energy and vi_res of the shrunk field come from gradients formed while
    # shrinking; they equal a fresh evaluation of the returned field exactly
    for data in (small_binding_1d(), inactive_1d()):
        sol = solve_vi(data, VI_CFG, shrink=True)
        assert sol.energy == energy(sol.u, data)
        assert sol.vi_res == vi_residual(sol.u, data, trials=32, seed=0)


def test_solve_penalized_divergence_carries_history():
    data = small_binding_1d()
    cfg = PenaltyConfig(newton_tol=1e-13, newton_max=1)
    with pytest.raises(SolverDivergence) as err:
        solve_penalized(data, 0.04, zero_field(data.grid), cfg)
    assert err.value.iterate is not None
    assert len(err.value.history) >= 1


def test_far_off_init_at_eps_min_converges_or_diverges_without_warning():
    # at eps_min the residual of these inits reaches about 1e276, so its
    # squared norm, and that of trial points, overflows; the Newton system
    # is solved in scaled form and non-finite trial merits are rejected
    data = binding_1d()
    cfg = PenaltyConfig()
    ref = solve_vi(data, cfg, diag_trials=0).u.values
    outcomes = []
    for factor in (5.0, 50.0, -50.0, 500.0):
        init = ScalarField(data.grid, factor * ref)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                u = solve_penalized(data, cfg.eps_min, init, cfg)
            except SolverDivergence as exc:
                assert exc.history and np.isfinite(exc.history).all()
                outcomes.append("diverged")
                continue
        # the penalized problem at eps_min has one solution
        assert np.abs(u.values - ref).max() <= 1e-6 * np.abs(ref).max()
        outcomes.append("converged")
    assert "converged" in outcomes


def test_trial_with_overflowing_merit_is_never_accepted(monkeypatch):
    # every trial residual is -sign(x - x0) times the largest double: its
    # squared norm overflows to inf and d.r to -inf, which alone would pass
    # the energy test
    real = frvi.vi._PenalizedSystem.residual
    start = []

    def residual(self, x):
        if not start:
            start.append(x.copy())
            return real(self, x)
        return -np.sign(x - start[0]) * np.finfo(float).max
    monkeypatch.setattr(frvi.vi._PenalizedSystem, "residual", residual)
    data = binding_1d()
    with pytest.raises(SolverDivergence, match="no descent") as err:
        solve_penalized(data, 0.5, zero_field(data.grid), PenaltyConfig())
    assert len(err.value.history) == 1


def test_divergence_counts_nonconverged_krylov_solves(monkeypatch):
    def never_converges(*args, **kwargs):
        return np.zeros_like(args[1]), 1
    monkeypatch.setattr(frvi.vi, "cg", never_converges)
    data = small_binding_1d()
    cfg = PenaltyConfig(newton_tol=1e-13, newton_max=1)
    with pytest.raises(SolverDivergence) as err:
        solve_penalized(data, 0.04, zero_field(data.grid), cfg)
    # one Newton direction and one Picard fallback solve, neither converged
    assert err.value.krylov_nonconverged == 2
    assert "2 Krylov solves not converged" in str(err.value)


# -- continuation solve ---------------------------------------------------------


def test_solve_vi_zero_source():
    g, m, x, data = _bump_problem()
    data0 = ProblemData(m, 0.5, identity_coefficients(g), zero_field(g), data.g)
    sol = solve_vi(data0)
    assert np.abs(sol.u.values).max() == 0.0
    assert np.abs(sol.multiplier.values).max() == 0.0
    assert sol.feas_violation == 0.0 and sol.comp_gap == 0.0


@pytest.fixture(scope="module")
def binding_solution():
    return solve_vi(small_binding_1d(), VI_CFG, seed=3)


def test_solve_vi_feasibility(binding_solution):
    data = small_binding_1d()
    assert binding_solution.feas_violation <= 1e-3 * data.g.nu


def test_shrink_to_feasible_leaves_no_excess(binding_solution):
    data = small_binding_1d()
    assert binding_solution.feas_violation > 0.0
    shrunk = shrink_to_feasible(binding_solution.u, data)
    assert feasibility_violation(shrunk, data) == 0.0


def test_solve_vi_multiplier_nonnegative(binding_solution):
    assert binding_solution.multiplier.values.min() >= 0.0


def test_solve_vi_complementarity(binding_solution):
    data = small_binding_1d()
    lam_l1 = lp_norm(binding_solution.multiplier, 1)
    assert lam_l1 > 0  # the instance binds
    g_inf = float(data.g.g.values.max())
    assert binding_solution.comp_gap <= 1e-3 * lam_l1 * g_inf


def test_solve_vi_multiplier_equation(binding_solution):
    data = small_binding_1d()
    res = multiplier_equation_residual(binding_solution, data)
    f_sup = float(np.abs(data.f.values).max())
    assert res <= 10.0 * VI_CFG.newton_tol * (1.0 + f_sup)


def test_solve_vi_violation_decays_along_schedule(binding_solution):
    viols = [row.feas_violation for row in binding_solution.trace]
    for a, b in zip(viols, viols[1:]):
        assert b <= 1.05 * a + 1e-12


def test_solve_vi_apriori_bound(binding_solution):
    from frvi.qvi import estimate_sobolev_constant, sobolev_exponents

    data = small_binding_1d()
    _, two_sharp = sobolev_exponents(data.grid.dim, data.sigma)
    est = estimate_sobolev_constant(data.grid, data.mask, data.sigma,
                                    restarts=15, iters=50)
    bound = 2.0 * est.value / data.A.a_star * lp_norm(data.f, two_sharp, data.mask)
    assert hsigma_norm(binding_solution.u, data.sigma) <= bound


def test_solve_vi_deterministic_across_initializations():
    data = small_binding_1d()
    cfg = PenaltyConfig(newton_tol=1e-10)
    sol_a = solve_vi(data, cfg)
    rng = np.random.default_rng(5)
    init = sample_feasible(data, rng)
    sol_b = solve_vi(data, cfg, init=init)
    gap = hsigma_norm(ScalarField(data.grid, sol_a.u.values - sol_b.u.values),
                      data.sigma)
    assert gap <= 10.0 * cfg.newton_tol * (
        1.0 + float(np.abs(data.f.values).max()))


def test_scaling_identity_at_vi_level():
    data = small_binding_1d()
    cfg = PenaltyConfig(newton_tol=2e-5)
    sol = solve_vi(data, cfg)
    norm = hsigma_norm(sol.u, data.sigma)
    for mu in (0.5, 2.0, 5.0):
        sol_mu = solve_vi(data.scaled(mu), cfg)
        gap = hsigma_norm(ScalarField(
            data.grid, sol_mu.u.values - mu * sol.u.values), data.sigma)
        assert gap <= 10.0 * cfg.newton_tol * mu * (1.0 + norm)


# -- multiplier extraction -------------------------------------------------------


def test_multiplier_zero_when_inactive():
    data = inactive_1d()
    sol = solve_vi(data, VI_CFG)
    lam = extract_multiplier(sol.u, data, sol.eps_final)
    assert np.all(lam.values == 0.0)
    assert sol.feas_violation == 0.0


def test_multiplier_nonnegative_always():
    rng = np.random.default_rng(9)
    data = small_binding_1d()
    for _ in range(5):
        u = sample_feasible(data, rng)
        u = ScalarField(data.grid, 3.0 * u.values)  # push infeasible
        lam = extract_multiplier(u, data, 0.05)
        assert lam.values.min() >= 0.0


# -- diagnostics -----------------------------------------------------------------


def test_vi_residual_zero_direction_and_solution(binding_solution):
    data = small_binding_1d()
    # v = u itself contributes functional value 0; the solved problem stays
    # above a small negative tolerance over sampled directions
    scale = abs(binding_solution.energy) + 1.0
    assert binding_solution.vi_res >= -1e-6 * scale


def test_vi_residual_detects_perturbed_solution(binding_solution):
    data = small_binding_1d()
    x = data.grid.axis()
    bump = np.where(data.mask.inside, 0.3 * (1 - x**2) ** 2, 0.0)
    bad = ScalarField(data.grid, binding_solution.u.values + bump)
    scale = abs(binding_solution.energy) + 1.0
    assert vi_residual(bad, data, trials=64, seed=11) < -1e-3 * scale


def test_energy_zero_field():
    g, m, x, data = _bump_problem()
    assert energy(zero_field(g), data) == 0.0


def test_energy_minimized_by_solution(binding_solution):
    rng = np.random.default_rng(12)
    data = small_binding_1d()
    ju = energy(binding_solution.u, data)
    scale = abs(ju) + 1.0
    for _ in range(100):
        v = sample_feasible(data, rng)
        assert ju <= energy(v, data) + 1e-10 * scale


def test_energy_requires_symmetric_coefficients():
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
        energy(zero_field(g), data)


def test_feasibility_violation_zero_field():
    g, m, x, data = _bump_problem(gval=1.0)
    assert feasibility_violation(zero_field(g), data) == 0.0


def test_feasibility_violation_grows_with_amplitude():
    g, m, x, _ = _bump_problem(gval=1.0)
    data = ProblemData(m, 0.5, identity_coefficients(g), zero_field(g),
                       Threshold(scalar_field(g, 1.0), 1.0))
    w = ScalarField(g, np.where(m.inside, (1 - x**2) ** 2, 0.0))
    peak = float(frac_gradient(w, 0.5).magnitude().max())
    for t in (10.0, 100.0, 1000.0):
        viol = feasibility_violation(ScalarField(g, t * w.values), data)
        assert viol == pytest.approx(t * peak - 1.0, rel=1e-12)
