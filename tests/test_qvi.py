import math
from pathlib import Path

import numpy as np
import pytest

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
    gram_matrix,
    hsigma_norm,
    random_band_limited,
)
from frvi.instances import (
    QVI_INNER_CFG,
    QVI_OUTER_TOL,
    binding_1d,
    binding_2d,
    estimated_constants_1d,
    qvi_instances,
    qvi_kernel_1d,
    qvi_separated_certified,
    qvi_superposition_1d,
)
from frvi.qvi import (
    ConstantGamma,
    IntegralGamma,
    KernelIntegralOperator,
    OuterFunction,
    QVIProblem,
    SeparatedOperator,
    SuperpositionOperator,
    ThresholdOperator,
    contraction_certificate,
    estimate_poincare_constant,
    estimate_sobolev_constant,
    sobolev_exponents,
    solve_qvi,
)
import frvi.cli
import frvi.qvi
import frvi.vi
from frvi.vi import (
    ProblemData,
    SolverDivergence,
    Threshold,
    identity_coefficients,
    sample_feasible,
    solve_vi,
)


def test_sobolev_exponents_regimes():
    two_star, two_sharp = sobolev_exponents(2, 0.5)
    assert two_star == pytest.approx(4.0)
    assert two_sharp == pytest.approx(4.0 / 3.0)
    assert sobolev_exponents(1, 0.75) == (math.inf, 1.0)
    ts, tsh = sobolev_exponents(1, 0.5)  # borderline: fixed finite choice
    assert ts == 8.0 and tsh == pytest.approx(8.0 / 7.0)


def test_constant_estimates_positive_and_finite():
    base = binding_1d()
    for sigma in (0.5, 0.9):
        est = estimate_sobolev_constant(base.mask, sigma)
        assert np.isfinite(est) and est > 0.0


def test_constant_estimate_grid_refinement_stable():
    sigma = 0.5
    vals = {}
    for n in (64, 128):
        g = make_grid(1, 2.0, n)
        m = mask_box(g, 1.0)
        vals[n] = estimate_sobolev_constant(m, sigma)
    assert abs(vals[128] - vals[64]) <= 0.10 * max(vals.values())


@pytest.mark.parametrize("instance, c_star_ref, c_p_ref", [
    pytest.param(binding_1d, 1.2775, 0.97791, id="binding_1d"),  # 2* = 8
    pytest.param(binding_2d, 1.5603, 0.81628, id="binding_2d"),  # 2* = 10/3
])
def test_certified_constants_are_attained_and_bound_samples(instance, c_star_ref,
                                                            c_p_ref):
    data = instance()
    mask, sigma = data.mask, data.sigma
    grid = mask.grid
    two_star, _ = sobolev_exponents(grid.dim, sigma)
    c_star = estimate_sobolev_constant(mask, sigma)
    c_p = estimate_poincare_constant(mask, sigma)
    assert c_star == pytest.approx(c_star_ref, abs=5e-5)
    assert c_p == pytest.approx(c_p_ref, abs=5e-6)
    M = gram_matrix(mask, sigma)
    _, vecs = np.linalg.eigh(M)
    inv = np.linalg.inv(M)
    i_star = int(np.argmax(np.diag(inv)))

    def extended(x):
        vals = np.zeros(grid.shape)
        vals[mask.inside] = x
        return ScalarField(grid, vals)

    def quotient(u, p):
        return lp_norm(u, p, mask) / hsigma_norm(u, sigma)

    # the lambda_min eigenvector attains C_P, M^-1 e_i* attains C_inf
    u_p = extended(vecs[:, 0])
    u_inf = extended(inv[:, i_star])
    q_p = quotient(u_p, 2.0)
    assert q_p <= c_p and q_p == pytest.approx(c_p, rel=1e-10)
    # C_inf recovered from C* = C_inf^(1-2/p) C_P^(2/p), p = 2*
    c_inf = (c_star / c_p ** (2.0 / two_star)) ** (1.0 / (1.0 - 2.0 / two_star))
    q_inf = quotient(u_inf, math.inf)
    assert q_inf <= c_inf and q_inf == pytest.approx(c_inf, rel=1e-10)
    # sampled lower bounds never exceed the certified upper bound
    assert quotient(u_p, two_star) <= c_star
    assert quotient(u_inf, two_star) <= c_star
    rng = np.random.default_rng(12)
    for _ in range(200):
        z = random_band_limited(grid, rng)
        u = ScalarField(grid, np.where(mask.inside, z.values, 0.0))
        assert quotient(u, two_star) <= c_star


def test_constants_reject_singular_and_oversized_gram_matrices():
    grid = make_grid(1, 2.0, 64)
    with pytest.raises(ValueError, match="singular"):
        estimate_poincare_constant(full_torus(grid), 0.5)
    big = make_grid(2, 2.0, 128)
    with pytest.raises(ValueError, match="dense"):
        estimate_sobolev_constant(mask_box(big, 1.5, min_padding=0.1), 0.4)


def test_separated_with_constant_gamma_is_static():
    base = binding_1d()
    op = SeparatedOperator(scalar_field(base.grid, 3.0), ConstantGamma(2.0))
    rng = np.random.default_rng(0)
    u = sample_feasible(base, rng)
    thr = op.apply(u)
    assert np.allclose(thr.g.values, 6.0)
    thr0 = op.apply(zero_field(base.grid))
    assert np.array_equal(thr.g.values, thr0.g.values)


def test_kernel_operator_with_zero_kernel_is_constant():
    base = binding_1d()
    kernel = np.zeros((base.grid.num_nodes, base.mask.num_inside))
    op = KernelIntegralOperator(base.mask, kernel,
                                OuterFunction(nu=2.0, coeff=1.0, ramp="square"))
    rng = np.random.default_rng(1)
    thr = op.apply(sample_feasible(base, rng))
    assert np.allclose(thr.g.values, 2.0)  # F(x, 0) = nu


def test_superposition_at_zero_gives_floor():
    base = binding_1d()
    op = SuperpositionOperator(OuterFunction(nu=1.5, coeff=1.0, ramp="square"))
    thr = op.apply(zero_field(base.grid))
    assert np.allclose(thr.g.values, 1.5)
    assert thr.nu == 1.5


def test_operator_floor_violation_detected():
    class Broken(ThresholdOperator):
        nu_out = 2.0

        def _evaluate(self, u):
            return np.full(u.grid.shape, 1.0)

    base = binding_1d()
    with pytest.raises(ValueError, match="floor"):
        Broken().apply(zero_field(base.grid))


def test_outer_function_validation():
    with pytest.raises(ValueError):
        OuterFunction(nu=0.0)
    with pytest.raises(ValueError):
        OuterFunction(nu=1.0, ramp="exp")


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_gamma_and_outer_values_rejected(value):
    base = binding_1d()
    for build in (lambda: OuterFunction(nu=value), lambda: OuterFunction(nu=1.0, coeff=value),
                  lambda: ConstantGamma(value),
                  lambda: IntegralGamma(value, 1.0, base.mask, base.sigma, 1.0),
                  lambda: IntegralGamma(1.0, value, base.mask, base.sigma, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            build()


def test_solve_qvi_constant_operator_one_step():
    base = binding_1d()
    prob = QVIProblem(base.mask, base.sigma, base.A, base.f)
    op = SeparatedOperator(scalar_field(base.grid, 150.0), ConstantGamma(1.0))
    sol = solve_qvi(prob, op, QVI_INNER_CFG, outer_tol=QVI_OUTER_TOL)
    assert sol.converged and sol.iterations <= 2
    # matches the plain solve at the same fixed threshold
    ref = solve_vi(base, QVI_INNER_CFG)
    gap = hsigma_norm(ScalarField(base.grid, sol.u.values - ref.u.values),
                      base.sigma)
    assert gap <= 1e-6 * (1.0 + hsigma_norm(ref.u, base.sigma))


@pytest.mark.parametrize("controls", [{"outer_tol": math.nan}, {"outer_tol": math.inf},
                                      {"outer_tol": 0.0}, {"outer_max": 0}])
def test_solve_qvi_rejects_invalid_outer_controls(controls):
    inst = qvi_kernel_1d()
    with pytest.raises(ValueError, match="outer-loop controls"):
        solve_qvi(inst.problem, inst.operator, QVI_INNER_CFG, **controls)


def test_solve_qvi_zero_source():
    base = binding_1d()
    prob = QVIProblem(base.mask, base.sigma, base.A, zero_field(base.grid))
    inst = qvi_superposition_1d()
    sol = solve_qvi(prob, inst.operator, QVI_INNER_CFG)
    assert np.abs(sol.u.values).max() == 0.0


def test_solve_qvi_fixed_point_consistency():
    inst = qvi_kernel_1d()
    sol = solve_qvi(inst.problem, inst.operator, QVI_INNER_CFG,
                    outer_tol=QVI_OUTER_TOL)
    assert sol.converged
    ref = solve_vi(inst.problem.with_threshold(inst.operator.apply(sol.u)),
                   QVI_INNER_CFG, init=sol.u)
    gap = hsigma_norm(ScalarField(sol.u.grid, sol.u.values - ref.u.values),
                      inst.problem.sigma)
    assert gap <= 2.0 * QVI_OUTER_TOL * (1.0 + hsigma_norm(sol.u, inst.problem.sigma))


def test_certificate_on_shipped_instance():
    inst = qvi_separated_certified()
    c_star, _ = estimated_constants_1d()
    rep = contraction_certificate(inst.problem.f, inst.problem.mask,
                                  inst.problem.sigma, inst.operator, c_star,
                                  inst.problem.A.a_star)
    assert rep.certified and rep.q == pytest.approx(0.5, abs=1e-9)
    assert rep.R_f > 0 and rep.eta_Rf > 0 and rep.gamma_Rf > 0


def test_certificate_linear_in_source_norm():
    inst = qvi_separated_certified()
    c_star, _ = estimated_constants_1d()
    base_args = (inst.problem.mask, inst.problem.sigma, inst.operator, c_star,
                 inst.problem.A.a_star)
    rep1 = contraction_certificate(inst.problem.f, *base_args)
    f2 = ScalarField(inst.problem.f.grid, 2.0 * inst.problem.f.values)
    rep2 = contraction_certificate(f2, *base_args)
    assert rep2.q == pytest.approx(2.0 * rep1.q, rel=1e-12)
    tiny = ScalarField(inst.problem.f.grid, 1e-6 * inst.problem.f.values)
    rep0 = contraction_certificate(tiny, *base_args)
    assert rep0.q == pytest.approx(1e-6 * rep1.q, rel=1e-9)
    assert rep0.certified


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _shipped_functional(name):
    """(problem data, SeparatedOperator) around each shipped functional: a
    ConstantGamma, the certified instance's IntegralGamma and the
    integral:1.0:0.00028 functional of configs/qvi_separated1d.cfg."""
    if name == "config":
        cfg = frvi.cli._load_config(str(CONFIGS / "qvi_separated1d.cfg"))
        data, _ = frvi.cli._problem_from_config(cfg, CONFIGS)
        return data, frvi.cli._operator_from_config(cfg, data)
    inst = qvi_separated_certified()
    data = inst.problem.with_threshold(binding_1d().g)
    if name == "constant":
        return data, SeparatedOperator(scalar_field(data.grid, 147.0), ConstantGamma(2.0))
    return data, inst.operator


@pytest.mark.parametrize("name", ["constant", "certified", "config"])
def test_shipped_functional_keeps_its_declared_bounds(name):
    # contraction_certificate trusts floor, ceil and lip as declared: check
    # them on seeded random pairs in B_R, R the certificate's R_f, each field
    # a masked band-limited draw scaled to a uniform radius
    data, op = _shipped_functional(name)
    gamma, grid, sigma = op.gamma, data.grid, data.sigma
    rep = frvi.cli._certificate(data, op)
    radius = rep.R_f
    floor, ceil, lip = gamma.floor(radius), gamma.ceil(radius), gamma.lip(radius)
    assert (floor, lip) == (rep.eta_Rf, rep.gamma_Rf)
    rng = np.random.default_rng(303)

    def draw():
        z = np.where(data.mask.inside, random_band_limited(grid, rng).values, 0.0)
        scale = rng.uniform(0.0, radius) / hsigma_norm(ScalarField(grid, z), sigma)
        return ScalarField(grid, scale * z)
    for _ in range(40):
        u1, u2 = draw(), draw()
        v1, v2 = gamma(u1), gamma(u2)
        assert floor <= min(v1, v2) and max(v1, v2) <= ceil
        dist = hsigma_norm(ScalarField(grid, u1.values - u2.values), sigma)
        assert abs(v1 - v2) <= lip * dist + 1e-10 * (1.0 + abs(v1))


def test_certificate_draws_nothing(monkeypatch):
    inst = qvi_separated_certified()
    c_star, _ = estimated_constants_1d()

    def no_draw(*args, **kwargs):
        raise AssertionError("contraction_certificate drew a random number")
    monkeypatch.setattr(np.random, "default_rng", no_draw)
    rep = contraction_certificate(inst.problem.f, inst.problem.mask,
                                  inst.problem.sigma, inst.operator, c_star,
                                  inst.problem.A.a_star)
    assert rep.certified


def test_certified_instance_contracts_and_is_unique():
    inst = qvi_separated_certified()
    sol0 = solve_qvi(inst.problem, inst.operator, QVI_INNER_CFG,
                     outer_tol=QVI_OUTER_TOL)
    assert sol0.converged
    res = [r.fp_residual for r in sol0.trace]
    for k in range(1, len(res)):
        assert res[k] <= 0.6 * res[k - 1] + 1e-12
    rng = np.random.default_rng(23)
    data_for_sampling = inst.problem.with_threshold(
        inst.operator.apply(zero_field(inst.problem.mask.grid)))
    init = sample_feasible(data_for_sampling, rng)
    sol1 = solve_qvi(inst.problem, inst.operator, QVI_INNER_CFG,
                     outer_tol=QVI_OUTER_TOL, init=init)
    gap = hsigma_norm(ScalarField(sol0.u.grid, sol0.u.values - sol1.u.values),
                      inst.problem.sigma)
    scale = 1.0 + hsigma_norm(sol0.u, inst.problem.sigma)
    assert gap <= 10.0 * QVI_OUTER_TOL * scale


def test_apriori_bound_on_iterates():
    c_star, _ = estimated_constants_1d()
    for inst in qvi_instances():
        _, two_sharp = sobolev_exponents(1, inst.problem.sigma)
        f_norm = lp_norm(inst.problem.f, two_sharp, inst.problem.mask)
        bound = 1.1 * (c_star / inst.problem.A.a_star) * f_norm
        sol = solve_qvi(inst.problem, inst.operator, QVI_INNER_CFG,
                        outer_tol=QVI_OUTER_TOL)
        assert sol.converged, inst.name
        for row in sol.trace:
            assert row.iterate_norm <= bound, inst.name


def test_enlarging_threshold_never_raises_energy():
    base = binding_1d()
    sol = solve_vi(base, QVI_INNER_CFG)
    grown = Threshold(ScalarField(base.grid, base.g.g.values + 20.0), base.g.nu)
    sol2 = solve_vi(ProblemData(base.mask, base.sigma, base.A, base.f, grown),
                    QVI_INNER_CFG)
    scale = abs(sol.energy) + 1.0
    assert sol2.energy <= sol.energy + 1e-6 * scale


def test_integral_gamma_bounds_hold_on_samples():
    inst = qvi_separated_certified()
    gamma = inst.operator.gamma
    rng = np.random.default_rng(31)
    data = inst.problem.with_threshold(
        inst.operator.apply(zero_field(inst.problem.mask.grid)))
    radius = 50.0
    for _ in range(20):
        u = sample_feasible(data, rng)
        norm = hsigma_norm(u, inst.problem.sigma)
        if norm > radius or norm == 0.0:
            continue
        val = gamma(u)
        assert gamma.floor(radius) <= val <= gamma.ceil(radius)


def _full_schedule_picard(problem, operator, cfg, outer_tol, outer_max=40):
    """Reference: solve_qvi's damped Picard loop with every inner solve run
    along the whole eps schedule from the previous iterate, not continued
    from the previous inner solution at eps_min (the shipped instances
    never change the damping)."""
    grid = problem.mask.grid
    u = ScalarField(grid, np.zeros(grid.shape))
    iterations = 0
    for iterations in range(1, outer_max + 1):
        u_next = solve_vi(problem.with_threshold(operator.apply(u)), cfg, init=u).u
        fp_res = hsigma_norm(ScalarField(grid, u_next.values - u.values),
                             problem.sigma)
        u = u_next
        if fp_res <= outer_tol * (1.0 + hsigma_norm(u, problem.sigma)):
            break
    u = solve_vi(problem.with_threshold(operator.apply(u)), cfg, init=u).u
    return u, iterations


@pytest.mark.parametrize("inst", qvi_instances(), ids=lambda inst: inst.name)
def test_warm_inner_solves_match_full_schedule_picard(inst):
    sol = solve_qvi(inst.problem, inst.operator, QVI_INNER_CFG,
                    outer_tol=QVI_OUTER_TOL)
    ref_u, ref_iterations = _full_schedule_picard(
        inst.problem, inst.operator, QVI_INNER_CFG, QVI_OUTER_TOL)
    assert sol.converged
    assert sol.iterations == ref_iterations
    assert all(row.damping == 1.0 for row in sol.trace)
    gap = hsigma_norm(ScalarField(sol.u.grid, sol.u.values - ref_u.values),
                      inst.problem.sigma)
    assert gap <= 1e-8 * hsigma_norm(ref_u, inst.problem.sigma)


def test_only_the_first_inner_solve_runs_the_eps_schedule(monkeypatch):
    calls = []

    def recorded(*args, **kwargs):
        sol = solve_vi(*args, **kwargs)
        calls.append(sol)
        return sol
    monkeypatch.setattr(frvi.qvi, "solve_vi", recorded)
    inst = qvi_kernel_1d()
    sol = solve_qvi(inst.problem, inst.operator, QVI_INNER_CFG,
                    outer_tol=QVI_OUTER_TOL)
    assert len(calls) == sol.iterations + 1 >= 3
    schedule = QVI_INNER_CFG.schedule()
    first = [row.eps for row in calls[0].trace]
    assert first == schedule[:len(first)] and len(first) > 1
    for inner in calls[1:]:
        assert [row.eps for row in inner.trace] == [QVI_INNER_CFG.eps_min]
        # 15, 6, 2, 1, 1 Newton steps from the previous iterate, untangented
        assert inner.trace[0].newton_iters <= 3
    assert calls[-1] is sol.inner


def _krylov_box_32():
    """binding_2d's data on a 32^2 grid, whose solves take the Krylov path."""
    grid = make_grid(2, 2.0, 32)
    mask = mask_box(grid, 1.0)
    return QVIProblem(mask, 0.4, identity_coefficients(grid), ScalarField(
        grid, np.where(mask.inside, 200.0, 0.0)))


def test_krylov_path_inner_solves_start_from_the_iterate(monkeypatch):
    # solve_vi does not continue there: each later inner solve is one
    # penalized solve at eps_min from the previous Picard iterate
    calls = []

    def recorded(data, cfg, init=None):
        sol = solve_vi(data, cfg, init=init)
        calls.append((cfg.eps0, init, sol))
        return sol
    monkeypatch.setattr(frvi.qvi, "solve_vi", recorded)
    prob = _krylov_box_32()
    grid = prob.mask.grid
    op = SeparatedOperator(scalar_field(grid, 187.0), ConstantGamma(1.0))
    sol = solve_qvi(prob, op, QVI_INNER_CFG, outer_tol=QVI_OUTER_TOL)
    assert not frvi.vi.continues(prob.with_threshold(sol.g_fixed))
    assert sol.converged and len(calls) == sol.iterations + 1 >= 2
    for eps0, init, inner in calls[1:]:
        assert eps0 == QVI_INNER_CFG.eps_min and isinstance(init, ScalarField)
        assert [row.eps for row in inner.trace] == [QVI_INNER_CFG.eps_min]


def test_outer_inner_solves_sample_no_feasible_fields(monkeypatch):
    count = [0]
    real_sample = frvi.vi.sample_feasible

    def counted(*args, **kwargs):
        count[0] += 1
        return real_sample(*args, **kwargs)
    monkeypatch.setattr(frvi.vi, "sample_feasible", counted)
    inst = qvi_superposition_1d()
    sol = solve_qvi(inst.problem, inst.operator, QVI_INNER_CFG,
                    outer_tol=QVI_OUTER_TOL)
    assert sol.iterations >= 2
    assert count[0] == 0  # no solve runs the diagnostic unread
    sol.inner.vi_res
    assert count[0] == 32  # the final solve's diagnostic, on read


class _DroppingThreshold(ThresholdOperator):
    """g = first at u = 0 and g = later at every other iterate: the first
    warm solve starts from the solution for a threshold far above its own."""

    def __init__(self, first, later):
        self.first, self.later = first, later
        self.nu_out = min(first, later)

    def _evaluate(self, u):
        return np.full(u.grid.shape, self.later if u.values.any() else self.first)


@pytest.mark.parametrize("first, later", [(150.0, 140.0), (145.0, 120.0)])
def test_diverging_warm_inner_solve_reruns_the_schedule(first, later):
    base = binding_1d()
    prob = QVIProblem(base.mask, base.sigma, base.A, base.f)
    op = _DroppingThreshold(first, later)
    sol = solve_qvi(prob, op, QVI_INNER_CFG, outer_tol=QVI_OUTER_TOL)
    assert sol.converged and sol.iterations <= 3
    ref = solve_vi(prob.with_threshold(op.apply(sol.u)), QVI_INNER_CFG)
    gap = hsigma_norm(ScalarField(base.grid, sol.u.values - ref.u.values),
                      base.sigma)
    assert gap <= 1e-6 * (1.0 + hsigma_norm(ref.u, base.sigma))


def test_krylov_path_reruns_a_diverging_warm_step_along_the_schedule(monkeypatch):
    # the warm eps_min solve for g = 150 from the solution for g = 187
    # exceeds newton_max; the schedule from the same iterate converges, and
    # its first trace row counts the failed attempt's Newton steps too
    calls = []

    def recorded(data, cfg, init=None):
        try:
            sol = solve_vi(data, cfg, init=init)
        except SolverDivergence as exc:
            calls.append((cfg.eps0, init, None, len(exc.history)))
            raise
        calls.append((cfg.eps0, init, sol, sol.trace[0].newton_iters))
        return sol
    monkeypatch.setattr(frvi.qvi, "solve_vi", recorded)
    prob = _krylov_box_32()
    op = _DroppingThreshold(187.0, 150.0)
    sol = solve_qvi(prob, op, QVI_INNER_CFG, outer_tol=QVI_OUTER_TOL)
    assert not frvi.vi.continues(prob.with_threshold(sol.g_fixed))
    (warm_eps0, warm_init, failed, tried), (cold_eps0, cold_init, rerun, own) = calls[1:3]
    assert (warm_eps0, failed) == (QVI_INNER_CFG.eps_min, None)
    assert cold_eps0 == QVI_INNER_CFG.eps0 and cold_init is warm_init
    assert len(rerun.trace) > 1
    assert tried > 0 and rerun.trace[0].newton_iters == own + tried
    assert sol.converged
    ref = solve_vi(prob.with_threshold(op.apply(sol.u)), QVI_INNER_CFG)
    gap = hsigma_norm(ScalarField(sol.u.grid, sol.u.values - ref.u.values), prob.sigma)
    assert gap <= 1e-6 * (1.0 + hsigma_norm(ref.u, prob.sigma))


class _Overshooting(ThresholdOperator):
    """The constant threshold 150 - slope (|u|_Hsigma - n0), clipped to
    [low, high]: a larger iterate gets a lower threshold, so a steep slope
    makes the undamped Picard map overshoot its fixed point."""

    def __init__(self, sigma, n0, slope, low=100.0, high=math.inf):
        self.sigma, self.n0, self.slope = sigma, n0, slope
        self.low, self.high = low, high
        self.nu_out = low

    def _evaluate(self, u):
        g = 150.0 - self.slope * (hsigma_norm(u, self.sigma) - self.n0)
        return np.full(u.grid.shape, min(max(g, self.low), self.high))


def _binding_qvi_1d():
    """binding_1d's data as a QVI problem, and its solution map g -> S(g)."""
    base = binding_1d()
    prob = QVIProblem(base.mask, base.sigma, base.A, base.f)

    def solution(g):
        thr = Threshold(scalar_field(base.grid, g), 100.0)
        return solve_vi(prob.with_threshold(thr), QVI_INNER_CFG).u
    return prob, solution


def test_damping_halves_after_three_non_decreasing_residuals():
    # the damping halves after each residual above 0.9 times the one before
    prob, solution = _binding_qvi_1d()
    op = _Overshooting(prob.sigma, hsigma_norm(solution(150.0), prob.sigma), 8.0)
    sol = solve_qvi(prob, op, QVI_INNER_CFG, outer_tol=QVI_OUTER_TOL,
                    outer_max=5, init=solution(149.0))
    res = [row.fp_residual for row in sol.trace]  # 1.8, 4.5, 3.9, 0.96, 0.60
    assert res[1] > 0.9 * res[0]
    assert all(b <= 0.9 * a for a, b in zip(res[1:], res[2:]))
    assert [row.damping for row in sol.trace] == [1.0, 1.0, 0.5, 0.5, 0.5]
    assert not sol.converged


def test_damping_breaks_a_cycle_of_residuals_equal_up_to_round_off():
    # at damping 1 the Picard map cycles between the clip bounds with
    # residuals 19.5 that differ in the last bits, which a test for
    # non-decreasing residuals need not see
    prob, solution = _binding_qvi_1d()
    n0 = hsigma_norm(solution(150.0), prob.sigma)
    s = 10.0 / (n0 - hsigma_norm(solution(140.0), prob.sigma))
    op = _Overshooting(prob.sigma, n0, 2.0 * s, low=120.0, high=180.0)
    sol = solve_qvi(prob, op, QVI_INNER_CFG, outer_tol=QVI_OUTER_TOL)
    assert sol.converged and sol.iterations <= 20
    assert [row.damping for row in sol.trace[:4]] == [1.0, 1.0, 1.0, 0.5]
