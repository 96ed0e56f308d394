import math

import numpy as np
import pytest
import scipy.fft

from frvi.fields import ScalarField, lp_norm, make_grid, mask_box, scalar_field, zero_field
from frvi.fracgrad import grad_arrays, hsigma_norm, neg_div_arrays
from frvi.instances import (
    QVI_INNER_CFG,
    QVI_OUTER_TOL,
    binding_1d,
    estimated_constants_1d,
    qvi_instances,
    qvi_kernel_1d,
    qvi_separated_certified,
    qvi_superposition_1d,
)
from frvi.qvi import (
    ConstantGamma,
    GammaFunctional,
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
import frvi.qvi
import frvi.vi
from frvi.vi import ProblemData, Threshold, sample_feasible, solve_vi


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
        est = estimate_sobolev_constant(base.grid, base.mask, sigma,
                                        restarts=8, iters=40)
        assert np.isfinite(est.value) and est.value > 0.0


def test_constant_estimate_scale_invariant_quotient():
    # the ascent maximizes a 0-homogeneous quotient; feeding a scaled field
    # through the quotient must not change it
    base = binding_1d()
    est1 = estimate_sobolev_constant(base.grid, base.mask, 0.5,
                                     restarts=5, iters=30, seed=7)
    est2 = estimate_sobolev_constant(base.grid, base.mask, 0.5,
                                     restarts=5, iters=30, seed=7)
    assert est1.value == est2.value  # deterministic given seed


def test_constant_estimate_grid_refinement_stable():
    sigma = 0.5
    vals = {}
    for n in (64, 128):
        g = make_grid(1, 2.0, n)
        m = mask_box(g, 1.0)
        vals[n] = estimate_sobolev_constant(g, m, sigma, restarts=12,
                                            iters=60).value
    assert abs(vals[128] - vals[64]) <= 0.10 * max(vals.values())


def _sequential_ascent(grid, mask, sigma, p, restarts, iters, seed):
    """Reference: the restarts of the quotient ascent run one after another
    on 1-D field arrays, as before they were stacked."""
    rng = np.random.default_rng(seed)
    inside = mask.inside
    hN = grid.cell_volume

    def quotient(vals):
        u = ScalarField(grid, vals)
        num = lp_norm(u, p, mask)
        den = hsigma_norm(u, sigma)
        return num / den if den > 0 else 0.0

    def grad_num(vals):
        v = np.where(inside, vals, 0.0)
        if math.isinf(p):
            out = np.zeros(grid.shape)
            idx = np.unravel_index(np.argmax(np.abs(v)), grid.shape)
            out[idx] = np.sign(v[idx])
            return out
        norm = lp_norm(ScalarField(grid, v), p, mask)
        if norm == 0.0:
            return np.zeros(grid.shape)
        return hN * np.abs(v) ** (p - 1.0) * np.sign(v) / norm ** (p - 1.0)

    def grad_den_sq(vals):
        w = grad_arrays(vals, grid, sigma)
        return 2.0 * np.where(inside, neg_div_arrays(w, grid, sigma), 0.0)

    best = 0.0
    best_final_gain = 0.0
    per_restart = []
    for _ in range(restarts):
        vals = np.where(inside, rng.normal(size=grid.shape), 0.0)
        den = hsigma_norm(ScalarField(grid, vals), sigma)
        if den == 0.0:
            continue
        vals = vals / den
        q = quotient(vals)
        step = 0.5
        last_gain = 0.0
        for _ in range(iters):
            g_num = grad_num(vals)
            g_den = grad_den_sq(vals)
            num = lp_norm(ScalarField(grid, vals), p, mask)
            direction = g_num / max(num, 1e-300) - 0.5 * g_den
            direction = np.where(inside, direction, 0.0)
            improved = False
            for _ in range(20):
                trial = vals + step * direction
                den = hsigma_norm(ScalarField(grid, trial), sigma)
                if den > 0:
                    trial = trial / den
                    q_try = quotient(trial)
                    if q_try > q:
                        last_gain = q_try - q
                        vals, q = trial, q_try
                        step *= 1.5
                        improved = True
                        break
                step *= 0.5
            if not improved:
                last_gain = 0.0
                break
        per_restart.append(q)
        if q > best:
            best, best_final_gain = q, last_gain
    converged = best_final_gain <= 1e-3 * max(best, 1e-300)
    return best, converged, per_restart


@pytest.mark.parametrize("dim, sigma, poincare, restarts, iters", [
    (1, 0.5, False, 50, 60),   # Sobolev defaults, 2* = 8
    (1, 0.5, True, 20, 60),    # Poincare defaults, p = 2
    (1, 0.75, False, 50, 60),  # p = inf, the subgradient branch
    (2, 0.4, False, 4, 20),    # 64^2, 2* = 10/3
])
def test_stacked_ascent_matches_sequential_restarts(dim, sigma, poincare,
                                                    restarts, iters):
    if dim == 1:
        base = binding_1d()
        grid, mask = base.grid, base.mask
    else:
        grid = make_grid(2, 2.0, 64)
        mask = mask_box(grid, 1.0)
    if poincare:
        p, seed = 2.0, 202
        est = estimate_poincare_constant(grid, mask, sigma, restarts=restarts,
                                         iters=iters, seed=seed)
    else:
        p, seed = sobolev_exponents(dim, sigma)[0], 101
        est = estimate_sobolev_constant(grid, mask, sigma, restarts=restarts,
                                        iters=iters, seed=seed)
    value, converged, per_restart = _sequential_ascent(
        grid, mask, sigma, p, restarts, iters, seed)
    assert est.value == value
    assert est.converged == converged
    assert est.restarts == per_restart


def test_sobolev_estimate_stacks_its_transforms(monkeypatch):
    # one transform call per stacked array of restarts: about 2.1k calls,
    # where restarts run one after another take about 25k
    calls = []
    for name in ("rfft", "irfft", "rfftn", "irfftn"):
        fn = getattr(scipy.fft, name)

        def counted(*args, _fn=fn, **kwargs):
            calls.append(_fn.__name__)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(scipy.fft, name, counted)
    base = binding_1d()
    estimate_sobolev_constant(base.grid, base.mask, base.sigma)
    assert 0 < len(calls) <= 3000


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


def test_certificate_falsifies_lying_modulus():
    inst = qvi_separated_certified()
    c_star, cp = estimated_constants_1d()

    class Lying(GammaFunctional):
        def __init__(self, inner):
            self.inner = inner

        def __call__(self, u):
            return self.inner(u)

        def floor(self, radius):
            return self.inner.floor(radius)

        def ceil(self, radius):
            return self.inner.ceil(radius)

        def lip(self, radius):
            return self.inner.lip(radius) * 1e-9  # vastly understated

    op = SeparatedOperator(scalar_field(inst.problem.mask.grid, 147.0),
                           Lying(inst.operator.gamma))
    with pytest.raises(ValueError, match="falsified"):
        contraction_certificate(inst.problem.f, inst.problem.mask,
                                inst.problem.sigma, op, c_star, 1.0)


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
        bound = 1.1 * (2.0 * c_star / inst.problem.A.a_star) * f_norm
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
    along the whole eps schedule, as before warm solves started at eps_min
    (the shipped instances never change the damping)."""
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
        calls.append((kwargs.get("diag_trials", 32), sol))
        return sol
    monkeypatch.setattr(frvi.qvi, "solve_vi", recorded)
    inst = qvi_kernel_1d()
    sol = solve_qvi(inst.problem, inst.operator, QVI_INNER_CFG,
                    outer_tol=QVI_OUTER_TOL)
    assert len(calls) == sol.iterations + 1 >= 3
    schedule = QVI_INNER_CFG.schedule()
    first = [row.eps for row in calls[0][1].trace]
    assert first == schedule[:len(first)] and len(first) > 1
    for _, inner in calls[1:]:
        assert [row.eps for row in inner.trace] == [QVI_INNER_CFG.eps_min]
    assert calls[-1][1] is sol.inner
    assert [trials for trials, _ in calls] == [0] * sol.iterations + [32]


def test_outer_inner_solves_sample_no_feasible_fields(monkeypatch):
    count = [0]

    def counted(*args, **kwargs):
        count[0] += 1
        return sample_feasible(*args, **kwargs)
    monkeypatch.setattr(frvi.vi, "sample_feasible", counted)
    inst = qvi_superposition_1d()
    sol = solve_qvi(inst.problem, inst.operator, QVI_INNER_CFG,
                    outer_tol=QVI_OUTER_TOL)
    assert sol.iterations >= 2
    assert count[0] == 32  # the final solve's default diagnostic only
