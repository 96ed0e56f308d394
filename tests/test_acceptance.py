"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured margin when it completes (run with -s to stream them)."""

import math

import numpy as np
import pytest

from frvi.fields import (
    ScalarField,
    VectorField,
    inner,
    lp_norm,
    make_grid,
    scalar_field,
    zero_field,
)
from frvi.fracgrad import (
    frac_divergence,
    frac_gradient,
    frac_laplacian,
    hsigma_norm,
    quadrature_frac_gradient,
    random_band_limited,
)
from frvi.instances import (
    QVI_INNER_CFG,
    QVI_OUTER_TOL,
    VI_CFG,
    binding_1d,
    estimated_constants_1d,
    inactive_1d,
    nonsymmetric_2d,
    qvi_instances,
    qvi_separated_certified,
    small_binding_1d,
    symmetric_instances,
)
from frvi.oracle import oracle_solve_vi
from frvi.qvi import (
    contraction_certificate,
    sobolev_exponents,
    solve_qvi,
)
from frvi.studies import holder_study_g, lipschitz_study_f, penalty_trace_study
from frvi.vi import (
    energy,
    multiplier_equation_residual,
    sample_feasible,
    solve_vi,
)


def report(num, name, detail):
    print(f"ACCEPTANCE {num:2d} {name}: PASS ({detail})")


@pytest.fixture(scope="module")
def vi_solutions():
    cases = dict(symmetric_instances())
    cases["nonsymmetric_2d"] = nonsymmetric_2d()
    cases["small_binding_1d"] = small_binding_1d()
    return {name: (data, solve_vi(data, VI_CFG)) for name, data in cases.items()}


def test_01_operator_identities():
    rng = np.random.default_rng(2024)
    worst_adj, worst_comp = 0.0, 0.0
    fields = []
    for dim, n in ((1, 128), (2, 64)):
        g = make_grid(dim, 2.0, n)
        for _ in range(5):
            fields.append((g, random_band_limited(g, rng),
                           tuple(random_band_limited(g, rng).values
                                 for _ in range(dim))))
    assert len(fields) == 10
    for g, u, w_comps in fields:
        w = VectorField(g, w_comps)
        for sigma in (0.3, 0.5, 0.9):
            scale = max(1.0, lp_norm(u, 2) * lp_norm(w, 2))
            adj = abs(inner(frac_gradient(u, sigma), w)
                      + inner(u, frac_divergence(w, sigma)))
            assert adj <= 1e-10 * scale
            worst_adj = max(worst_adj, adj / scale)
            lap = frac_laplacian(u, sigma)
            comp_field = frac_divergence(frac_gradient(u, sigma), sigma)
            cscale = max(1.0, float(np.abs(lap.values).max()))
            comp = float(np.abs(lap.values + comp_field.values).max())
            assert comp <= 1e-10 * cscale
            worst_comp = max(worst_comp, comp / cscale)
    report(1, "operator identities",
           f"worst adjointness {worst_adj:.2e}, composition {worst_comp:.2e}")


def test_02_pure_mode_symbol():
    g = make_grid(1, math.pi, 128)
    x = g.axis()
    worst = 0.0
    for k in (1, 2, 4):
        for sigma in (0.25, 0.5, 0.75, 1.0):
            d = frac_gradient(ScalarField(g, np.sin(k * x)), sigma)
            expect = float(k) ** sigma * np.cos(k * x)
            rel = float(np.abs(d.components[0] - expect).max()) / float(k) ** sigma
            assert rel <= 1e-12
            worst = max(worst, rel)
    report(2, "pure-mode symbol", f"worst relative error {worst:.2e}")


def test_03_sigma_limit():
    rng = np.random.default_rng(7)
    g = make_grid(1, math.pi, 128)
    sigmas = [0.6, 0.7, 0.8, 0.9, 0.99]
    worst_final = 0.0
    for _ in range(5):
        u = random_band_limited(g, rng, kmax=2)
        d1 = frac_gradient(u, 1.0)
        errs = []
        for s in sigmas:
            ds = frac_gradient(u, s)
            errs.append(lp_norm(VectorField(g, tuple(
                a - b for a, b in zip(ds.components, d1.components))), 2))
        for a, b in zip(errs, errs[1:]):
            assert b < a  # strictly decreasing
        ratio = errs[-1] / lp_norm(d1, 2)
        assert ratio <= 1e-2
        worst_final = max(worst_final, ratio)
    report(3, "sigma->1 limit", f"worst ratio at 0.99: {worst_final:.2e}")


def test_04_quadrature_cross_check():
    g = make_grid(1, 4.0, 64)
    x = g.axis()
    u = ScalarField(g, np.exp(-((x / 0.5) ** 2)))
    spec = frac_gradient(u, 0.5)
    quad = quadrature_frac_gradient(u, 0.5)
    rel = lp_norm(VectorField(g, (spec.components[0] - quad.components[0],)), 2) \
        / lp_norm(spec, 2)
    assert rel <= 0.05
    report(4, "quadrature cross-check", f"relative L2 gap {rel:.4f}")


def test_05_oracle_equivalence(vi_solutions):
    details = []
    for name, _ in symmetric_instances():
        data, sol = vi_solutions[name]
        u_or = oracle_solve_vi(data, tol=1e-9)
        gap = hsigma_norm(ScalarField(data.grid, sol.u.values - u_or.values),
                          data.sigma)
        ref = hsigma_norm(u_or, data.sigma)
        assert gap <= 1e-3 * ref, name
        e_rel = abs(energy(sol.u, data) - energy(u_or, data)) / abs(energy(u_or, data))
        assert e_rel <= 1e-4, name
        details.append(f"{name} {gap / ref:.1e}/{e_rel:.1e}")
    report(5, "oracle equivalence", ", ".join(details))


def test_06_feasibility_and_complementarity(vi_solutions):
    details = []
    for name, (data, sol) in vi_solutions.items():
        assert sol.feas_violation <= 1e-3 * data.g.nu, name
        assert sol.multiplier.values.min() >= 0.0, name
        lam_l1 = lp_norm(sol.multiplier, 1)
        g_inf = float(data.g.g.values.max())
        if lam_l1 > 0:
            assert sol.comp_gap <= 1e-3 * lam_l1 * g_inf, name
        else:
            assert sol.comp_gap == 0.0, name
        # nonsymmetric runs have no energy; the sampled inequality check
        # validates every instance either way
        scale = abs(sol.energy) + 1.0 if sol.energy is not None else \
            1.0 + hsigma_norm(sol.u, data.sigma) ** 2
        assert sol.vi_res >= -1e-6 * scale, name
        details.append(f"{name} viol={sol.feas_violation:.1e}")
    report(6, "feasibility+complementarity", ", ".join(details))


def test_07_multiplier_equation(vi_solutions):
    details = []
    for name, (data, sol) in vi_solutions.items():
        res = multiplier_equation_residual(sol, data)
        bound = 10.0 * VI_CFG.newton_tol * (1.0 + float(np.abs(data.f.values).max()))
        assert res <= bound, name
        details.append(f"{name} {res:.1e}<={bound:.1e}")
    report(7, "multiplier equation residual", ", ".join(details))


def test_08_penalty_traces_bounded(vi_solutions):
    for name, (data, sol) in vi_solutions.items():
        first = sol.trace[0]
        for get in (lambda r: r.norm_dsu_l2, lambda r: r.k_eps_l1,
                    lambda r: r.k_eps_dsu2_l1):
            base = get(first)
            for row in sol.trace:
                if base > 0:
                    assert get(row) <= 10.0 * base, name
                else:
                    assert get(row) == 0.0, name
        for row in sol.trace:
            if row.eps <= 0.1:
                assert row.measure_w == 0.0, name
    report(8, "penalty traces bounded", f"{len(vi_solutions)} instances")


def test_09_lipschitz_in_f():
    rng = np.random.default_rng(11)
    details = []
    for data in (binding_1d(), inactive_1d()):
        deltas = [ScalarField(data.grid, t * data.f.values)
                  for t in (0.1, -0.1, 0.05, -0.05, 0.02)]
        for _ in range(5):
            z = sample_feasible(data, rng)
            scale = 0.05 * float(np.abs(data.f.values).max()) / max(
                1e-12, float(np.abs(z.values).max()))
            deltas.append(ScalarField(data.grid, scale * z.values))
        rep = lipschitz_study_f(data, deltas[:10], VI_CFG)
        check = rep.checks[0]  # dual-exponent ratio vs certified constant
        assert check.passed
        details.append(f"{check.observed:.3f}<={check.bound:.3f}")
    report(9, "Lipschitz in f", ", ".join(details))


def test_10_holder_in_g():
    data = binding_1d()
    h = scalar_field(data.grid, 30.0)
    rep = holder_study_g(data, [0.4, 0.2, 0.1, 0.05], h, VI_CFG)
    for check in rep.checks:
        assert check.passed, check.name
    report(10, "1/2-Hoelder in g",
           f"sup rho {rep.checks[0].observed:.3f} <= {rep.checks[0].bound:.3f}")


def test_11_scaling_identity():
    data = binding_1d()
    sol = solve_vi(data, VI_CFG)
    norm = hsigma_norm(sol.u, data.sigma)
    details = []
    for mu in (0.5, 2.0, 5.0):
        sol_mu = solve_vi(data.scaled(mu), VI_CFG)
        gap = hsigma_norm(ScalarField(
            data.grid, sol_mu.u.values - mu * sol.u.values), data.sigma)
        bound = 10.0 * VI_CFG.newton_tol * mu * (1.0 + norm)
        assert gap <= bound, mu
        details.append(f"mu={mu}: {gap:.1e}<={bound:.1e}")
    report(11, "scaling identity", ", ".join(details))


def test_12_certified_contraction():
    inst = qvi_separated_certified()
    c_star, _ = estimated_constants_1d()
    rep = contraction_certificate(inst.problem.f, inst.problem.mask,
                                  inst.problem.sigma, inst.operator, c_star,
                                  inst.problem.A.a_star)
    assert rep.certified and abs(rep.q - 0.5) <= 0.05
    sol0 = solve_qvi(inst.problem, inst.operator, QVI_INNER_CFG,
                     outer_tol=QVI_OUTER_TOL)
    assert sol0.converged
    res = [r.fp_residual for r in sol0.trace]
    worst_ratio = 0.0
    for k in range(1, len(res)):
        ratio = res[k] / res[k - 1]
        assert ratio <= 0.6
        worst_ratio = max(worst_ratio, ratio)
    rng = np.random.default_rng(41)
    sampling_data = inst.problem.with_threshold(
        inst.operator.apply(zero_field(inst.problem.mask.grid)))
    init = sample_feasible(sampling_data, rng)
    sol1 = solve_qvi(inst.problem, inst.operator, QVI_INNER_CFG,
                     outer_tol=QVI_OUTER_TOL, init=init)
    gap = hsigma_norm(ScalarField(sol0.u.grid, sol0.u.values - sol1.u.values),
                      inst.problem.sigma)
    bound = 10.0 * QVI_OUTER_TOL * (1.0 + hsigma_norm(sol0.u, inst.problem.sigma))
    assert gap <= bound
    report(12, "certified contraction",
           f"q={rep.q:.3f}, worst ratio {worst_ratio:.3f}, two-init gap "
           f"{gap:.1e}<={bound:.1e}")


def test_13_qvi_apriori_bound():
    c_star, _ = estimated_constants_1d()
    details = []
    for inst in qvi_instances():
        _, two_sharp = sobolev_exponents(inst.problem.mask.grid.dim,
                                         inst.problem.sigma)
        f_norm = lp_norm(inst.problem.f, two_sharp, inst.problem.mask)
        bound = 1.1 * (c_star / inst.problem.A.a_star) * f_norm
        sol = solve_qvi(inst.problem, inst.operator, QVI_INNER_CFG,
                        outer_tol=QVI_OUTER_TOL)
        assert sol.converged, inst.name
        worst = max(r.iterate_norm for r in sol.trace)
        assert worst <= bound, inst.name
        details.append(f"{inst.name} {worst:.0f}<={bound:.0f}")
    report(13, "QVI a priori bound", ", ".join(details))


def test_14_determinism(tmp_path):
    def emit(tag):
        outputs = {}
        data = small_binding_1d()
        sol = solve_vi(data, VI_CFG)
        rows = [[r.eps, r.newton_iters, r.residual, r.feas_violation,
                 r.comp_gap, r.norm_dsu_l2, r.k_eps_l1, r.k_eps_dsu2_l1,
                 r.energy] for r in sol.trace]
        from frvi.fields import write_csv

        p = tmp_path / f"diag_{tag}.csv"
        write_csv(p, ["eps", "it", "res", "viol", "comp", "dsu", "k1", "k2",
                      "energy"], rows)
        outputs["diag"] = p.read_bytes()
        rep = penalty_trace_study(data, VI_CFG)
        p2 = tmp_path / f"trace_{tag}.csv"
        rep.to_csv(p2)
        outputs["trace"] = p2.read_bytes()
        deltas = [ScalarField(data.grid, 0.1 * data.f.values)]
        rep3 = lipschitz_study_f(data, deltas, VI_CFG)
        p3 = tmp_path / f"lip_{tag}.csv"
        rep3.to_csv(p3)
        outputs["lip"] = p3.read_bytes()
        inst = qvi_separated_certified()
        qsol = solve_qvi(inst.problem, inst.operator, QVI_INNER_CFG,
                         outer_tol=QVI_OUTER_TOL)
        p4 = tmp_path / f"qvi_{tag}.csv"
        write_csv(p4, ["it", "fp"], [[r.outer_iter, r.fp_residual]
                                     for r in qsol.trace])
        outputs["qvi"] = p4.read_bytes()
        return outputs

    first, second = emit("a"), emit("b")
    for key in first:
        assert first[key] == second[key], key
    report(14, "determinism", f"{len(first)} artifact kinds bit-identical")
