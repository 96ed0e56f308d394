import math

import numpy as np
import pytest

from frvi.fields import ScalarField, lp_norm, make_grid, scalar_field, zero_field
from frvi.fracgrad import hsigma_norm, random_band_limited
from frvi.instances import VI_CFG, small_binding_1d
from frvi.qvi import estimate_sup_constant
from frvi.studies import (
    holder_study_g,
    lipschitz_study_f,
    mosco_diagnostic,
    penalty_trace_study,
    sigma_limit_study,
)
from frvi.vi import ProblemData, Threshold, sample_feasible, solve_vi


@pytest.fixture(scope="module")
def base():
    return small_binding_1d()


def test_lipschitz_skips_zero_delta(base):
    rep = lipschitz_study_f(base, [zero_field(base.grid)], VI_CFG)
    assert rep.rows[0][-1] == "skipped"
    assert rep.passed  # vacuous bounds still pass


def test_lipschitz_bounds_hold(base):
    deltas = [ScalarField(base.grid, t * base.f.values) for t in (0.1, -0.05)]
    rep = lipschitz_study_f(base, deltas, VI_CFG)
    assert rep.passed
    assert rep.constants["C_sharp"] > 0


def test_lipschitz_sign_flip_symmetric(base):
    d = ScalarField(base.grid, 0.08 * base.f.values)
    d_neg = ScalarField(base.grid, -d.values)
    # same-magnitude ratios for symmetric thresholds around the same base:
    # the two solves land symmetric around u0 in the inactive regime; in the
    # binding regime the ratios differ, but the perturbation norms match
    rep = lipschitz_study_f(base, [d, d_neg], VI_CFG)
    assert rep.rows[0][1] == pytest.approx(rep.rows[1][1], rel=1e-12)
    assert rep.rows[0][2] == pytest.approx(rep.rows[1][2], rel=1e-12)


def test_holder_skips_t_zero_and_zero_direction(base):
    h = scalar_field(base.grid, 1.0)
    rep = holder_study_g(base, [0.0], h, VI_CFG)
    assert rep.rows[0][-1] == "skipped"
    rep0 = holder_study_g(base, [0.5, 0.25], zero_field(base.grid), VI_CFG)
    assert all(r[-1] == "skipped" for r in rep0.rows)


def test_holder_bounds_hold(base):
    h = scalar_field(base.grid, 4.0)
    rep = holder_study_g(base, [0.4, 0.2, 0.1, 0.05], h, VI_CFG)
    assert rep.passed
    assert math.isfinite(rep.constants["observed_exponent"])
    # the fitted exponent is reported with the study's other numbers
    assert rep.summary().endswith(f"observed_exponent={rep.constants['observed_exponent']:.6g}")


def test_holder_rejects_negative_direction(base):
    h = ScalarField(base.grid, -np.ones(base.grid.shape))
    with pytest.raises(ValueError):
        holder_study_g(base, [0.1], h, VI_CFG)


def test_sigma_limit_exact_zero_at_one():
    g = make_grid(1, math.pi, 64)
    u = random_band_limited(g, np.random.default_rng(3), kmax=2)
    rep = sigma_limit_study(u, [0.5, 0.9, 0.99, 1.0])
    assert rep.rows[-1][1] == 0.0
    assert rep.passed


def test_sigma_limit_pure_mode_analytic():
    g = make_grid(1, math.pi, 64)
    x = g.axis()
    k = 3
    u = ScalarField(g, np.sin(k * x))
    sigmas = [0.5, 0.75, 0.9]
    rep = sigma_limit_study(u, sigmas)
    cos_norm = lp_norm(ScalarField(g, np.cos(k * x)), 2)
    for (s, err) in rep.rows:
        assert err == pytest.approx(abs(k**s - k) * cos_norm, rel=1e-12)


def test_penalty_trace_inactive_threshold():
    base = small_binding_1d()
    big = Threshold(scalar_field(base.grid, 1e5), 1e5)
    data = ProblemData(base.mask, base.sigma, base.A, base.f, big)
    rep = penalty_trace_study(data, VI_CFG)
    assert rep.passed
    for row in rep.rows:
        # columns: eps, dsu, k_l1, k_dsu2, |U|, |V|, |W|, excess
        assert row[2] == 0.0 and row[3] == 0.0 and row[6] == 0.0
        assert row[4] == pytest.approx(base.grid.cell_volume * base.grid.num_nodes)


def test_penalty_trace_binding(base):
    rep = penalty_trace_study(base, VI_CFG)
    assert rep.passed
    for row in rep.rows:
        if row[0] <= 0.1:
            assert row[6] == 0.0  # capped set empty at small eps


def test_mosco_identical_thresholds(base):
    gs = [Threshold(base.g.g, base.g.nu) for _ in range(2)]
    rep = mosco_diagnostic(base, gs, VI_CFG)
    for row in rep.rows:
        assert row[2] <= 1e-9


def test_mosco_decreasing_gaps(base):
    gs = [Threshold(ScalarField(base.grid, base.g.g.values * (1 + 1.0 / n)),
                    base.g.nu) for n in (2, 4, 8, 16)]
    rep = mosco_diagnostic(base, gs, VI_CFG)
    assert rep.passed


def test_certified_sup_constant_bounds_sampled_quotients(base):
    # an independent lower bound on C_inf: the sup of ||u||_Linf /
    # ||u||_Hsigma over a solution and 20 sampled feasible fields
    rng = np.random.default_rng(404)
    fields = [solve_vi(base, VI_CFG).u]
    fields += [sample_feasible(base, rng) for _ in range(20)]
    sampled = max(float(np.abs(u.values).max()) / hsigma_norm(u, base.sigma)
                  for u in fields)
    c_inf = estimate_sup_constant(base.mask, base.sigma)
    assert sampled > 0.0
    assert c_inf >= sampled


def test_studies_report_the_certified_sup_constant(base):
    rep = lipschitz_study_f(base, [ScalarField(base.grid, 0.1 * base.f.values)], VI_CFG)
    c_inf = estimate_sup_constant(base.mask, base.sigma)
    assert rep.constants["C_inf"] == c_inf
    assert rep.checks[1].bound == c_inf / base.A.a_star


def test_study_csv_deterministic(tmp_path, base):
    deltas = [ScalarField(base.grid, 0.1 * base.f.values)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    lipschitz_study_f(base, deltas, VI_CFG).to_csv(p1)
    lipschitz_study_f(base, deltas, VI_CFG).to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
