import gc
import math
import threading
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.fft

import frvi.vi
from frvi.fields import (
    DomainMask,
    ScalarField,
    full_torus,
    magnitude,
    lp_norm,
    make_grid,
    mask_box,
    scalar_field,
    zero_field,
)
from frvi.fracgrad import (
    DENSE_UNKNOWN_LIMIT,
    frac_gradient,
    frac_laplacian,
    grad_arrays,
    gradient_rows,
    hsigma_norm,
    neg_div_arrays,
    random_band_limited,
)
from frvi.instances import (
    QVI_INNER_CFG,
    QVI_OUTER_TOL,
    VI_CFG,
    binding_1d,
    binding_2d,
    inactive_1d,
    nonsymmetric_2d,
    qvi_kernel_1d,
    qvi_separated_certified,
    small_binding_1d,
)
from frvi.oracle import oracle_solve_vi
from frvi.qvi import ConstantGamma, QVIProblem, SeparatedOperator, solve_qvi
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
    _ActiveGram,
    _PenalizedSystem,
    _smooth_bump,
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


@pytest.mark.parametrize("dim, n", [(2, 16), (3, 8)])
def test_matrix_coefficient_apply_is_the_nodewise_product(dim, n):
    # apply contracts a contiguous (N, N, *grid) copy of the matrix field:
    # bitwise what the strided nodewise product gives
    g = make_grid(dim, 2.0, n)
    rng = np.random.default_rng(dim)
    vals = 2.0 * np.eye(dim) + 0.3 * rng.uniform(-1.0, 1.0, g.shape + (dim, dim))
    nodes = vals.reshape(-1, dim, dim)
    low = np.linalg.eigvalsh(0.5 * (nodes + np.swapaxes(nodes, -1, -2)))[:, 0].min()
    high = np.linalg.norm(nodes, ord=2, axis=(-2, -1)).max()
    A = EllipticCoefficients(g, vals, a_star=low, a_upper=high)
    assert not A.is_symmetric
    w = rng.normal(size=(dim,) + g.shape)
    assert np.array_equal(A.apply(w), np.einsum("...ij,j...->i...", A.values, w))


def _count_krylov(monkeypatch):
    calls = {"cg": 0, "bicgstab": 0}
    for name in calls:
        solver = getattr(frvi.vi, name)

        def counted(*args, _solver=solver, _name=name, **kwargs):
            calls[_name] += 1
            return _solver(*args, **kwargs)
        monkeypatch.setattr(frvi.vi, name, counted)
    return calls


@pytest.mark.parametrize("instance", [binding_1d, small_binding_1d, inactive_1d])
def test_shipped_1d_instances_make_no_krylov_solves(monkeypatch, instance):
    calls = _count_krylov(monkeypatch)
    solve_vi(instance(), VI_CFG)
    assert calls == {"cg": 0, "bicgstab": 0}


def test_qvi_solve_makes_no_krylov_solves(monkeypatch):
    calls = _count_krylov(monkeypatch)
    inst = qvi_kernel_1d()
    sol = solve_qvi(inst.problem, inst.operator, QVI_INNER_CFG, outer_tol=QVI_OUTER_TOL)
    assert sol.converged
    assert calls == {"cg": 0, "bicgstab": 0}


def _full_torus_problem():
    # the data of test_solve_penalized_spectral_regression: G has the
    # constant and Nyquist modes in its kernel, so it fails the rank test
    g = make_grid(1, math.pi, 64)
    x = g.axis()
    f = ScalarField(g, 2.0 ** 1.0 * 0.5 * np.sin(2.0 * x))
    gval = 2.0 * 2.0 ** -0.5
    return ProblemData(full_torus(g), 0.5, identity_coefficients(g), f,
                       Threshold(scalar_field(g, gval), gval))


@pytest.mark.parametrize("instance", [binding_2d, nonsymmetric_2d, _full_torus_problem])
def test_large_and_rank_deficient_problems_keep_the_krylov_path(monkeypatch, instance):
    # one Newton step shows the path; 2D binding at 64^2 would need a
    # 63 MB dense G
    calls = _count_krylov(monkeypatch)
    data = instance()
    try:
        solve_penalized(data, 0.5, zero_field(data.grid), PenaltyConfig(newton_max=1))
    except SolverDivergence:
        pass
    assert calls["cg"] + calls["bicgstab"] > 0


def test_dense_and_krylov_paths_agree_on_binding_1d(monkeypatch):
    data = binding_1d()
    dense = solve_vi(data, VI_CFG).u.values
    monkeypatch.setattr(frvi.vi, "DENSE_NEWTON_BUDGET", 0)
    calls = _count_krylov(monkeypatch)
    krylov = solve_vi(data, VI_CFG).u.values
    assert calls["cg"] > 0
    assert np.abs(dense - krylov).max() <= 1e-6 * np.abs(krylov).max()


def _near_threshold_iterate(sys, data, seed):
    """A smooth iterate whose gradient peaks 1 above the threshold, so the
    penalty is inactive, active and on its exponential branch at different
    nodes."""
    bump = np.cos(0.5 * np.pi * data.grid.coordinates()[0]) ** 2
    for axis in data.grid.coordinates()[1:]:
        bump = bump * np.cos(0.5 * np.pi * axis) ** 2
    noise = np.random.default_rng(seed).normal(size=data.grid.shape)
    x = sys.pack(bump * (1.0 + 0.1 * noise))
    peak = float(magnitude(sys.gradient(x)).max())
    return x * (float(data.g.g.values.max()) + 1.0) / peak


def _variable_skew_box_16():
    grid = make_grid(2, 2.0, 16)
    skew = 0.3 * np.cos(0.5 * np.pi * grid.coordinates()[0])
    f = ScalarField(grid, np.zeros(grid.shape))
    return ProblemData(mask_box(grid, 1.0), 0.4, _skew_coefficients(grid, skew), f,
                       Threshold(scalar_field(grid, 5.0), 5.0))


@pytest.mark.parametrize("instance", [binding_1d, _variable_skew_box_16])
def test_assembled_jacobian_matches_jacobian_matvec(instance):
    data = instance()
    sys = _PenalizedSystem(data, 0.3)
    assert sys.G is not None
    x = _near_threshold_iterate(sys, data, seed=4)
    w = sys.gradient(x)
    k, coef = sys.linearization(w)
    assert (k == 0.0).any() and (coef > 0.0).any()
    columns = np.column_stack([sys.neg_div(sys.flux(sys.gradient(e), k, w, coef))
                               for e in np.eye(sys.m)])
    J = sys.assemble(k, w, coef)
    assert np.abs(J - columns).max() <= 1e-12 * np.abs(columns).max()
    frozen = np.column_stack([sys.neg_div(sys.flux(sys.gradient(e), k))
                              for e in np.eye(sys.m)])
    assert np.abs(sys.assemble(k) - frozen).max() <= 1e-12 * np.abs(frozen).max()
    # the dense solve is LU of the same matrix
    rhs = np.random.default_rng(5).normal(size=sys.m)
    d, info = sys.solve(rhs, k, w, coef)
    assert info == 0
    assert np.abs(columns @ d - rhs).max() <= 1e-9 * np.abs(rhs).max()


def _variable_skew_binding_16():
    # dense (N n m^2 = 1.2e6, m = 49), but A's skew part varies in space
    grid = make_grid(2, 2.0, 16)
    mask = mask_box(grid, 1.0)
    skew = 0.3 * np.cos(0.5 * np.pi * grid.coordinates()[0])
    f = ScalarField(grid, np.where(mask.inside, 400.0, 0.0))
    return ProblemData(mask, 0.4, _skew_coefficients(grid, skew), f,
                       Threshold(scalar_field(grid, 187.0), 187.0))


def _full_sum(sys, k, w=None, coef=None):
    """sum_ij G_i^T diag(c_ij) G_j over every torus node, c_ij = k delta_ij
    + coef w_i w_j + A_ij, written out term by term."""
    dim, nodes = sys.grid.dim, sys.grid.num_nodes
    G = sys.G.reshape(dim, nodes, sys.m)
    A = sys.A.values.reshape(nodes, *(() if sys.A.is_scalar else (dim, dim)))
    total = np.zeros((sys.m, sys.m))
    for i in range(dim):
        for j in range(dim):
            a = (A if i == j else 0.0) if sys.A.is_scalar else A[:, i, j]
            c = a + (k.ravel() if i == j else 0.0)
            if w is not None:
                c = c + coef.ravel() * w[i].ravel() * w[j].ravel()
            total += G[i].T @ (c[:, None] * G[j])
    return total


@pytest.mark.parametrize("instance", [binding_1d, _variable_skew_binding_16],
                         ids=["scalar-A", "nonsymmetric-A"])
@pytest.mark.parametrize("case", ["none-active", "all-active", "zero-excess"])
def test_active_node_assembly_equals_the_full_sum(instance, case):
    # the cached linear part plus the active rows is the sum over every
    # node: with no active node, with every node active (the splitting
    # start's k = rho), and with a node at s = 0 exactly (k = 0, coef > 0)
    data = instance()
    sys = _PenalizedSystem(data, 0.3)
    assert sys.G is not None
    w = coef = None
    if case == "none-active":
        k = np.zeros(data.grid.shape)
    elif case == "all-active":
        k = np.full(data.grid.shape, data.A.a_star)
    else:
        w = sys.gradient(_near_threshold_iterate(sys, data, seed=4))
        mag = magnitude(w)
        s = mag - data.g.g.values
        node = np.unravel_index(np.argmin(np.where(s < 0.0, np.inf, s)), s.shape)
        s[node] = 0.0
        k = data.A.a_star * penalty_value(s, sys.eps)
        coef = data.A.a_star * penalty_slope(s, sys.eps) / np.where(mag > 0.0, mag, 1.0)
        assert k[node] == 0.0 and coef[node] > 0.0
        assert 0 < np.count_nonzero(coef) < data.grid.num_nodes
    full = _full_sum(sys, k, w, coef)
    assert np.abs(sys.assemble(k, w, coef) - full).max() <= 1e-12 * np.abs(full).max()


@pytest.mark.parametrize("instance", [binding_1d, _variable_skew_binding_16],
                         ids=["scalar-A", "nonsymmetric-A"])
def test_two_coefficients_on_one_mask_never_share_a_linear_part(instance):
    # another A on the same mask: 2A for the scalar one, A^T for the matrix one
    data = instance()
    values = 2.0 * data.A.values if data.A.is_scalar else np.swapaxes(data.A.values, -1, -2)
    other = ProblemData(data.mask, data.sigma, EllipticCoefficients(
        data.grid, values, a_star=data.A.a_star, a_upper=2.0 * data.A.a_upper), data.f, data.g)
    k = np.zeros(data.grid.shape)
    matrices = []
    for d in (data, other, data):
        sys = _PenalizedSystem(d, 0.3)
        matrices.append(sys.assemble(k))
        full = _full_sum(sys, k)
        assert np.abs(matrices[-1] - full).max() <= 1e-12 * np.abs(full).max()
    assert not np.allclose(matrices[0], matrices[1])
    assert np.array_equal(matrices[0], matrices[2])


def _variable_skew_box_32():
    grid = make_grid(2, 2.0, 32)
    mask = mask_box(grid, 1.0)
    skew = 0.3 * np.cos(0.5 * np.pi * grid.coordinates()[0])
    f = ScalarField(grid, np.where(mask.inside, 200.0, 0.0))
    return ProblemData(mask, 0.4, _skew_coefficients(grid, skew), f,
                       Threshold(scalar_field(grid, 187.0), 187.0))


@pytest.mark.parametrize("instance", [binding_1d, _variable_skew_box_32])
def test_corrected_preconditioner_is_the_exact_inverse(monkeypatch, instance):
    # each active node a adds coef_a (w_a e_a)(w_a e_a)^T, pulled back by the
    # gradient, to the Jacobian; the corrected preconditioner is the exact
    # inverse of T^-1 plus that stiff part, T the spectral one alone.  The
    # Jacobian is taken at the solution at eps_min, where the terms are
    # stiffest (beta up to 6.5e3)
    data = instance()
    u = solve_vi(data, VI_CFG).u
    monkeypatch.setattr(frvi.vi, "DENSE_NEWTON_BUDGET", 0)
    sys = _PenalizedSystem(data, VI_CFG.eps_min)
    assert sys.G is None
    w = sys.gradient(sys.pack(u.values))
    k, coef = sys.linearization(w)
    active = np.flatnonzero(coef > 0.0)
    assert 8 <= active.size < sys.m
    eye = np.eye(sys.m)
    dim = data.grid.dim
    U = np.empty((sys.m, active.size))
    for col, a in enumerate(active):
        flux = np.zeros((dim, data.grid.num_nodes))
        flux[:, a] = w.reshape(dim, -1)[:, a]
        U[:, col] = sys.neg_div(flux.reshape(w.shape))
    stiff = (U * coef.ravel()[active]) @ U.T
    J = np.column_stack([sys.neg_div(sys.flux(sys.gradient(e), k, w, coef)) for e in eye])
    frozen = np.column_stack([sys.neg_div(sys.flux(sys.gradient(e), k)) for e in eye])
    assert np.abs(J - frozen - stiff).max() <= 1e-10 * np.abs(J).max()
    T = np.column_stack([sys.preconditioner(k)(e) for e in eye])
    corrected = np.column_stack([sys.preconditioner(k, w, coef)(e) for e in eye])
    exact = np.linalg.inv(np.linalg.inv(T) + stiff)
    scale = np.abs(exact).max()
    assert np.abs(corrected - exact).max() <= 1e-10 * scale
    assert np.abs(corrected - corrected.T).max() <= 1e-10 * scale


def test_preconditioner_keeps_the_spectral_part_when_cholesky_fails(monkeypatch):
    # a correction C that is not numerically positive definite is dropped
    data = binding_1d()
    u = solve_vi(data, VI_CFG).u
    sys = _PenalizedSystem(data, VI_CFG.eps_min)
    w = sys.gradient(sys.pack(u.values))
    k, coef = sys.linearization(w)
    assert np.any(coef > 0.0)

    def indefinite(*args, **kwargs):
        raise np.linalg.LinAlgError("not positive definite")
    monkeypatch.setattr(frvi.vi, "cho_factor", indefinite)
    v = np.random.default_rng(6).normal(size=sys.m)
    assert np.array_equal(sys.preconditioner(k, w, coef)(v), sys.preconditioner(k)(v))


@pytest.mark.parametrize("dim, n, omega, corrected", [
    (1, 8192, 1.0, True), (1, 16384, 1.0, False),
    (2, 128, 0.7, True), (2, 128, 0.8, False),
])
def test_correction_is_used_up_to_the_dense_unknown_limit(dim, n, omega, corrected):
    # binding boxes on each side of N m = DENSE_UNKNOWN_LIMIT (README
    # "Numerical notes"): the correction pays up to it, and the measured
    # loss sets in above it, between N m = 4095 and 8191 in 1D and between
    # 5202 and 6498 in 2D
    mask = mask_box(make_grid(dim, 2.0, n), omega)
    assert (dim * mask.num_inside <= DENSE_UNKNOWN_LIMIT) is corrected
    gram = _ActiveGram(mask, 0.4)
    nodes = np.flatnonzero(mask.inside)[:3]
    assert len(gram.stored(nodes)) == (3 if corrected else 0)
    assert gram.gram.shape == (dim, dim) + ((3, 3) if corrected else (0, 0))


def _cached_gram(data):
    return frvi.vi._active_gram(data.grid, data.sigma, data.mask.inside.tobytes())


def test_repeated_krylov_solve_is_bit_identical_and_builds_no_gram_rows(monkeypatch):
    # the second solve finds every Gram entry it reads already built
    frvi.vi._active_gram.cache_clear()
    first = solve_vi(binding_2d(), VI_CFG)
    rows = []
    monkeypatch.setattr(frvi.vi, "gradient_rows",
                        lambda *args: rows.append(args) or gradient_rows(*args))
    second = solve_vi(binding_2d(), VI_CFG)
    assert rows == []
    assert np.array_equal(first.u.values, second.u.values)
    assert np.array_equal(first.multiplier.values, second.multiplier.values)


def test_solve_after_another_on_the_mask_agrees_with_a_fresh_one():
    # an entry is built with the later of its two nodes, so the entries the
    # first solve built move the preconditioner, and the second solve, at
    # round-off only
    data = _perturbed_binding_2d()
    frvi.vi._active_gram.cache_clear()
    fresh = solve_vi(data, VI_CFG)
    frvi.vi._active_gram.cache_clear()
    solve_vi(binding_2d(), VI_CFG)
    after = solve_vi(data, VI_CFG)
    for a, b in ((after.u, fresh.u), (after.multiplier, fresh.multiplier)):
        assert np.abs(a.values - b.values).max() <= VI_CFG.newton_tol * np.abs(b.values).max()


def test_a_solve_on_a_second_mask_replaces_the_cached_gram():
    solve_vi(binding_2d(), VI_CFG)
    first = _cached_gram(binding_2d())
    assert first.nodes.size > 0
    other = _variable_skew_box_32()
    solve_vi(other, VI_CFG)
    assert _cached_gram(other).nodes.size > 0
    assert frvi.vi._active_gram.cache_info().currsize == 1
    rebuilt = _cached_gram(binding_2d())
    assert rebuilt is not first and rebuilt.nodes.size == 0


def test_solve_keeps_no_reference_to_the_callers_data():
    # the cached Gram holds a mask rebuilt from the inside flags, not the caller's
    base = binding_2d()
    mask = DomainMask(base.grid, base.mask.inside.copy(), base.mask.padding_fraction)
    data = ProblemData(mask, base.sigma, base.A, base.f, base.g)
    refs = [weakref.ref(data), weakref.ref(mask)]
    solve_vi(data, VI_CFG)
    del data, mask
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_concurrent_gram_growth_stores_each_node_once():
    mask = binding_2d().mask
    union = np.flatnonzero(mask.inside)[:90]
    shared = _ActiveGram(mask, 0.4)
    barrier = threading.Barrier(2)

    def grow(nodes):
        barrier.wait()
        shared.stored(nodes)
    threads = [threading.Thread(target=grow, args=(part,)) for part in (union[:60], union[30:])]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert np.array_equal(np.sort(shared.nodes), union)
    assert np.array_equal(np.sort(shared.slot[shared.slot >= 0]), np.arange(90))
    serial = _ActiveGram(mask, 0.4)
    serial.stored(union)
    got, want = (g.gram[:, :, g.slot[union][:, None], g.slot[union]] for g in (shared, serial))
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_nonsymmetric_2d_runs_cg_only(monkeypatch):
    calls = _count_krylov(monkeypatch)
    solve_vi(nonsymmetric_2d(), VI_CFG)
    assert calls["bicgstab"] == 0
    assert calls["cg"] > 0


def test_variable_skew_runs_bicgstab_within_acceptance_bounds(monkeypatch):
    # the Newton systems run BiCGSTAB; CG runs only in the linear steps of
    # the splitting start, on its symmetric one-symbol operator
    data = _variable_skew_box_32()
    calls = _count_krylov(monkeypatch)
    iterations = _count_krylov_iterations(monkeypatch)
    start, in_start = frvi.vi._splitting_start, []

    def counted(d, cfg):
        before = calls["cg"]
        u = start(d, cfg)
        in_start.append(calls["cg"] - before)
        return u
    monkeypatch.setattr(frvi.vi, "_splitting_start", counted)
    sol = solve_vi(data, VI_CFG)
    assert calls["bicgstab"] > 0
    assert len(in_start) == 1 and calls["cg"] == in_start[0] > 0
    # 287 iterations with the spectral preconditioner alone
    assert iterations["bicgstab"] <= 80
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
    # 6 from the splitting start; 21 through the data-scale stages it
    # replaced, and 46 from u = 0 without the energy step test
    sol = solve_vi(binding_2d(), VI_CFG)
    assert sol.trace[0].newton_iters <= 30


def _perturbed_binding_2d():
    """binding_2d with f scaled by 1 + 0.05 z, z band-limited."""
    base = binding_2d()
    z = random_band_limited(base.grid, np.random.default_rng(1), kmax=3)
    z = np.where(base.mask.inside, z.values, 0.0)
    return ProblemData(base.mask, base.sigma, base.A,
                       ScalarField(base.grid, base.f.values * (1.0 + 0.05 * z)), base.g)


def test_perturbed_binding_2d_converges_within_acceptance_bounds():
    # its cold start used up newton_max at eps0 under the residual step
    # test alone
    data = _perturbed_binding_2d()
    sol = solve_vi(data, VI_CFG)
    _assert_acceptance_06_07(sol, data)


def test_space_dependent_scalar_a_on_the_krylov_path_within_acceptance_bounds():
    # the Krylov splitting start's linear step applies the mean of A,
    # exact only for a constant A
    grid = make_grid(2, 2.0, 64)
    mask = mask_box(grid, 1.0)
    A = EllipticCoefficients(grid, 1.5 + 0.5 * np.cos(0.5 * np.pi * grid.coordinates()[0]),
                             a_star=1.0, a_upper=2.0)
    data = ProblemData(mask, 0.4, A, ScalarField(grid, np.where(mask.inside, 300.0, 0.0)),
                       Threshold(scalar_field(grid, 150.0), 150.0))
    assert not frvi.vi.continues(data)
    sol = solve_vi(data, VI_CFG)
    assert sol.multiplier.values.max() > 0.0
    _assert_acceptance_06_07(sol, data)


# -- cold Krylov solves ---------------------------------------------------------


def _record_penalized_solves(monkeypatch):
    """(eps, sup|f| of the data, Newton steps) of every penalized solve."""
    calls = []
    impl = frvi.vi._solve_penalized_impl

    def recorded(data, eps, init, cfg):
        u, iters, *state = impl(data, eps, init, cfg)
        calls.append((eps, float(np.abs(data.f.values).max()), iters))
        return u, iters, *state
    monkeypatch.setattr(frvi.vi, "_solve_penalized_impl", recorded)
    return calls


def _count_krylov_iterations(monkeypatch):
    counts = {"cg": 0, "bicgstab": 0}
    for name in counts:
        solver = getattr(frvi.vi, name)

        def counted(*args, _solver=solver, _name=name, **kwargs):
            def step(_xk):
                counts[_name] += 1
            return _solver(*args, callback=step, **kwargs)
        monkeypatch.setattr(frvi.vi, name, counted)
    return counts


def _count_transforms(monkeypatch):
    calls = [0]
    for module in (scipy.fft, np.fft):
        for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"):
            def counted(*args, _fn=getattr(module, name), **kwargs):
                calls[0] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
    return calls


def test_cold_binding_2d_cg_iterations_bounded(monkeypatch):
    # 975 CG iterations when the cold start solves at eps0 on the data
    # itself, 595 through two data-scale stages, 82 with the stiff active
    # nodes corrected in the preconditioner, and 100 from the splitting
    # start, its linear steps included
    counts = _count_krylov_iterations(monkeypatch)
    solve_vi(binding_2d(), VI_CFG)
    assert counts["bicgstab"] == 0
    assert 0 < counts["cg"] <= 150


def test_cold_binding_2d_transform_count_bounded(monkeypatch):
    # 4086 transforms before the preconditioner corrected the stiff active
    # nodes (and before LinearOperator was told its dtype); the correction
    # costs eight per apply and its Gram ten per node, but saves CG steps
    data = binding_2d()
    calls = _count_transforms(monkeypatch)
    solve_vi(data, VI_CFG)
    assert 0 < calls[0] <= 2400


def test_no_stages_on_the_dense_path_or_from_a_nonzero_start(monkeypatch):
    calls = _record_penalized_solves(monkeypatch)
    sol = solve_vi(binding_1d(), VI_CFG)  # the dense path
    assert [(eps, f) for eps, f, _ in calls] == [(row.eps, 100.0) for row in sol.trace]
    calls.clear()
    data = binding_2d()
    init = sample_feasible(data, np.random.default_rng(0))
    one_step = PenaltyConfig(eps0=0.5, eps_min=0.5, newton_tol=VI_CFG.newton_tol)
    sol = solve_vi(data, one_step, init=init)
    assert [(eps, f) for eps, f, _ in calls] == [(0.5, 200.0)]
    assert sol.trace[0].newton_iters == calls[0][2]


# -- predicted starts: the splitting start and the secant start ---------------


def _qvi_first_inner_problem():
    """The data of qvi_separated_certified's cold first inner solve."""
    inst = qvi_separated_certified()
    grid = inst.problem.mask.grid
    return inst.problem.with_threshold(inst.operator.apply(zero_field(grid)))


def _count_seeds(monkeypatch):
    calls = []
    seed = frvi.vi._splitting_start

    def counted(data, cfg):
        calls.append(data)
        return seed(data, cfg)
    monkeypatch.setattr(frvi.vi, "_splitting_start", counted)
    return calls


@pytest.mark.parametrize("instance, cfg", [
    (binding_1d, VI_CFG), (small_binding_1d, VI_CFG),
    (_qvi_first_inner_problem, QVI_INNER_CFG)])
def test_seeded_and_unseeded_dense_solves_agree(monkeypatch, instance, cfg):
    data = instance()
    seeds = _count_seeds(monkeypatch)
    seeded = solve_vi(data, cfg)
    assert len(seeds) == 1
    monkeypatch.setattr(frvi.vi, "_splitting_start", lambda data, cfg: zero_field(data.grid))
    unseeded = solve_vi(data, cfg)
    assert seeded.eps_final == unseeded.eps_final
    u, lam = unseeded.u.values, unseeded.multiplier.values
    assert np.abs(seeded.u.values - u).max() <= cfg.newton_tol * np.abs(u).max()
    assert (np.abs(seeded.multiplier.values - lam).max()
            <= cfg.newton_tol * max(1.0, np.abs(lam).max()))


def test_binding_1d_first_eps_step_starts_near_the_solution():
    # 20 Newton steps from u = 0
    sol = solve_vi(binding_1d(), VI_CFG)
    assert sol.trace[0].newton_iters <= 5


def _scaled_a_and_f(base, c):
    """base with A and f scaled by c."""
    A = EllipticCoefficients(base.grid, c * base.A.values, a_star=c * base.A.a_star,
                             a_upper=c * base.A.a_upper)
    return ProblemData(base.mask, base.sigma, A, ScalarField(base.grid, c * base.f.values),
                       base.g)


@pytest.mark.parametrize("scale", [0.01, 100.0])
def test_splitting_start_runs_at_the_scale_of_a(monkeypatch, scale):
    # at rho = 1 the sweeps hit SEED_SWEEPS at both scales, and the first
    # eps step took 31 and 12 Newton steps.  Before the penalty was scaled
    # with a_*, even the constrained solution was a poor start at c = 100
    # (12 steps): the splitting start need only match it
    data = _scaled_a_and_f(binding_1d(), scale)
    _, exact_iters, *_ = frvi.vi._solve_penalized_impl(
        data, VI_CFG.eps0, oracle_solve_vi(data, tol=1e-9), VI_CFG)
    sweeps = [0]
    project = frvi.vi.ball_projection

    def counted(*args):
        sweeps[0] += 1
        return project(*args)
    monkeypatch.setattr(frvi.vi, "ball_projection", counted)
    sol = solve_vi(data, VI_CFG)
    assert 0 < sweeps[0] < frvi.vi.SEED_SWEEPS
    assert sol.trace[0].newton_iters <= max(5, exact_iters)


def _qvi_box_32():
    """A QVI on binding_2d's data at 32^2, whose solves take the Krylov
    path, with the constant threshold 187."""
    grid = make_grid(2, 2.0, 32)
    mask = mask_box(grid, 1.0)
    problem = QVIProblem(mask, 0.4, identity_coefficients(grid), ScalarField(
        grid, np.where(mask.inside, 200.0, 0.0)))
    return problem, SeparatedOperator(scalar_field(grid, 187.0), ConstantGamma(1.0))


@pytest.mark.parametrize("case", [
    "binding_1d", "binding_1d-krylov", "binding_2d", "variable-skew", "qvi-krylov",
    "nonzero-init"])
def test_every_cold_solve_runs_one_splitting_start(monkeypatch, case):
    # on both paths and for every A; the penalized solves that follow are
    # the eps steps on the data itself
    seeds = _count_seeds(monkeypatch)
    if case == "qvi-krylov":
        problem, operator = _qvi_box_32()
        sol = solve_qvi(problem, operator, QVI_INNER_CFG, outer_tol=QVI_OUTER_TOL)
        assert sol.converged and sol.iterations >= 2  # later inner solves start warm
        assert len(seeds) == 1 and not frvi.vi.continues(seeds[0])
        return
    calls = _record_penalized_solves(monkeypatch)
    data, init = binding_1d(), None
    if case == "binding_1d-krylov":
        monkeypatch.setattr(frvi.vi, "DENSE_NEWTON_BUDGET", 0)
    elif case == "binding_2d":
        data = binding_2d()
    elif case == "variable-skew":
        data = _variable_skew_binding_16()
        assert _PenalizedSystem(data, 0.5).G is not None
        assert not data.A.applied.is_symmetric
    elif case == "nonzero-init":
        init = sample_feasible(data, np.random.default_rng(0))
    sol = solve_vi(data, VI_CFG, init=init)
    assert len(seeds) == (init is None)
    f_sup = float(np.abs(data.f.values).max())
    assert [(eps, f) for eps, f, _ in calls] == [(row.eps, f_sup) for row in sol.trace]
    assert [iters for *_, iters in calls] == [row.newton_iters for row in sol.trace]
    assert sol.multiplier.values.max() > 0.0  # each instance binds
    assert sol.feas_violation <= 1e-3 * data.g.nu


@pytest.mark.parametrize("path, step", [("dense", 0), ("dense", 2), ("krylov", 0), ("krylov", 2)],
                         ids=["dense-splitting", "dense-secant", "krylov-splitting",
                              "krylov-secant"])
def test_divergence_from_a_predicted_start_reruns_the_step(monkeypatch, path, step):
    # a predicted start that diverges is dropped for the unpredicted one:
    # zero for the splitting start, the previous iterate for the secant
    if path == "krylov":
        monkeypatch.setattr(frvi.vi, "DENSE_NEWTON_BUDGET", 0)
    data = binding_1d()
    target = VI_CFG.schedule()[step]
    calls = []  # (eps, start, iterate, Newton steps) of the eps steps
    impl = frvi.vi._solve_penalized_impl

    def forced(d, eps, init, cfg):
        if d is data and eps == target and all(c[0] != eps for c in calls):
            calls.append((eps, init.values, None, None))
            raise SolverDivergence("forced", iterate=init, history=[1.0] * 7)
        u, iters, *state = impl(d, eps, init, cfg)
        if d is data:
            calls.append((eps, init.values, u.values, iters))
        return u, iters, *state
    monkeypatch.setattr(frvi.vi, "_solve_penalized_impl", forced)
    sol = solve_vi(data, VI_CFG)
    eps = [row.eps for row in sol.trace]
    assert [c[0] for c in calls] == eps[:step + 1] + eps[step:]
    previous = calls[step - 1][2] if step else np.zeros(data.grid.shape)
    predicted, rerun = calls[step][1], calls[step + 1][1]
    assert np.any(predicted != previous)
    assert np.array_equal(rerun, previous)
    assert sol.trace[step].newton_iters == 7 + calls[step + 1][3]
    assert sol.feas_violation <= 1e-3 * data.g.nu


@pytest.mark.parametrize("scale", [0.01, 100.0])
def test_splitting_start_sweeps_do_not_depend_on_the_scale_of_a(monkeypatch, scale):
    # both residuals are compared in gradient units: with the dual one
    # carrying rho = a_*, binding_1d's scaled starts ran 10 and 18 sweeps
    # against 12.  binding_2d's start takes the Krylov path's CG steps
    sweeps = []
    project = frvi.vi.ball_projection

    def counted(*args):
        sweeps[-1] += 1
        return project(*args)
    monkeypatch.setattr(frvi.vi, "ball_projection", counted)
    for base in (binding_1d(), binding_2d()):
        for c in (1.0, scale):
            sweeps.append(0)
            frvi.vi._splitting_start(_scaled_a_and_f(base, c), VI_CFG)
        assert sweeps[-2] == sweeps[-1] < frvi.vi.SEED_SWEEPS


@pytest.mark.parametrize("instance", [binding_1d, binding_2d])
def test_newton_steps_do_not_depend_on_the_scale_of_a_and_f(instance):
    # the penalty is a_* k_eps: with k_eps alone, c = 100 took
    # [10, 6, 2, 2, 2, 2] Newton steps on binding_1d and [29, 14, 8, 2, 2, 2]
    # on binding_2d, against [3, 3, 1, 1, 1, 1] and [6, 4, 1, 1, 1, 1]
    steps = [[row.newton_iters for row in solve_vi(_scaled_a_and_f(instance(), c), VI_CFG).trace]
             for c in (0.01, 1.0, 100.0)]
    assert steps[0] == steps[1] == steps[2]


# -- continuing the solution of a nearby problem -------------------------------


def _perturbed(data, f_factor=1.0, g_factor=1.0, g_shift=0.0):
    """data with (f, g) replaced by (f_factor f, g_factor g + g_shift)."""
    g = Threshold(ScalarField(data.grid, g_factor * data.g.g.values + g_shift),
                  g_factor * data.g.nu + g_shift)
    return ProblemData(data.mask, data.sigma, data.A,
                       ScalarField(data.grid, f_factor * data.f.values), g)


@pytest.mark.parametrize("change", [
    dict(f_factor=1.1), dict(g_shift=12.0), dict(g_factor=1.5)],
    ids=["f", "g-shift", "g-scale"])
def test_continued_solve_agrees_with_a_cold_one(change):
    base = binding_1d()
    data = _perturbed(base, **change)
    cold = solve_vi(data, VI_CFG)
    continued = solve_vi(data, VI_CFG, init=solve_vi(base, VI_CFG))
    assert [row.eps for row in continued.trace] == [VI_CFG.eps_min]
    gap = hsigma_norm(ScalarField(data.grid, continued.u.values - cold.u.values), data.sigma)
    assert gap <= 1e-6 * hsigma_norm(cold.u, data.sigma)


def _spectral_trace_row(data, eps, u, iters):
    """The trace row of u at eps, recomputed from its spectral gradient."""
    hN = data.grid.cell_volume
    w = grad_arrays(u.values, data.grid, data.sigma)
    mag = magnitude(w)
    excess = mag - data.g.g.values
    k = data.A.a_star * penalty_value(excess, eps)
    return frvi.vi.PenaltyTraceRow(
        eps=eps, newton_iters=iters,
        residual=float(np.abs(neg_div_arrays(k * w + data.A.applied.apply(w), data.grid,
                                              data.sigma) - data.f.values)[data.mask.inside].max()),
        feas_violation=float(max(excess.max(), 0.0)),
        comp_gap=abs(hN * float(np.sum(k * excess))),
        norm_dsu_l2=float(np.sqrt(hN * np.sum(mag**2))),
        k_eps_l1=hN * float(np.sum(np.abs(k))),
        k_eps_dsu2_l1=hN * float(np.sum(k * mag**2)),
        energy=energy(u, data) if data.A.is_symmetric else None,
        measure_u=hN * float(np.sum(excess <= math.sqrt(eps))),
        measure_v=hN * float(np.sum((excess > math.sqrt(eps)) & (excess <= 1.0 / eps))),
        measure_w=hN * float(np.sum(excess > 1.0 / eps)),
        excess_integral=hN * float(np.sum(np.maximum(excess, 0.0))))


@pytest.mark.parametrize("continued", [False, True], ids=["cold", "continued"])
def test_dense_solve_makes_no_transform(monkeypatch, continued):
    # every trace row is read off the Newton loop's own G x and residual;
    # the cached G and linear part are built by the first solve
    base = binding_1d()
    prev = solve_vi(base, VI_CFG)
    data = _perturbed(base, f_factor=1.1)
    iterates = []
    impl = frvi.vi._solve_penalized_impl

    def recorded(d, eps, init, cfg):
        u, *rest = impl(d, eps, init, cfg)
        iterates.append(u)
        return u, *rest
    monkeypatch.setattr(frvi.vi, "_solve_penalized_impl", recorded)
    forward = frvi.fracgrad._forward
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return forward(*args)
    monkeypatch.setattr(frvi.fracgrad, "_forward", counted)
    sol = solve_vi(data, VI_CFG, init=prev if continued else None)
    assert calls[0] == 0
    assert len(sol.trace) == len(iterates) == (1 if continued else len(VI_CFG.schedule()))
    # each row against the spectral gradient of its iterate
    tol = VI_CFG.newton_tol * (1.0 + float(np.abs(data.f.values).max()))
    for row, u in zip(sol.trace, iterates):
        want = _spectral_trace_row(data, row.eps, u, row.newton_iters)
        assert abs(row.residual - want.residual) <= tol
        for name in ("eps", "newton_iters", "feas_violation", "comp_gap", "norm_dsu_l2",
                     "k_eps_l1", "k_eps_dsu2_l1", "energy", "measure_u", "measure_v",
                     "measure_w", "excess_integral"):
            assert getattr(row, name) == pytest.approx(getattr(want, name), rel=1e-9), name
    lam = extract_multiplier(sol.u, data, sol.eps_final).values
    assert np.abs(sol.multiplier.values - lam).max() <= 1e-9 * np.abs(lam).max()


@pytest.mark.parametrize("instance", [binding_2d, _variable_skew_box_32])
def test_krylov_path_solves_a_continued_problem_cold(instance):
    # no workload measures continued Krylov solves: there the cold
    # schedule runs, as without the init
    base = instance()
    data = _perturbed(base, g_factor=1.05)
    prev = solve_vi(base, VI_CFG)
    cold = solve_vi(data, VI_CFG)
    sol = solve_vi(data, VI_CFG, init=prev)
    assert not frvi.vi.continues(data)
    assert [(r.eps, r.newton_iters) for r in sol.trace] == [
        (r.eps, r.newton_iters) for r in cold.trace]
    assert np.array_equal(sol.u.values, cold.u.values)


@pytest.mark.parametrize("newton_max", [80, 5])
def test_continued_solve_keeps_within_the_callers_newton_max(monkeypatch, newton_max):
    base = binding_1d()
    prev = solve_vi(base, VI_CFG)
    cfg = replace(VI_CFG, newton_max=newton_max)
    seen = []
    impl = frvi.vi._solve_penalized_impl

    def recorded(d, eps, init, cfg):
        seen.append(cfg.newton_max)
        return impl(d, eps, init, cfg)
    monkeypatch.setattr(frvi.vi, "_solve_penalized_impl", recorded)
    solve_vi(_perturbed(base, f_factor=1.1), cfg, init=prev)
    assert seen == [min(newton_max, frvi.vi.CONTINUED_NEWTON_MAX)]


def test_diverging_continued_solve_reruns_cold(monkeypatch):
    base = binding_1d()
    data = _perturbed(base, f_factor=1.1)
    prev = solve_vi(base, VI_CFG)
    cold = solve_vi(data, VI_CFG)
    impl = frvi.vi._solve_penalized_impl

    def forced(d, eps, init, cfg):
        # the continued attempt is the one solve with the continued budget
        if cfg.newton_max == frvi.vi.CONTINUED_NEWTON_MAX:
            raise SolverDivergence("forced", iterate=init, history=[1.0] * 4)
        return impl(d, eps, init, cfg)
    monkeypatch.setattr(frvi.vi, "_solve_penalized_impl", forced)
    sol = solve_vi(data, VI_CFG, init=prev)
    assert [row.eps for row in sol.trace] == [row.eps for row in cold.trace]
    assert sol.trace[0].newton_iters == 4 + cold.trace[0].newton_iters
    assert [row.newton_iters for row in sol.trace[1:]] == [
        row.newton_iters for row in cold.trace[1:]]
    assert np.array_equal(sol.u.values, cold.u.values)


def test_continuing_a_solution_of_another_operator_is_rejected():
    base = binding_1d()
    prev = solve_vi(base, VI_CFG)
    grid = base.grid
    others = [
        ProblemData(mask_box(grid, 0.9), base.sigma, base.A, ScalarField(
            grid, np.where(mask_box(grid, 0.9).inside, 100.0, 0.0)), base.g),
        ProblemData(base.mask, 0.6, base.A, base.f, base.g),
        ProblemData(base.mask, base.sigma, identity_coefficients(grid, 2.0), base.f, base.g),
    ]
    for data in others:
        with pytest.raises(ValueError, match="another mask, sigma or A"):
            solve_vi(data, VI_CFG, init=prev)


def test_penalty_config_floor_enforced():
    with pytest.raises(ValueError, match="floor"):
        PenaltyConfig(eps_min=0.01)
    with pytest.raises(ValueError):
        PenaltyConfig(ratio=1.5)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_controls_and_bounds_rejected(value):
    with pytest.raises(ValueError, match="invalid solver controls"):
        PenaltyConfig(newton_tol=value)
    # newton_max bounds a range(): inf and 2.5 would fail there, True run one step
    for newton_max in (math.inf, 2.5, True):
        with pytest.raises(ValueError, match="invalid solver controls"):
            PenaltyConfig(newton_max=newton_max)
    assert PenaltyConfig(newton_max=np.int64(3)).newton_max == 3
    grid = make_grid(1, 2.0, 32)
    with pytest.raises(ValueError, match="threshold lower bound violated"):
        Threshold(scalar_field(grid, 1.0), value)
    with pytest.raises(ValueError, match="extent"):
        make_grid(1, value, 32)


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
    w = sys.gradient(x0)
    k, coef = sys.linearization(w)
    jv = sys.neg_div(sys.flux(sys.gradient(v), k, w, coef))
    t = 1e-7
    fd = (sys.residual_of_grad(sys.gradient(x0 + t * v))
          - sys.residual_of_grad(sys.gradient(x0 - t * v))) / (2 * t)
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
    ref = solve_vi(data, VI_CFG)
    shrunk = shrink_to_feasible(ref.u, data)
    assert feasibility_violation(shrunk, data) == 0.0
    # the shrink factor nu/(nu+eta) is a small contraction of the iterate
    factor = data.g.nu / (data.g.nu + ref.feas_violation)
    assert np.allclose(shrunk.values, factor * ref.u.values, rtol=1e-12)


def test_solve_vi_samples_nothing_until_vi_res_is_read(monkeypatch):
    draws, diag = [0], [0]
    real_sample, real_residual = frvi.vi.sample_feasible, frvi.vi.vi_residual

    def sample(*args, **kwargs):
        draws[0] += 1
        return real_sample(*args, **kwargs)

    def residual(*args, **kwargs):
        diag[0] += 1
        return real_residual(*args, **kwargs)
    monkeypatch.setattr(frvi.vi, "sample_feasible", sample)
    monkeypatch.setattr(frvi.vi, "vi_residual", residual)
    data = small_binding_1d()
    sol = solve_vi(data, VI_CFG)
    assert (draws[0], diag[0]) == (0, 0)
    value = sol.vi_res
    assert (draws[0], diag[0]) == (32, 1)
    assert sol.vi_res is value and diag[0] == 1  # computed once
    assert value == real_residual(sol.u, data)


def test_newton_max_admits_the_step_that_converges():
    # binding_1d at eps0 from zero converges in 20 Newton steps: the residual
    # after the last step allowed is tested too, and a budget one short
    # fails with one history entry per step taken
    data = binding_1d()
    start = zero_field(data.grid)
    u = solve_penalized(data, VI_CFG.eps0, start, replace(VI_CFG, newton_max=20))
    assert np.array_equal(u.values, solve_penalized(data, VI_CFG.eps0, start, VI_CFG).values)
    with pytest.raises(SolverDivergence, match="newton_max=19 exceeded") as err:
        solve_penalized(data, VI_CFG.eps0, start, replace(VI_CFG, newton_max=19))
    assert len(err.value.history) == 19


def test_diverging_step_from_a_given_start_is_raised():
    # a given nonzero init is no prediction, so when the first eps step
    # diverges from it there is no other start to rerun it from
    data = binding_1d()
    init = ScalarField(data.grid, 0.5 * solve_vi(data, VI_CFG).u.values)
    with pytest.raises(SolverDivergence, match="newton_max=1 exceeded") as err:
        solve_vi(data, replace(VI_CFG, newton_max=1), init=init)
    assert len(err.value.history) == 1


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
    ref = solve_vi(data, cfg).u.values
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
    # the energy test; x is the point whose gradient the residual is of
    real_gradient = frvi.vi._PenalizedSystem.gradient
    real_residual = frvi.vi._PenalizedSystem.residual_of_grad
    points = []

    def gradient(self, x):
        points.append(x.copy())
        return real_gradient(self, x)

    def residual_of_grad(self, w):
        if len(points) == 1:
            return real_residual(self, w)
        return -np.sign(points[-1] - points[0]) * np.finfo(float).max
    monkeypatch.setattr(frvi.vi._PenalizedSystem, "gradient", gradient)
    monkeypatch.setattr(frvi.vi._PenalizedSystem, "residual_of_grad", residual_of_grad)
    data = binding_1d()
    with pytest.raises(SolverDivergence, match="no descent") as err:
        solve_penalized(data, 0.5, zero_field(data.grid), PenaltyConfig())
    assert len(err.value.history) == 1


def test_divergence_counts_nonconverged_krylov_solves(monkeypatch):
    def never_converges(*args, **kwargs):
        return np.zeros_like(args[1]), 1
    monkeypatch.setattr(frvi.vi, "cg", never_converges)
    data = binding_2d()  # above DENSE_NEWTON_BUDGET: the Krylov path
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
    return solve_vi(small_binding_1d(), VI_CFG)


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
    c_star = estimate_sobolev_constant(data.mask, data.sigma)
    bound = c_star / data.A.a_star * lp_norm(data.f, two_sharp, data.mask)
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


def _lone_sample_feasible(data, rng):
    """The reference sampler of sample_feasible: one lone draw and two lone
    gradients per field."""
    grid = data.grid
    shaped = random_band_limited(grid, rng).values * _smooth_bump(data.mask)
    if data.mask.is_full:
        shaped = shaped - shaped.mean()
    mag_max = float(magnitude(grad_arrays(shaped, grid, data.sigma)).max())
    if mag_max > 0:
        shaped = shaped * (0.8 * float(data.g.g.values.min()) / mag_max)
    eta = feasibility_violation(ScalarField(grid, shaped), data)
    return data.g.nu / (data.g.nu + eta) * shaped


def _lone_vi_residual(u, data, trials, seed):
    """vi_residual as a loop over lone candidates, each with its own
    gradient."""
    rng = np.random.default_rng(seed)
    grid = data.grid
    Aw = data.A.apply(grad_arrays(u.values, grid, data.sigma))
    hN = grid.cell_volume

    def functional(v):
        dv = grad_arrays(v - u.values, grid, data.sigma)
        return hN * float(np.sum(Aw * dv)) - hN * float(
            np.dot(data.f.values.ravel(), (v - u.values).ravel()))

    candidates = [np.zeros(grid.shape), shrink_to_feasible(u, data).values]
    candidates += [_lone_sample_feasible(data, rng) for _ in range(trials)]
    return min(functional(v) for v in candidates)


@pytest.mark.parametrize("instance", [binding_1d, binding_2d, _full_torus_problem])
def test_feasible_stack_rows_are_sequential_lone_samples(instance):
    # successive samples, stacked, are bitwise the successive reference
    # samples and consume the same draws
    data = instance()
    lone_rng, rng = np.random.default_rng(5), np.random.default_rng(5)
    lone = np.stack([_lone_sample_feasible(data, lone_rng) for _ in range(35)])
    stack = np.stack([sample_feasible(data, rng).values for _ in range(35)])
    assert stack.tobytes() == lone.tobytes()
    assert rng.random() == lone_rng.random()


def test_samples_on_a_mask_that_is_not_a_box_are_shaped_by_its_indicator():
    # _smooth_bump has a profile for boxes only; on two intervals the
    # samples are shaped by the indicator, vanish off the mask and are
    # feasible
    grid = make_grid(1, 2.0, 128)
    x = grid.axis()
    inside = (np.abs(x) > 0.25) & (np.abs(x) < 1.0)
    mask = DomainMask(grid, inside, padding_fraction=0.25)
    assert np.array_equal(_smooth_bump(mask), inside.astype(float))
    f = ScalarField(grid, np.where(inside, 10.0, 0.0))
    data = ProblemData(mask, 0.5, identity_coefficients(grid), f,
                       Threshold(scalar_field(grid, 10.0), 10.0))
    u = sample_feasible(data, np.random.default_rng(0))
    assert np.any(u.values) and not np.any(u.values[~inside])
    assert feasibility_violation(u, data) == 0.0


@pytest.mark.parametrize("instance", [binding_1d, small_binding_1d, inactive_1d,
                                      binding_2d, nonsymmetric_2d])
def test_vi_residual_equals_the_sequential_loop(instance):
    data = instance()
    # an infeasible field, so that the shrunk candidate differs from u
    u = ScalarField(data.grid, 3.0 * sample_feasible(data, np.random.default_rng(4)).values)
    for trials, seed in [(32, 0), (64, 11), (5, 3), (0, 0)]:
        assert vi_residual(u, data, trials, seed) == _lone_vi_residual(u, data, trials, seed)


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
