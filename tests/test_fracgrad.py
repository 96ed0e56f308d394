import math
import time

import numpy as np
import pytest

from frvi.fields import (
    DomainMask,
    ScalarField,
    VectorField,
    inner,
    lp_norm,
    make_grid,
    mask_box,
)
from frvi.fracgrad import (
    FracOrder,
    apply_symbol,
    frac_divergence,
    frac_gradient,
    frac_laplacian,
    grad_arrays,
    gradient_matrix,
    gradient_rows,
    gram_matrix,
    hsigma_norm,
    multiplier_table,
    neg_div_arrays,
    quadrature_frac_gradient,
    random_band_limited,
    riesz_constant,
    riesz_potential,
)
from frvi.instances import binding_1d, binding_2d


def mode_grid(n=64):
    return make_grid(1, math.pi, n)  # physical frequency = integer mode index


def test_frac_order_range():
    FracOrder(0.5)
    FracOrder(1.0)
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            FracOrder(bad)


def test_riesz_constant_value():
    # gamma_{1,1/2} = Gamma(1/4) / (pi^(1/2) 2^(1/2) Gamma(1/4)) = (2 pi)^(-1/2)
    assert riesz_constant(1, 0.5) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-14)
    assert riesz_constant(2, 0.7) > 0


def test_riesz_potential_pure_mode():
    g = mode_grid()
    x = g.axis()
    for k in (1, 2, 4):
        for alpha in (0.25, 0.5, 0.75):
            out = riesz_potential(ScalarField(g, np.sin(k * x)), alpha)
            expect = float(k) ** (-alpha) * np.sin(k * x)
            assert np.abs(out.values - expect).max() < 1e-12


def test_riesz_potential_zero():
    g = mode_grid()
    out = riesz_potential(ScalarField(g, np.zeros(g.shape)), 0.5)
    assert np.all(out.values == 0.0)


def test_riesz_potential_small_alpha_is_identity():
    # symbol deviation on modes |k| <= kmax is at most 1 - kmax^(-alpha)
    rng = np.random.default_rng(0)
    g = mode_grid()
    kmax = 8
    u = random_band_limited(g, rng, kmax=kmax)
    scale = np.abs(u.values).max()
    alpha = 1e-4
    coeff_l1 = np.abs(np.fft.fft(u.values)).sum() / g.resolution
    bound = (1.0 - kmax ** (-alpha)) * coeff_l1
    out = riesz_potential(u, alpha)
    assert np.abs(out.values - u.values).max() <= bound + 1e-12 * scale
    # the deviation vanishes proportionally to alpha
    tiny = riesz_potential(u, 1e-8)
    assert np.abs(tiny.values - u.values).max() < 1e-6 * scale


def test_riesz_potential_alpha_range():
    g = mode_grid()
    u = ScalarField(g, np.zeros(g.shape))
    for bad in (0.0, 1.0, -0.3):
        with pytest.raises(ValueError):
            riesz_potential(u, bad)


def test_riesz_potential_semigroup():
    rng = np.random.default_rng(1)
    g = mode_grid()
    u = random_band_limited(g, rng, kmax=8)
    a, b = 0.3, 0.4
    v1 = riesz_potential(riesz_potential(u, a), b)
    v2 = riesz_potential(u, a + b)
    assert np.abs(v1.values - v2.values).max() < 1e-10


def test_frac_gradient_pure_mode():
    g = mode_grid()
    x = g.axis()
    for k in (1, 2, 4):
        for sigma in (0.25, 0.5, 0.75, 1.0):
            out = frac_gradient(ScalarField(g, np.sin(k * x)), sigma)
            expect = float(k) ** sigma * np.cos(k * x)
            assert np.abs(out.components[0] - expect).max() < 1e-12 * float(k) ** sigma


def test_frac_gradient_classical_limit_is_spectral_gradient():
    g = mode_grid()
    x = g.axis()
    out = frac_gradient(ScalarField(g, np.sin(3 * x)), 1.0)
    assert np.abs(out.components[0] - 3 * np.cos(3 * x)).max() < 1e-12


def test_frac_gradient_kills_constants():
    g = make_grid(2, 1.5, 16)
    out = frac_gradient(ScalarField(g, np.full(g.shape, 4.2)), 0.5)
    for c in out.components:
        assert np.abs(c).max() < 1e-14


def test_frac_gradient_linear():
    rng = np.random.default_rng(2)
    g = make_grid(2, 1.0, 32)
    u = random_band_limited(g, rng)
    v = random_band_limited(g, rng)
    a, b = 2.5, -1.25
    lhs = frac_gradient(ScalarField(g, a * u.values + b * v.values), 0.6)
    for j in range(2):
        rhs = a * frac_gradient(u, 0.6).components[j] + b * frac_gradient(v, 0.6).components[j]
        scale = np.abs(rhs).max()
        assert np.abs(lhs.components[j] - rhs).max() <= 1e-12 * max(scale, 1.0)


def test_adjointness_random_fields():
    rng = np.random.default_rng(3)
    g = mode_grid()
    for sigma in (0.3, 0.5, 0.9):
        u = random_band_limited(g, rng)
        w = VectorField(g, (random_band_limited(g, rng).values,))
        lhs = inner(frac_gradient(u, sigma), w)
        rhs = inner(u, frac_divergence(w, sigma))
        scale = lp_norm(u, 2) * lp_norm(w, 2) + 1.0
        assert abs(lhs + rhs) <= 1e-10 * scale


def test_divergence_of_gradient_is_minus_laplacian():
    rng = np.random.default_rng(4)
    for dim, n in ((1, 64), (2, 16)):
        g = make_grid(dim, 2.0, n)
        u = random_band_limited(g, rng)
        for sigma in (0.3, 0.5, 0.9):
            lap = frac_laplacian(u, sigma)
            comp = frac_divergence(frac_gradient(u, sigma), sigma)
            scale = np.abs(lap.values).max() + 1.0
            assert np.abs(lap.values + comp.values).max() <= 1e-10 * scale


@pytest.mark.parametrize("dim, n, sigma", [(1, 128, 0.5), (2, 64, 0.4)])
def test_gram_matrix_matches_column_assembly(dim, n, sigma):
    # binding_1d's and binding_2d's masks; column j of the reference is
    # -div^sigma D^sigma of the unit field at the j-th inside node
    g = make_grid(dim, 2.0, n)
    m = mask_box(g, 1.0)
    nodes = np.argwhere(m.inside)
    ref = np.zeros((len(nodes), len(nodes)))
    basis = np.zeros(g.shape)
    for j, node in enumerate(nodes):
        basis[tuple(node)] = 1.0
        ref[:, j] = neg_div_arrays(grad_arrays(basis, g, sigma), g, sigma)[m.inside]
        basis[tuple(node)] = 0.0
    got = gram_matrix(m, sigma)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    # the H^sigma form: ||E x||^2 = h^N x^T M x
    x = np.random.default_rng(8).normal(size=len(nodes))
    u = np.zeros(g.shape)
    u[m.inside] = x
    form = g.cell_volume * x @ got @ x
    assert hsigma_norm(ScalarField(g, u), sigma) ** 2 == pytest.approx(form, rel=1e-12)


@pytest.mark.parametrize("dim, n, sigma", [(1, 128, 0.5), (2, 16, 0.4)])
def test_gradient_matrix_matches_impulse_gradients(dim, n, sigma):
    # binding_1d's mask and a 16^2 box: column j is D^sigma of the unit
    # field at the j-th inside node, and G^T is P(-div^sigma)
    g = make_grid(dim, 2.0, n)
    m = mask_box(g, 1.0)
    nodes = np.argwhere(m.inside)
    G = gradient_matrix(m, sigma)
    assert G.shape == (dim * g.num_nodes, len(nodes))
    ref = np.zeros(G.shape)
    basis = np.zeros(g.shape)
    for j, node in enumerate(nodes):
        basis[tuple(node)] = 1.0
        ref[:, j] = grad_arrays(basis, g, sigma).ravel()
        basis[tuple(node)] = 0.0
    assert np.abs(G - ref).max() <= 1e-13 * np.abs(ref).max()
    flux = np.random.default_rng(9).normal(size=(dim,) + g.shape)
    div = neg_div_arrays(flux, g, sigma)[m.inside]
    assert np.abs(G.T @ flux.ravel() - div).max() <= 1e-13 * np.abs(div).max()


@pytest.mark.parametrize("mask", [
    lambda: binding_1d().mask,
    lambda: mask_box(make_grid(2, 2.0, 32), 1.0),
    lambda: binding_2d().mask,
])
def test_gradient_rows_are_slices_of_the_gradient_matrix(mask):
    m = mask()
    grid = m.grid
    G = gradient_matrix(m, 0.4).reshape(grid.dim, grid.num_nodes, m.num_inside)
    nodes = np.random.default_rng(3).permutation(grid.num_nodes)[:37]
    nodes[:2] = [0, grid.num_nodes - 1]
    assert gradient_rows(m, 0.4, nodes).tobytes() == G[:, nodes].tobytes()
    assert gradient_rows(m, 0.4, np.arange(grid.num_nodes)).tobytes() == G.tobytes()
    assert gradient_rows(m, 0.4, []).shape == (grid.dim, 0, m.num_inside)


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 16), (3, 8)])
def test_gram_and_gradient_rows_gather_at_the_wrapped_differences(dim, n):
    # a random (non-box) mask: each entry is the kernel read at the
    # difference of the two nodes' coordinates taken mod n
    g = make_grid(dim, 2.0, n)
    rng = np.random.default_rng(dim)
    m = DomainMask(g, rng.random(g.shape) < 0.3, padding_fraction=0.0)
    inside = np.argwhere(m.inside)
    nodes = rng.permutation(g.num_nodes)[:11]
    rows = np.column_stack(np.unravel_index(nodes, g.shape))

    def wrapped(a, b):
        return tuple(np.mod(a[:, None, j] - b[None, :, j], n) for j in range(dim))
    impulse = np.zeros(g.shape)
    impulse[(0,) * dim] = 1.0
    lap = frac_laplacian(ScalarField(g, impulse), 0.4).values
    assert np.array_equal(gram_matrix(m, 0.4), lap[wrapped(inside, inside)])
    grad = grad_arrays(impulse, g, 0.4)
    expected = np.stack([comp[wrapped(rows, inside)] for comp in grad])
    assert np.array_equal(gradient_rows(m, 0.4, nodes), expected)


def test_gradient_matrix_rejects_oversized_masks():
    # 127^2 = 16,129 inside nodes; at 128^2, 63^2 = 3,969 inside nodes but
    # 2 * 128^2 * 3,969 = 1.3e8 entries (1 GB): rejected before anything is
    # built
    for n in (256, 128):
        g = make_grid(2, 2.0, n)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="dense"):
            gradient_matrix(mask_box(g, 1.0), 0.5)
        assert time.perf_counter() - start < 0.5


def test_frac_divergence_zero():
    g = make_grid(2, 1.0, 8)
    w = VectorField(g, (np.zeros(g.shape), np.zeros(g.shape)))
    assert np.all(frac_divergence(w, 0.5).values == 0.0)


def test_frac_laplacian_pure_mode():
    g = mode_grid()
    x = g.axis()
    for sigma in (0.25, 0.5, 1.0):
        out = frac_laplacian(ScalarField(g, np.sin(2 * x)), sigma)
        expect = 2.0 ** (2 * sigma) * np.sin(2 * x)
        assert np.abs(out.values - expect).max() < 1e-12 * 2.0 ** (2 * sigma)


def test_plane_wave_amplitude_is_kappa_to_sigma():
    # multiplier magnitude |m(k)| = |kappa|^sigma on every nonzero mode
    g = make_grid(1, 2.0, 32)
    comps, mag_sigma = multiplier_table(g, 0.7)
    m = comps[0]
    nonzero = mag_sigma > 0
    assert np.allclose(np.abs(m[nonzero]), mag_sigma[nonzero], rtol=1e-12)
    assert m[0] == 0.0


def test_multiplier_conjugate_symmetry():
    g = make_grid(1, 1.0, 32)
    comps, _ = multiplier_table(g, 0.4)
    m = comps[0]
    n = g.resolution
    for k in range(1, n // 2):
        assert m[n - k] == np.conj(m[k])


def _complex_reference(values, mult):
    return np.fft.ifftn(mult * np.fft.fftn(values)).real


def _rel_err(got, ref):
    return float(np.abs(got - ref).max() / np.abs(ref).max())


@pytest.mark.parametrize("dim, n", [(1, 128), (2, 64), (3, 16)])
def test_real_kernel_matches_complex_transforms(dim, n):
    rng = np.random.default_rng(dim)
    g = make_grid(dim, 2.0, n)
    sigma = 0.4
    comps, mag_sigma = multiplier_table(g, sigma)
    v = rng.normal(size=g.shape)
    w = rng.normal(size=(dim,) + g.shape)
    grad_ref = np.stack([_complex_reference(v, m) for m in comps])
    assert _rel_err(grad_arrays(v, g, sigma), grad_ref) <= 1e-13
    div_ref = -np.fft.ifftn(sum(m * np.fft.fftn(c) for m, c in zip(comps, w))).real
    assert _rel_err(neg_div_arrays(w, g, sigma), div_ref) <= 1e-13
    for mult in (mag_sigma, mag_sigma**2):
        assert _rel_err(apply_symbol(v, mult), _complex_reference(v, mult)) <= 1e-13


@pytest.mark.parametrize("dim, n", [(1, 128), (2, 64), (3, 16)])
def test_batch_axes_match_row_by_row_calls(dim, n):
    rng = np.random.default_rng(10 + dim)
    g = make_grid(dim, 2.0, n)
    sigma = 0.4
    v = rng.normal(size=(5,) + g.shape)
    w = grad_arrays(v, g, sigma)
    assert w.shape == (5, dim) + g.shape
    assert w.tobytes() == np.stack([grad_arrays(r, g, sigma) for r in v]).tobytes()
    d = neg_div_arrays(w, g, sigma)
    assert d.shape == v.shape
    assert d.tobytes() == np.stack([neg_div_arrays(r, g, sigma) for r in w]).tobytes()


def test_sigma_to_one_limit():
    rng = np.random.default_rng(5)
    g = make_grid(1, math.pi, 128)
    sigmas = [0.6, 0.7, 0.8, 0.9, 0.99]
    for _ in range(5):
        u = random_band_limited(g, rng, kmax=2)
        d1 = frac_gradient(u, 1.0)
        errs = []
        for s in sigmas:
            d = frac_gradient(u, s)
            errs.append(lp_norm(VectorField(g, tuple(
                a - b for a, b in zip(d.components, d1.components))), 2))
        assert all(errs[i + 1] < errs[i] + 1e-12 for i in range(len(errs) - 1))
        assert errs[-1] <= 1e-2 * lp_norm(d1, 2)


def test_hsigma_norm_zero_and_scaling():
    g = make_grid(1, 2.0, 64)
    m = mask_box(g, 1.0)
    z = ScalarField(g, np.zeros(g.shape))
    assert hsigma_norm(z, 0.5, m) == 0.0
    x = g.axis()
    u = ScalarField(g, np.where(np.abs(x) < 1.0, (1 - x**2) ** 2, 0.0))
    a = hsigma_norm(ScalarField(g, 3.0 * u.values), 0.5, m)
    assert a == pytest.approx(3.0 * hsigma_norm(u, 0.5, m), rel=1e-13)


def test_hsigma_norm_rejects_unsupported_field():
    g = make_grid(1, 2.0, 64)
    m = mask_box(g, 1.0)
    u = ScalarField(g, np.ones(g.shape))
    with pytest.raises(ValueError, match="outside"):
        hsigma_norm(u, 0.5, m)


def test_hsigma_norm_grid_convergence():
    vals = {}
    for n in (256, 512):
        g = make_grid(1, 2.0, n)
        x = g.axis()
        u = ScalarField(g, np.where(np.abs(x) < 1.0, (1 - x**2) ** 2, 0.0))
        vals[n] = hsigma_norm(u, 0.5, mask_box(g, 1.0))
    assert abs(vals[256] - vals[512]) <= 1e-3 * max(1.0, vals[512])


def quad_setup(sigma, n=64):
    g = make_grid(1, 4.0, n)
    x = g.axis()
    u = ScalarField(g, np.exp(-((x / 0.5) ** 2)))
    return g, u


def test_quadrature_zero_field():
    g = make_grid(1, 1.0, 32)
    out = quadrature_frac_gradient(ScalarField(g, np.zeros(g.shape)), 0.5)
    assert np.all(out.components[0] == 0.0)


def test_quadrature_matches_spectral_on_bump():
    g, u = quad_setup(0.5)
    spec = frac_gradient(u, 0.5)
    quad = quadrature_frac_gradient(u, 0.5)
    diff = VectorField(g, (spec.components[0] - quad.components[0],))
    assert lp_norm(diff, 2) <= 0.05 * lp_norm(spec, 2)


def test_quadrature_converges_to_spectral_on_a_2d_bump():
    # the 2D self-cell takes the equal-volume-ball correction; its relative
    # L2 gap to the spectral gradient reads 0.343 at 16^2 and 0.097 at 32^2
    gaps = []
    for n in (16, 32):
        g = make_grid(2, 4.0, n)
        x, y = g.coordinates()
        u = ScalarField(g, np.exp(-((x**2 + y**2) / 0.5**2)))
        spec = frac_gradient(u, 0.5)
        quad = quadrature_frac_gradient(u, 0.5)
        diff = VectorField(g, tuple(a - b for a, b in zip(spec.components,
                                                          quad.components)))
        gaps.append(lp_norm(diff, 2) / lp_norm(spec, 2))
    assert gaps[1] <= 0.12
    assert gaps[1] <= 0.5 * gaps[0]


def test_quadrature_odd_input_gives_even_output():
    g = make_grid(1, 4.0, 64)
    x = g.axis()
    u = ScalarField(g, x * np.exp(-((x / 0.5) ** 2)))
    q = quadrature_frac_gradient(u, 0.5).components[0]
    mirrored = np.roll(q[::-1], 1)  # node map x -> -x on the torus
    assert np.abs(q - mirrored).max() <= 5e-3 * np.abs(q).max()


def test_quadrature_rejects_large_grid():
    g = make_grid(1, 1.0, 8192)
    with pytest.raises(ValueError, match="too large"):
        quadrature_frac_gradient(ScalarField(g, np.zeros(g.shape)), 0.5)


# -- sampling -------------------------------------------------------------------


def _lone_band_limited(grid, rng, kmax=None, amplitude=1.0):
    """The reference draw of random_band_limited: one field, two
    rng.normal calls, one inverse transform."""
    n = grid.resolution
    if kmax is None:
        kmax = max(1, n // 8)
    k = np.fft.fftfreq(n, d=1.0 / n)
    keep1d = np.abs(k) <= kmax
    keep = keep1d
    for _ in range(grid.dim - 1):
        keep = keep[..., None] & keep1d
    spec = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    spec[~keep] = 0.0
    spec[(0,) * grid.dim] = 0.0
    v = np.fft.ifftn(spec).real
    peak = np.abs(v).max()
    if peak > 0:
        v = v * (amplitude / peak)
    return v


@pytest.mark.parametrize("instance", [binding_1d, binding_2d])
@pytest.mark.parametrize("kmax, amplitude", [(None, 1.0), (3, 2.5)])
def test_band_limited_stack_rows_are_sequential_lone_draws(instance, kmax, amplitude):
    # successive draws, stacked, are bitwise the successive reference draws
    # and consume the same normals
    grid = instance().grid
    lone_rng, rng = np.random.default_rng(7), np.random.default_rng(7)
    lone = np.stack([_lone_band_limited(grid, lone_rng, kmax, amplitude)
                     for _ in range(5)])
    stack = np.stack([random_band_limited(grid, rng, kmax, amplitude).values
                      for _ in range(5)])
    assert stack.tobytes() == lone.tobytes()
    assert rng.random() == lone_rng.random()  # same draws consumed
