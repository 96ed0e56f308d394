"""Fractional differential operators as Fourier multipliers on the torus.

All operators share one frequency convention: physical angular frequencies
kappa_j = (pi/L) k_j with integer k_j, the zero mode mapped to zero, and
the unpaired Nyquist frequency of each axis zeroed so every operator maps
real fields to real fields.  Operators therefore act on the band-limited
subspace; the spectral forms are exact there.

A dense singular-integral evaluation of the fractional gradient is kept as
a small-scale cross-check oracle for the spectral route.

The only module that calls Fourier transforms: solvers use the array-level
core (grad_arrays, neg_div_arrays, apply_symbol), fields wrap the same.
The core runs real-input transforms (rfft/irfft in 1D, rfftn/irfftn in
higher dimensions) on the half spectrum, the last axis cut to n//2 + 1
bins: every symbol it applies is Hermitian, m(-k) = conj(m(k)), so the
other half is redundant.  A stacked (N, *grid.shape) array goes through
one transform call, not one per component, and so does a batch of
fields stacked along leading axes.

Multiplier tables are immutable and cached per (grid, sigma), the half
tables beside the full ones; transforms are pure with per-call
workspaces, safe to run concurrently.

For small masks the core also gives its operators as dense matrices on
the inside nodes: gram_matrix (the H^sigma form) and gradient_matrix (the
restricted fractional gradient, which the semismooth Newton solver
assembles its Jacobians from), and gradient_rows gives the rows of the
latter at chosen nodes (which the Krylov preconditioner corrects).  Each
comes from one transform of an impulse, gathered at the wrapped node
differences, since every multiplier is translation invariant on the torus.
gram_spectrum decomposes M once per mask and keeps only two scalars.

The only complex transform is the one in random_band_limited, the real
part of numpy's np.fft.ifftn of a full random spectrum.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import scipy.fft
from scipy.special import zeta as sp_zeta

from .fields import DomainMask, Grid, ScalarField, VectorField, lp_norm

DENSE_UNKNOWN_LIMIT = 4096


def check_sigma(sigma: float) -> float:
    """sigma as a float, checked to lie in (0, 1]; sigma = 1 is the
    classical gradient."""
    sigma = float(sigma)
    if not 0.0 < sigma <= 1.0:
        raise ValueError(f"sigma must lie in (0, 1], got {sigma}")
    return sigma


def riesz_constant(dim: int, alpha: float) -> float:
    """Normalisation gamma_{N,alpha} of the Riesz potential kernel."""
    if not 0.0 < alpha < dim:
        raise ValueError("alpha must lie in (0, N)")
    return math.gamma((dim - alpha) / 2.0) / (
        math.pi ** (dim / 2.0) * 2.0**alpha * math.gamma(alpha / 2.0))


@lru_cache(maxsize=32)
def _frequency_axes(grid: Grid) -> tuple:
    """Per-axis physical frequencies with the Nyquist bin zeroed."""
    n = grid.resolution
    k = np.fft.fftfreq(n, d=1.0 / n)  # 0, 1, ..., n/2-1, -n/2, ..., -1
    kappa = (math.pi / grid.extent) * k
    kappa[n // 2] = 0.0
    kappa.flags.writeable = False
    return tuple(
        np.reshape(kappa, (1,) * j + (n,) + (1,) * (grid.dim - 1 - j))
        for j in range(grid.dim))


@lru_cache(maxsize=64)
def multiplier_table(grid: Grid, sigma: float) -> tuple:
    """Fractional-gradient symbols m_j = i kappa_j |kappa|^(sigma-1), m(0)=0.

    Returns (components, magnitude) where components[j] is the complex
    symbol for axis j and magnitude = |kappa|^sigma is the fractional
    Laplacian's square-root symbol built from identical arithmetic.
    """
    axes = _frequency_axes(grid)
    mag2 = sum(np.broadcast_to(a, grid.shape) ** 2 for a in axes)
    mag = np.sqrt(mag2)
    with np.errstate(divide="ignore"):
        rho = np.where(mag > 0.0, mag ** (sigma - 1.0), 0.0)
    comps = []
    for a in axes:
        m = 1j * (np.broadcast_to(a, grid.shape) * rho)
        m.flags.writeable = False
        comps.append(m)
    mag_sigma = mag * rho  # |kappa|^sigma with m(0) = 0
    mag_sigma.flags.writeable = False
    return tuple(comps), mag_sigma


@lru_cache(maxsize=64)
def _half_table(grid: Grid, sigma: float) -> np.ndarray:
    """multiplier_table's components on the half spectrum, stacked as
    (N, *half_shape)."""
    comps, _ = multiplier_table(grid, sigma)
    half = np.stack([m[..., :grid.resolution // 2 + 1] for m in comps])
    half.flags.writeable = False
    return half


def _forward(values: np.ndarray, dim: int) -> np.ndarray:
    """Half spectrum over the trailing dim axes."""
    if dim == 1:
        return scipy.fft.rfft(values)
    return scipy.fft.rfftn(values, axes=tuple(range(-dim, 0)))


def _inverse(spec: np.ndarray, shape: tuple) -> np.ndarray:
    """Real array of trailing shape `shape` from its half spectrum."""
    if len(shape) == 1:
        return scipy.fft.irfft(spec, n=shape[0])
    return scipy.fft.irfftn(spec, s=shape, axes=tuple(range(-len(shape), 0)))


def apply_symbol(values: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """Apply the Fourier multiplier `mult` to a real grid array.

    `mult` is a full-spectrum table on the grid and must be Hermitian,
    mult(-k) = conj(mult(k)), as every real even symbol is: only its half
    spectrum is read.
    """
    half = mult[..., :mult.shape[-1] // 2 + 1]
    return _inverse(half * _forward(values, mult.ndim), mult.shape)


def grad_arrays(values: np.ndarray, grid: Grid, sigma: float) -> np.ndarray:
    """Fractional gradient of a grid array, stacked as (N, *grid.shape).

    Leading batch axes are kept: (..., *grid.shape) maps to
    (..., N, *grid.shape), each batch row through the same transforms as a
    lone call, so its result is bitwise the same.
    """
    # component axis inserted by indexing: np.expand_dims costs ~4 us a call
    comp_axis = (..., None) + (slice(None),) * grid.dim
    spec = _half_table(grid, sigma) * _forward(values, grid.dim)[comp_axis]
    return _inverse(spec, grid.shape)


def neg_div_arrays(w: np.ndarray, grid: Grid, sigma: float) -> np.ndarray:
    """Negative fractional divergence of a stacked (N, *grid.shape) array,
    the adjoint of grad_arrays.

    Leading batch axes are kept: (..., N, *grid.shape) maps to
    (..., *grid.shape), bitwise as row-by-row calls.
    """
    spec = np.sum(_half_table(grid, sigma) * _forward(w, grid.dim),
                  axis=-grid.dim - 1)
    return -_inverse(spec, grid.shape)


def riesz_potential(u: ScalarField, alpha: float) -> ScalarField:
    """Riesz potential I_alpha: spectral symbol |kappa|^(-alpha), 0 at k=0."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    _, mag_one = multiplier_table(u.grid, 1.0)  # plain |kappa|
    with np.errstate(divide="ignore"):
        mult = np.where(mag_one > 0.0, mag_one ** (-alpha), 0.0)
    return ScalarField(u.grid, apply_symbol(u.values, mult))


def frac_gradient(u: ScalarField, sigma: float) -> VectorField:
    """Fractional gradient of order sigma (classical spectral gradient at 1)."""
    return VectorField(u.grid, tuple(grad_arrays(u.values, u.grid, check_sigma(sigma))))


def frac_divergence(w: VectorField, sigma: float) -> ScalarField:
    """Fractional divergence, the negative adjoint of the fractional gradient."""
    return ScalarField(w.grid, -neg_div_arrays(w.components, w.grid, check_sigma(sigma)))


def frac_laplacian(u: ScalarField, sigma: float) -> ScalarField:
    """Fractional Laplacian, symbol |kappa|^(2 sigma)."""
    _, mag_sigma = multiplier_table(u.grid, check_sigma(sigma))
    return ScalarField(u.grid, apply_symbol(u.values, mag_sigma**2))


def check_dense_limit(mask: DomainMask) -> None:
    if mask.num_inside > DENSE_UNKNOWN_LIMIT:
        raise ValueError(f"too many unknowns for a dense matrix ({mask.num_inside} "
                         f"inside nodes, limit {DENSE_UNKNOWN_LIMIT})")


def _impulse(grid: Grid) -> np.ndarray:
    impulse = np.zeros(grid.shape)
    impulse[(0,) * grid.dim] = 1.0
    return impulse


def _difference_gather(kernel: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                       n: int) -> np.ndarray:
    """kernel[..., (rows_i - cols_j) mod n] for node coordinates rows (a,
    dim) and cols (b, dim) and a kernel over the last dim axes: read from
    the kernel tiled to (2n)^dim at rows_i + n - cols_j, through one a x b
    flat index."""
    dim = rows.shape[1]
    tiled = np.tile(kernel, (2,) * dim).reshape(kernel.shape[:-dim] + (-1,))
    place = (2 * n) ** np.arange(dim - 1, -1, -1)
    return tiled[..., np.subtract.outer((rows + n) @ place, cols @ place)]


def gram_matrix(mask: DomainMask, sigma: float) -> np.ndarray:
    """Restricted Gram matrix M of the H^sigma form on the inside nodes:
    ||E x||_Hsigma^2 = h^N x^T M x, with E the zero extension of x.

    M restricts the translation-invariant fractional Laplacian, so
    M_ij = K((x_i - x_j) mod n) with K its response to an impulse at node 0.
    Dense, so limited to DENSE_UNKNOWN_LIMIT inside nodes.
    """
    check_dense_limit(mask)
    grid = mask.grid
    _, mag_sigma = multiplier_table(grid, check_sigma(sigma))
    kernel = apply_symbol(_impulse(grid), mag_sigma**2)
    coords = np.argwhere(mask.inside)
    return _difference_gather(kernel, coords, coords, grid.resolution)


def gradient_rows(mask: DomainMask, sigma: float, nodes: np.ndarray) -> np.ndarray:
    """Rows of the restricted fractional gradient G (gradient_matrix) at the
    torus nodes `nodes` (flat grid indices), as an (N, len(nodes), m) array:
    row (i, a) maps the inside values x to (D^sigma_i E x)(a), so it is also
    P(-div^sigma) of the unit flux along axis i at node a.

    D^sigma is translation invariant, so the row of node a reads the
    gradient K of an impulse at node 0 at the wrapped differences
    (a - x_j) mod n to the inside nodes x_j.  Dense, so limited to
    DENSE_UNKNOWN_LIMIT^2 entries, checked before anything is built.
    """
    grid = mask.grid
    nodes = np.asarray(nodes, dtype=np.intp)
    entries = grid.dim * len(nodes) * mask.num_inside
    if entries > DENSE_UNKNOWN_LIMIT**2:
        raise ValueError(f"too many entries for a dense gradient "
                         f"({entries}, limit {DENSE_UNKNOWN_LIMIT**2})")
    kernel = grad_arrays(_impulse(grid), grid, check_sigma(sigma))
    coords = np.column_stack(np.unravel_index(nodes, grid.shape))
    return _difference_gather(kernel, coords, np.argwhere(mask.inside), grid.resolution)


def gradient_matrix(mask: DomainMask, sigma: float) -> np.ndarray:
    """Restricted fractional gradient G: x -> D^sigma E x as a dense
    (N * num_nodes, m) matrix, rows ordered as the ravel of the stacked
    (N, *grid.shape) gradient, E the zero extension of the inside values x:
    gradient_rows at every node.

    G^T is P(-div^sigma) with P the restriction to the inside nodes, and
    G^T G is gram_matrix's M to round-off.  Dense, so limited to
    DENSE_UNKNOWN_LIMIT^2 entries, the size of the largest Gram matrix;
    since m <= num_nodes, that also keeps m within DENSE_UNKNOWN_LIMIT.
    """
    grid = mask.grid
    rows = gradient_rows(mask, sigma, np.arange(grid.num_nodes))
    return rows.reshape(grid.dim * grid.num_nodes, mask.num_inside)


@lru_cache(maxsize=32)
def gram_spectrum(grid: Grid, sigma: float, inside: bytes) -> tuple | None:
    """(lam_min, max_i (M^-1)_ii) of the Gram matrix M = V diag(lam) V^T
    (gram_matrix) of the mask whose inside flags are the bytes `inside`,
    each lam lowered by the Weyl margin m eps_mach max|lam| so that
    round-off in eigh cannot raise it; None when the lowered lam_min is not
    positive, i.e. M is not certified positive definite.  Only the two
    floats are cached: M and V are freed on return."""
    mask = DomainMask(grid, np.frombuffer(inside, dtype=bool).reshape(grid.shape), 0.0)
    lam, vecs = np.linalg.eigh(gram_matrix(mask, sigma))
    lam = lam - len(lam) * np.finfo(float).eps * np.abs(lam).max()
    if lam[0] <= 0.0:
        return None
    return float(lam[0]), float(((vecs**2) @ (1.0 / lam)).max())


def assert_supported(u: ScalarField, mask: DomainMask, tol: float = 1e-14) -> None:
    """Raise if u is nonzero outside the mask beyond tol * scale."""
    outside = np.abs(u.values[~mask.inside])
    if outside.size:
        scale = max(1.0, float(np.abs(u.values).max()))
        worst = float(outside.max())
        if worst > tol * scale:
            raise ValueError(
                f"field is nonzero outside the domain (max {worst:.3e})")


def hsigma_norm(u: ScalarField, sigma: float, mask: DomainMask | None = None) -> float:
    """Homogeneous fractional Sobolev norm: L^2 norm of the fractional
    gradient over the whole torus (the discrete R^N integral).

    When a mask is supplied, u is asserted to vanish outside it.
    """
    if mask is not None:
        assert_supported(u, mask)
    return lp_norm(frac_gradient(u, sigma), 2.0)


def quadrature_frac_gradient(u: ScalarField, sigma: float) -> VectorField:
    """Dense singular-integral fractional gradient (cross-check oracle).

    Evaluates the principal-value pair sum with kernel
    (x - y) / |x - y|^(N + sigma + 1) and the Riesz-transform constant
    (N + sigma - 1) gamma_{N, 1-sigma}.  Near each node the smoothness
    difference form is used inside the largest box-inscribed ball; outside
    that ball the pure convolution -u(y) K(x-y) is summed, which accounts
    for the zero extension of u beyond the box because the odd kernel
    integrates to zero over any exterior of a ball.  The singular self-cell
    is skipped in the pair sum and replaced by its leading local term of
    order h^(1-sigma): in 1D the exact lattice-sum constant -2 zeta(sigma)
    (which also absorbs the midpoint error of the |z|^(-sigma) part on all
    near cells), in higher dimensions the equal-volume-ball approximation
    omega_N r^(1-sigma) / (1-sigma); the slope factor is taken from centred
    differences, independent of the spectral route.  Treats u as
    identically zero outside the box, so it is accurate only for fields
    vanishing near the border.  Dense O(M^2) cost, so limited to
    DENSE_UNKNOWN_LIMIT grid nodes.
    """
    sigma = check_sigma(sigma)
    grid = u.grid
    if grid.num_nodes > DENSE_UNKNOWN_LIMIT:
        raise ValueError(f"grid too large for dense quadrature ({grid.num_nodes} "
                         f"nodes, limit {DENSE_UNKNOWN_LIMIT})")
    if sigma >= 1.0:
        raise ValueError("quadrature form requires sigma < 1")
    dim = grid.dim
    const = (dim + sigma - 1.0) * riesz_constant(dim, 1.0 - sigma)
    coords = np.stack([c.ravel() for c in grid.coordinates()], axis=1)
    vals = u.values.ravel()
    h = grid.spacing
    hN = grid.cell_volume
    L = grid.extent
    out = np.zeros((grid.num_nodes, dim))
    for i in range(grid.num_nodes):
        z = coords[i] - coords  # displacements x - y
        r = np.sqrt(np.sum(z * z, axis=1))
        r[i] = np.inf  # skip singular self-cell
        kernel = z / (r ** (dim + sigma + 1.0))[:, None]
        rho = float(L - np.abs(coords[i]).max())
        near = r <= rho
        diff = np.where(near, vals[i] - vals, -vals)
        out[i] = const * hN * kernel.T @ diff
    if dim == 1:
        # exact lattice-sum constant for the |z|^(-sigma) near field
        cell_weight = const * (-2.0 * float(sp_zeta(sigma))) * h ** (1.0 - sigma)
    else:
        # self-cell slope correction, equal-volume ball radius
        ball_vol = math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)
        radius = h * ball_vol ** (-1.0 / dim)
        cell_weight = const * ball_vol * radius ** (1.0 - sigma) / (1.0 - sigma)
    for j in range(dim):
        slope = (np.roll(u.values, -1, axis=j) - np.roll(u.values, 1, axis=j)) / (2.0 * h)
        out[:, j] += cell_weight * slope.ravel()
    comps = tuple(out[:, j].reshape(grid.shape) for j in range(dim))
    return VectorField(grid, comps)


def random_band_limited(grid: Grid, rng: np.random.Generator,
                        kmax: int | None = None, amplitude: float = 1.0) -> ScalarField:
    """Random real field with integer modes |k_j| <= kmax and zero mean,
    scaled to sup norm `amplitude`.

    The spectrum comes from one rng.normal(size=(2, *grid.shape)) call,
    its real then its imaginary part.
    """
    n = grid.resolution
    if kmax is None:
        kmax = max(1, n // 8)
    k = np.fft.fftfreq(n, d=1.0 / n)
    keep1d = np.abs(k) <= kmax
    keep = keep1d
    for _ in range(grid.dim - 1):
        keep = keep[..., None] & keep1d
    keep[(0,) * grid.dim] = False  # zero mean
    normals = rng.normal(size=(2,) + grid.shape)
    spec = normals[0] + 1j * normals[1]
    spec[~keep] = 0.0
    v = np.fft.ifftn(spec).real
    peak = np.abs(v).max()
    if peak > 0:
        v = v * (amplitude / peak)
    return ScalarField(grid, v)
