"""Grids, masked domains, field storage, norms and field serialization.

The ambient space is a periodic box [-L, L)^N sampled with n points per
axis (n a power of two).  Fields that conceptually live on R^N are stored
on this torus; a DomainMask marks the sub-domain where the unknown may be
nonzero, and the mandatory padding between the sub-domain and the box
boundary keeps the periodic images weakly coupled.

Fields are immutable once constructed (backing arrays are frozen); every
operation here is pure, so concurrent use from multiple threads is safe.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

FVF_MAGIC = b"FVF1"

# Mandatory gap between the sub-domain and the box boundary, as a fraction
# of the box width 2L.  Constructors reject thinner padding.
MIN_PADDING_FRACTION = 0.25


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Grid:
    """Isotropic periodic box [-L, L)^N with n nodes per axis."""

    dim: int
    extent: float
    resolution: int

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        n = self.resolution
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(f"resolution must be a power of two >= 8, got {n}")
        if not 0.0 < self.extent < math.inf:
            raise ValueError("extent must be finite and positive")

    @property
    def spacing(self) -> float:
        return 2.0 * self.extent / self.resolution

    @property
    def shape(self) -> tuple:
        return (self.resolution,) * self.dim

    @property
    def num_nodes(self) -> int:
        return self.resolution**self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    def axis(self) -> np.ndarray:
        """Node coordinates along one axis: -L, -L+h, ..., L-h."""
        return -self.extent + self.spacing * np.arange(self.resolution)

    def coordinates(self) -> tuple:
        """Meshgrid of node coordinates, one array per axis ('ij' indexing)."""
        return np.meshgrid(*(self.axis() for _ in range(self.dim)), indexing="ij")


def make_grid(dim: int, extent: float, resolution: int) -> Grid:
    """Build an isotropic periodic grid; resolution must be a power of two >= 8."""
    return Grid(dim=int(dim), extent=float(extent), resolution=int(resolution))


@dataclass(frozen=True, eq=False)
class DomainMask:
    """Boolean sub-domain marker on a grid (True = node inside Omega).

    box_halfwidth is set when the mask came from mask_box; generic masks
    leave it None (some sampling helpers then fall back to the indicator).
    Masks compare and hash by value: grid, padding, box half-width and the
    inside flags.
    """

    grid: Grid
    inside: np.ndarray
    padding_fraction: float
    box_halfwidth: float | None = None

    def __post_init__(self):
        inside = np.ascontiguousarray(self.inside, dtype=bool)
        inside.flags.writeable = False
        object.__setattr__(self, "inside", inside)
        if inside.shape != self.grid.shape:
            raise ValueError("mask shape does not match grid")
        if not inside.any():
            raise ValueError("mask has no inside nodes")

    def _key(self) -> tuple:
        return (self.grid, self.padding_fraction, self.box_halfwidth,
                self.inside.tobytes())

    def __eq__(self, other):
        if not isinstance(other, DomainMask):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def num_inside(self) -> int:
        return int(self.inside.sum())

    @property
    def is_full(self) -> bool:
        return bool(self.inside.all())

    @property
    def volume(self) -> float:
        """Measure of Omega under the rectangle rule."""
        return self.num_inside * self.grid.cell_volume


def mask_box(grid: Grid, omega_halfwidth: float,
             min_padding: float = MIN_PADDING_FRACTION) -> DomainMask:
    """Mark the open box (-w, w)^N as the sub-domain Omega.

    The remaining border (L - w) / (2L) per side must be at least
    `min_padding` so the zero-extended fields interact weakly with their
    periodic images.
    """
    w = float(omega_halfwidth)
    if not 0.0 < w < grid.extent:
        raise ValueError("omega_halfwidth must lie in (0, extent)")
    padding = (grid.extent - w) / (2.0 * grid.extent)
    if padding < min_padding:
        raise ValueError(
            f"padding {padding:.4f} below configured minimum {min_padding}")
    x = grid.axis()
    inside1d = np.abs(x) < w
    inside = inside1d
    for _ in range(grid.dim - 1):
        inside = inside[..., None] & inside1d
    return DomainMask(grid=grid, inside=inside, padding_fraction=padding,
                      box_halfwidth=w)


def full_torus(grid: Grid) -> DomainMask:
    """Test-mode mask covering the whole torus (no padding, no boundary)."""
    inside = np.ones(grid.shape, dtype=bool)
    return DomainMask(grid=grid, inside=inside, padding_fraction=0.0)


@dataclass(frozen=True)
class ScalarField:
    """Real grid function, row-major storage."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = _freeze(np.asarray(self.values))
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} != grid shape {self.grid.shape}")
        if not np.isfinite(v).all():
            raise ValueError("field contains non-finite values")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class VectorField:
    """N-component field; component j holds the j-th coordinate values."""

    grid: Grid
    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if len(comps) != self.grid.dim:
            raise ValueError("component count must equal grid dim")
        arrs = []
        for c in comps:
            a = _freeze(np.asarray(c.values if isinstance(c, ScalarField) else c))
            if a.shape != self.grid.shape:
                raise ValueError("component shape does not match grid")
            if not np.isfinite(a).all():
                raise ValueError("field contains non-finite values")
            arrs.append(a)
        object.__setattr__(self, "components", tuple(arrs))

    def magnitude(self) -> np.ndarray:
        """Pointwise Euclidean norm |w(x)|."""
        return magnitude(self.components)


def magnitude(w) -> np.ndarray:
    """Pointwise Euclidean norm of a stacked (N, *grid.shape) array or a
    sequence of N component arrays."""
    return np.sqrt(sum(c * c for c in w))


def ball_projection(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Nodewise Euclidean projection of a stacked (N, *grid.shape) array
    onto {|v(x)| <= g(x)}."""
    mag = magnitude(v)
    return np.where(mag > g, g / np.where(mag > 0, mag, 1.0), 1.0) * v


def scalar_field(grid: Grid, values) -> ScalarField:
    if np.isscalar(values):
        values = np.full(grid.shape, float(values))
    return ScalarField(grid, values)


def zero_field(grid: Grid) -> ScalarField:
    return ScalarField(grid, np.zeros(grid.shape))


def vector_field(grid: Grid, components) -> VectorField:
    return VectorField(grid, tuple(components))


def _region_values(f: ScalarField, mask: DomainMask | None) -> np.ndarray:
    if mask is None:
        return f.values.ravel()
    if mask.grid != f.grid:
        raise ValueError("mask grid does not match field grid")
    return f.values[mask.inside]


def lp_norm(f: ScalarField | VectorField, p: float, mask: DomainMask | None = None) -> float:
    """Discrete L^p norm, rectangle rule (h^N sum); p = inf gives the sup norm.

    With a mask, the sum / max runs over the inside nodes only; otherwise
    over the whole torus (the discrete R^N integral).
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if isinstance(f, VectorField):
        mag = ScalarField(f.grid, f.magnitude())
        return lp_norm(mag, p, mask)
    v = _region_values(f, mask)
    if np.isinf(p):
        return float(np.abs(v).max()) if v.size else 0.0
    hN = f.grid.cell_volume
    return float((hN * np.sum(np.abs(v) ** p)) ** (1.0 / p))


def inner(a: ScalarField | VectorField, b: ScalarField | VectorField) -> float:
    """Discrete L^2 pairing h^N sum(a*b), componentwise-summed for vectors."""
    if a.grid != b.grid:
        raise ValueError("grid mismatch")
    hN = a.grid.cell_volume
    if isinstance(a, VectorField) != isinstance(b, VectorField):
        raise TypeError("cannot pair scalar with vector field")
    if isinstance(a, VectorField):
        return float(hN * sum(np.dot(x.ravel(), y.ravel())
                              for x, y in zip(a.components, b.components)))
    return float(hN * np.dot(a.values.ravel(), b.values.ravel()))


# ---------------------------------------------------------------------------
# FVF serialization: header (magic "FVF1", u32 dim, u32 n, f64 L,
# u32 component-count, u32 reserved) then little-endian f64 row-major
# component payloads.

_HEADER = struct.Struct("<4sIIdII")


def write_fvf(path, f: ScalarField | VectorField) -> None:
    grid = f.grid
    comps = f.components if isinstance(f, VectorField) else (f.values,)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(FVF_MAGIC, grid.dim, grid.resolution,
                              grid.extent, len(comps), 0))
        for c in comps:
            fh.write(np.ascontiguousarray(c, dtype="<f8").tobytes())


def read_fvf(path) -> ScalarField | VectorField:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError(f"truncated FVF header: {path}")
        magic, dim, n, L, ncomp, _ = _HEADER.unpack(header)
        if magic != FVF_MAGIC:
            raise ValueError(f"not an FVF1 file: {path}")
        grid = Grid(dim=dim, extent=L, resolution=n)
        payload = fh.read()
    if len(payload) != 8 * grid.num_nodes * ncomp:
        raise ValueError(f"FVF payload of {len(payload)} bytes does not hold "
                         f"{ncomp} component(s) of {grid.num_nodes} nodes: {path}")
    comps = np.frombuffer(payload, dtype="<f8").reshape((ncomp,) + grid.shape)
    if ncomp == 1:
        return ScalarField(grid, comps[0])
    return VectorField(grid, tuple(comps))


def write_csv(path, header: list, rows: list) -> None:
    """Deterministic CSV: UTF-8, '.' decimal separator, repr for floats."""
    def fmt(x):
        if isinstance(x, float):
            return repr(x)
        if isinstance(x, (np.floating,)):
            return repr(float(x))
        return str(x)

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(x) for x in row) + "\n")
