import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from frvi.fields import (
    ScalarField,
    VectorField,
    full_torus,
    inner,
    lp_norm,
    make_grid,
    mask_box,
    read_fvf,
    scalar_field,
    write_csv,
    write_fvf,
    zero_field,
)


def test_make_grid_spacing():
    g = make_grid(1, math.pi, 64)
    assert g.spacing == pytest.approx(2 * math.pi / 64, rel=1e-15)


def test_make_grid_node_count():
    g = make_grid(2, 1.0, 16)
    assert g.num_nodes == 256


def test_make_grid_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        make_grid(1, 1.0, 6)


def test_make_grid_rejects_bad_dim():
    with pytest.raises(ValueError):
        make_grid(4, 1.0, 16)
    with pytest.raises(ValueError):
        make_grid(0, 1.0, 16)


def test_mask_box_padding_fraction():
    g = make_grid(1, 2.0, 16)
    m = mask_box(g, 1.0)
    assert m.padding_fraction == pytest.approx(0.25)


def test_mask_box_rejects_thin_padding():
    g = make_grid(1, 1.0, 16)
    with pytest.raises(ValueError, match="padding"):
        mask_box(g, 0.999)


def test_mask_box_inside_count():
    g = make_grid(1, math.pi, 64)
    m = mask_box(g, math.pi / 2)
    assert abs(m.num_inside - 32) <= 1


def test_mask_requires_inside_nodes():
    from frvi.fields import DomainMask

    g = make_grid(1, 1.0, 16)
    with pytest.raises(ValueError, match="inside"):
        DomainMask(g, np.zeros(g.shape, dtype=bool), 0.5)


def test_full_torus_mask():
    g = make_grid(2, 1.0, 8)
    m = full_torus(g)
    assert m.is_full and m.num_inside == 64


def test_masks_compare_and_hash_by_value():
    from frvi.fields import DomainMask

    g = make_grid(1, 2.0, 32)
    a, b = mask_box(g, 1.0), mask_box(g, 1.0)
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    # the same flags with another padding or no box half-width differ
    assert a != DomainMask(g, a.inside, a.padding_fraction)
    assert a != DomainMask(g, a.inside, 0.1, box_halfwidth=1.0)
    assert a != mask_box(g, 0.5)
    assert a != mask_box(make_grid(1, 2.0, 64), 1.0)
    assert a != full_torus(g) and a != "mask"


def test_lp_norm_constant_one():
    g = make_grid(1, 1.0, 64)
    f = scalar_field(g, 1.0)
    assert lp_norm(f, 1) == pytest.approx(2.0, rel=1e-14)


def test_lp_norm_zero_field():
    g = make_grid(1, 1.0, 64)
    f = zero_field(g)
    for p in (1, 2, np.inf):
        assert lp_norm(f, p) == 0.0


def test_lp_norm_linear_field():
    g = make_grid(1, 1.0, 64)
    f = ScalarField(g, g.axis())
    # int_{-1}^{1} x^2 dx = 2/3; rectangle rule is O(h^2) here (periodic endpoints)
    assert lp_norm(f, 2) == pytest.approx(math.sqrt(2.0 / 3.0), abs=2 * g.spacing**2)


def test_lp_norm_rejects_small_p():
    g = make_grid(1, 1.0, 8)
    with pytest.raises(ValueError):
        lp_norm(zero_field(g), 0.5)


def test_lp_norm_homogeneous():
    rng = np.random.default_rng(7)
    g = make_grid(1, 2.0, 32)
    v = rng.normal(size=g.shape)
    for p in (1, 2, 3, np.inf):
        a = lp_norm(ScalarField(g, 4.5 * v), p)
        b = 4.5 * lp_norm(ScalarField(g, v), p)
        assert a == pytest.approx(b, rel=1e-13)


def test_lp_norm_masked_region():
    g = make_grid(1, 2.0, 16)
    m = mask_box(g, 1.0)
    f = scalar_field(g, 1.0)
    assert lp_norm(f, 1, m) == pytest.approx(m.volume, rel=1e-14)


def test_inner_matches_l2_norm():
    rng = np.random.default_rng(3)
    g = make_grid(2, 1.0, 16)
    f = ScalarField(g, rng.normal(size=g.shape))
    assert inner(f, f) == pytest.approx(lp_norm(f, 2) ** 2, rel=1e-13)


def test_inner_with_zero():
    g = make_grid(1, 1.0, 16)
    f = scalar_field(g, 3.0)
    assert inner(f, zero_field(g)) == 0.0


def test_inner_trig_orthogonality():
    g = make_grid(1, math.pi, 64)
    x = g.axis()
    k = 3
    s = ScalarField(g, np.sin(k * x))
    c = ScalarField(g, np.cos(k * x))
    assert abs(inner(s, c)) < 1e-12


def test_inner_symmetric_and_cauchy_schwarz():
    rng = np.random.default_rng(11)
    g = make_grid(1, 1.0, 32)
    a = ScalarField(g, rng.normal(size=g.shape))
    b = ScalarField(g, rng.normal(size=g.shape))
    assert inner(a, b) == inner(b, a)
    scale = lp_norm(a, 2) * lp_norm(b, 2)
    assert abs(inner(a, b)) <= scale + 1e-12 * scale


def test_inner_rejects_grid_mismatch():
    a = scalar_field(make_grid(1, 1.0, 16), 1.0)
    b = scalar_field(make_grid(1, 1.0, 32), 1.0)
    with pytest.raises(ValueError):
        inner(a, b)


def test_vector_field_shares_grid():
    g = make_grid(2, 1.0, 8)
    w = VectorField(g, (np.ones(g.shape), np.zeros(g.shape)))
    assert np.allclose(w.magnitude(), 1.0)
    with pytest.raises(ValueError):
        VectorField(g, (np.ones(g.shape),))


def test_fields_reject_non_finite():
    g = make_grid(1, 1.0, 8)
    bad = np.ones(g.shape)
    bad[0] = np.nan
    with pytest.raises(ValueError):
        ScalarField(g, bad)


def test_field_values_immutable():
    g = make_grid(1, 1.0, 8)
    f = scalar_field(g, 1.0)
    with pytest.raises(ValueError):
        f.values[0] = 2.0


def test_fvf_roundtrip_scalar_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    g = make_grid(2, 1.5, 16)
    f = ScalarField(g, rng.normal(size=g.shape))
    p = tmp_path / "f.fvf"
    write_fvf(p, f)
    back = read_fvf(p)
    assert isinstance(back, ScalarField)
    assert back.grid == g
    assert back.values.tobytes() == f.values.tobytes()


def test_fvf_roundtrip_vector_bit_exact(tmp_path):
    rng = np.random.default_rng(6)
    g = make_grid(3, 0.75, 8)
    w = VectorField(g, tuple(rng.normal(size=g.shape) for _ in range(3)))
    p = tmp_path / "w.fvf"
    write_fvf(p, w)
    back = read_fvf(p)
    assert isinstance(back, VectorField)
    for a, b in zip(back.components, w.components):
        assert a.tobytes() == b.tobytes()


def test_fvf_rejects_bad_magic(tmp_path):
    p = tmp_path / "junk.fvf"
    p.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError):
        read_fvf(p)


@pytest.mark.parametrize("damage", [
    lambda raw: raw[:10],        # truncated header
    lambda raw: raw[:-8],        # truncated payload
    lambda raw: raw + b"\x00",   # trailing bytes
], ids=["truncated-header", "truncated-payload", "trailing-bytes"])
def test_fvf_rejects_damaged_file(tmp_path, damage):
    g = make_grid(2, 1.0, 8)
    p = tmp_path / "damaged.fvf"
    write_fvf(p, VectorField(g, (np.ones(g.shape), np.zeros(g.shape))))
    p.write_bytes(damage(p.read_bytes()))
    with pytest.raises(ValueError, match="damaged.fvf"):
        read_fvf(p)


# -- FVF properties: deterministic examples, so Tier-1 stays repeatable ------------

FVF_SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)


@st.composite
def fvf_fields(draw, vector):
    dim = draw(st.integers(2, 3) if vector else st.integers(1, 3))
    n = draw(st.sampled_from([8, 16] if dim < 3 else [8]))
    extent = draw(st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False))
    grid = make_grid(dim, extent, n)
    values = st.floats(allow_nan=False, allow_infinity=False)
    comps = [draw(arrays(np.float64, grid.shape, elements=values))
             for _ in range(dim if vector else 1)]
    return VectorField(grid, tuple(comps)) if vector else ScalarField(grid, comps[0])


def _fvf_bytes(field) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.fvf"
        write_fvf(path, field)
        return path.read_bytes()


def _read_fvf_bytes(raw: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.fvf"
        path.write_bytes(raw)
        return read_fvf(path)


@FVF_SETTINGS
@given(field=st.one_of(fvf_fields(vector=False), fvf_fields(vector=True)))
def test_fvf_roundtrip_is_bit_exact_for_any_field(field):
    back = _read_fvf_bytes(_fvf_bytes(field))
    assert type(back) is type(field)
    assert back.grid == field.grid
    if isinstance(field, ScalarField):
        assert back.values.tobytes() == field.values.tobytes()
    else:
        assert [c.tobytes() for c in back.components] == [
            c.tobytes() for c in field.components]


@FVF_SETTINGS
@given(field=fvf_fields(vector=True), cut=st.integers(1, 10**6))
def test_fvf_truncated_anywhere_raises(field, cut):
    raw = _fvf_bytes(field)
    with pytest.raises(ValueError):
        _read_fvf_bytes(raw[:len(raw) - 1 - cut % len(raw)])


@FVF_SETTINGS
@given(field=fvf_fields(vector=False),
       magic=st.binary(min_size=4, max_size=4).filter(lambda m: m != b"FVF1"))
def test_fvf_with_another_magic_raises(field, magic):
    raw = _fvf_bytes(field)
    with pytest.raises(ValueError, match="not an FVF1 file"):
        _read_fvf_bytes(magic + raw[4:])


def test_csv_deterministic(tmp_path):
    rows = [[1, 0.1 + 0.2, "x"], [2, 1e-17, "y"]]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(p1, ["i", "v", "s"], rows)
    write_csv(p2, ["i", "v", "s"], rows)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().splitlines()[0] == "i,v,s"
