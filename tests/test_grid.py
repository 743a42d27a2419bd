import json

import numpy as np
import pytest

from jfft import microstructures as micro
from jfft.grid import (QuadField, ScalarField, VectorField, dot, fft_forward,
                       load_field, make_grid, prepare_fft_inverse, save_field,
                       spectral_shape)
from jfft.operators import SystemOperator, apply_system, assemble_rhs
from jfft.preconditioners import (apply_green, assemble_green,
                                  build_preconditioner)

from oracles import dft2_direct, fsum_dot


def test_grid_counts():
    grid = make_grid(4, (1.0, 1.0))
    assert grid.pixel_size == (0.25, 0.25)
    assert grid.quad_weight == 1.0 / 32


def test_grid_paper_scale_counts():
    # 2 * 256^2 quadrature points share the unit cell
    assert make_grid(256).quad_weight == 1.0 / 131072


def test_grid_rejects_degenerate():
    with pytest.raises(ValueError):
        make_grid(1)
    with pytest.raises(ValueError):
        make_grid(8, (0.0, 1.0))
    with pytest.raises(ValueError):
        make_grid(8, (1.0, -2.0))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            make_grid(8, (bad, 1.0))
        with pytest.raises(ValueError, match="finite"):
            make_grid(8, (1.0, bad))


def test_field_shape_validation():
    grid = make_grid(4)
    with pytest.raises(ValueError):
        VectorField(grid, np.zeros((2, 3, 4)))
    with pytest.raises(ValueError):
        ScalarField(grid, np.zeros((5, 4)))
    with pytest.raises(ValueError):
        QuadField(grid, np.zeros((3, 2, 4, 5)))


def test_fft_round_trip():
    rng = np.random.default_rng(1)
    grid = make_grid(16)
    u = VectorField(grid, rng.normal(size=(2, 16, 16)))
    back = prepare_fft_inverse(fft_forward(u), grid)()
    assert np.abs(back.values - u.values).max() <= 1e-13 * np.abs(u.values).max()


@pytest.mark.parametrize("n", [8, 9])
def test_fft_forward_into_buffer_bitwise_equal_allocating_call(n):
    rng = np.random.default_rng(n)
    grid = make_grid(n)
    u = VectorField(grid, rng.normal(size=(2, n, n)))
    spec = np.empty(spectral_shape(grid), dtype=np.complex128)
    assert fft_forward(u, out=spec) is spec
    assert np.array_equal(spec, fft_forward(u))


@pytest.mark.parametrize("n", [8, 9, 32, 128])
@pytest.mark.parametrize("loads", [(), (3,)], ids=["one-load", "three-loads"])
def test_fft_seam_bitwise_equal_numpy_nd_transforms(n, loads):
    # the forward transform is rfft then an in-place fft along axis -2, the
    # inverse an in-place ifft along axis -2 then irfft: rfftn's and
    # irfftn's own sequence of 1D transforms, without their temporaries
    rng = np.random.default_rng(70 + n)
    grid = make_grid(n)
    u = VectorField(grid, rng.normal(size=loads + (2, n, n)))
    spec = fft_forward(u)
    assert np.array_equal(spec, np.fft.rfftn(u.values, axes=(-2, -1)))
    expected = np.fft.irfftn(spec, s=(n, n), axes=(-2, -1))
    assert np.array_equal(prepare_fft_inverse(spec, grid)().values, expected)


@pytest.mark.parametrize("n", [8, 9, 32])
@pytest.mark.parametrize("loads", [(), (3,)], ids=["one-load", "three-loads"])
def test_fft_inverse_into_buffer_bitwise_equal_allocating_call(n, loads):
    rng = np.random.default_rng(90 + n)
    grid = make_grid(n)
    spec = fft_forward(VectorField(grid, rng.normal(size=loads + (2, n, n))))
    expected = prepare_fft_inverse(spec.copy(), grid)().values
    out = np.full(loads + (2, n, n), np.nan)
    assert prepare_fft_inverse(spec, grid, out=out)().values is out
    assert np.array_equal(out, expected)


def test_repeated_green_applications_equal_and_unshared(solid_material):
    # the inverse FFT overwrites the spectrum it is given; apply_green hands it
    # the operator's scratch, so a second call sees no trace of the first
    rng = np.random.default_rng(11)
    grid = make_grid(16)
    green = assemble_green(grid, solid_material)
    for shape in ((2, 16, 16), (3, 2, 16, 16)):
        r = VectorField(grid, rng.normal(size=shape))
        first, second = apply_green(green, r), apply_green(green, r)
        assert np.array_equal(first.values, second.values)
        assert not np.shares_memory(first.values, second.values)
        assert not np.shares_memory(first.values, r.values)


def test_fft_constant_field_dc():
    grid = make_grid(8)
    u = VectorField(grid, np.full((2, 8, 8), 3.25))
    spec = fft_forward(u)
    assert spec[0, 0, 0] == pytest.approx(3.25 * grid.n ** 2)
    spec[:, 0, 0] = 0.0
    assert np.abs(spec).max() <= 1e-12


def test_fft_single_cosine_mode_matches_direct_dft():
    # one cosine along x1: exactly two conjugate coefficients in the full
    # spectrum, both present in the stored half-spectrum
    grid = make_grid(8)
    x1 = np.arange(8) / 8.0
    plane = np.cos(2.0 * np.pi * 2 * x1)[:, None] * np.ones((1, 8))
    u = VectorField(grid, np.stack([plane, np.zeros((8, 8))]))
    spec = fft_forward(u)

    full = dft2_direct(plane)
    nonzero = np.argwhere(np.abs(full) > 1e-9)
    assert {tuple(q) for q in nonzero} == {(2, 0), (6, 0)}
    assert full[2, 0] == pytest.approx(full[6, 0].conjugate(), abs=1e-9)
    # stored half-spectrum agrees with the direct summation
    assert np.abs(spec[0] - full[:, :5]).max() <= 1e-9
    assert abs(spec[0][2, 0] - 32.0) <= 1e-9


#: Largest error of ``dot`` against the fsum oracle, relative to the sum of
#: the absolute products, on the fields below: measured at most 4.3e-14
#: (n = 128, ``<r, r>``); the worst case for a recursive sum of N = 2 n^2
#: terms is about N * 1.1e-16, 2e-13 at n = 32.
DOT_BOUND = 1e-13


@pytest.mark.parametrize("n", [32, 128, 512])
def test_dot_matches_fsum_oracle_on_sweep_fields(n, solid_material):
    # the first residual of a sweep cell and its three preconditioned forms
    rho = micro.refine_to_grid(micro.laminate_density(16, 1e4), n)
    op = SystemOperator(rho, solid_material)
    green = assemble_green(op.grid, solid_material)
    r = assemble_rhs(op, np.ones(3)).values
    pairs = [(r, r)]
    for kind in ("green", "jacobi", "green-jacobi"):
        pre = build_preconditioner(kind, op, green)
        z = pre.prepare(VectorField(op.grid, r))()
        pairs += [(r, z.values), (z.values, apply_system(op, z).values)]
    for a, b in pairs:
        exact, scale = fsum_dot(a, b), fsum_dot(np.abs(a), np.abs(b))
        # contiguous planes, and a strided view as in the column corrections
        for x, y in ((a, b), (a[:, ::-1], b[:, ::-1])):
            assert abs(dot(x, y) - exact) <= DOT_BOUND * scale


@pytest.mark.parametrize("make", [
    lambda grid, rng: ScalarField(grid, rng.uniform(0.0, 2.0, (grid.n, grid.n))),
    lambda grid, rng: VectorField(grid, rng.normal(size=(2, grid.n, grid.n))),
])
def test_field_file_round_trip(tmp_path, make):
    rng = np.random.default_rng(5)
    grid = make_grid(6, (1.0, 2.0))
    field = make(grid, rng)
    save_field(tmp_path / "f", field)
    loaded = load_field(tmp_path / "f")
    assert type(loaded) is type(field)
    assert loaded.grid == grid
    assert np.array_equal(loaded.values, field.values)


def test_field_file_header_schema(tmp_path):
    grid = make_grid(4)
    save_field(tmp_path / "rho", ScalarField.full(grid, 1.0))
    with open(tmp_path / "rho.json") as fh:
        header = json.load(fh)
    assert header == {"kind": "scalar", "d": 2, "n": 4,
                      "lengths": [1.0, 1.0], "order": "x1-fastest",
                      "dtype": "float64-le"}


def test_field_file_raw_order_is_x1_fastest(tmp_path):
    grid = make_grid(3)
    values = np.arange(9.0).reshape(3, 3)  # values[i1, i2]
    save_field(tmp_path / "s", ScalarField(grid, values))
    raw = np.fromfile(tmp_path / "s.raw", dtype="<f8")
    # linear index I = i1 + n * i2
    expected = [values[i % 3, i // 3] for i in range(9)]
    assert np.array_equal(raw, expected)


def test_field_file_truncated_payload_rejected(tmp_path):
    grid = make_grid(4)
    save_field(tmp_path / "v", VectorField.zeros(grid))
    raw = (tmp_path / "v.raw").read_bytes()
    (tmp_path / "v.raw").write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="doubles"):
        load_field(tmp_path / "v")


@pytest.mark.parametrize("edit", [
    {"lengths": 5}, {"lengths": [1.0]}, {"lengths": [1.0, "2"]},
    {"lengths": [1.0, float("nan")]}, {"n": "8"}, {"n": True}, {"n": 8.0},
    {"kind": ["scalar"]},
], ids=["lengths-int", "lengths-short", "lengths-str", "lengths-nan", "n-str",
        "n-bool", "n-float", "kind-list"])
def test_field_file_header_types_checked(tmp_path, edit):
    save_field(tmp_path / "rho", ScalarField.full(make_grid(8), 1.0))
    header = json.loads((tmp_path / "rho.json").read_text())
    header.update(edit)
    (tmp_path / "rho.json").write_text(json.dumps(header))
    with pytest.raises(ValueError):
        load_field(tmp_path / "rho")
