import numpy as np
import pytest

from jfft import fem
from jfft.fem import cell_average, sym_gradient, sym_gradient_adjoint
from jfft.grid import QuadField, VectorField, make_grid, sequence

from oracles import (dense_b, quad_flat, reference_sym_gradient,
                     reference_sym_gradient_adjoint, vec_flat)

SQRT2 = np.sqrt(2.0)


def test_quadrature_weights_partition_cell():
    # two quadrature points per pixel, n^2 pixels
    grid = make_grid(6, (2.0, 0.5))
    assert grid.quad_weight == pytest.approx((2.0 / 6) * (0.5 / 6) / 2.0)
    assert 2 * grid.n ** 2 * grid.quad_weight == pytest.approx(grid.cell_volume)


def test_sym_gradient_of_translation_is_zero():
    grid = make_grid(5)
    u = VectorField(grid, np.stack([np.full((5, 5), 0.3),
                                    np.full((5, 5), -1.2)]))
    assert np.abs(sym_gradient(u).values).max() == 0.0


def test_sym_gradient_impulse_stencil():
    # hand-computed response to a unit impulse in component 1 at node (0,0)
    # on the 4x4 grid: six incident triangles, entries +-1/dx with the
    # Mandel shear row scaled by 1/sqrt(2)
    grid = make_grid(4)
    u = VectorField.zeros(grid)
    u.values[0, 0, 0] = 1.0
    s = sym_gradient(u).values
    inv = 4.0

    expected = np.zeros((3, 2, 4, 4))
    expected[0, 0, 0, 0] = -inv              # lower triangle of pixel (0,0)
    expected[2, 0, 0, 0] = -inv / SQRT2
    expected[0, 0, 3, 0] = inv               # lower (3,0)
    expected[2, 0, 0, 3] = inv / SQRT2       # lower (0,3)
    expected[0, 1, 3, 3] = inv               # upper (3,3)
    expected[2, 1, 3, 3] = inv / SQRT2
    expected[2, 1, 3, 0] = -inv / SQRT2      # upper (3,0)
    expected[0, 1, 0, 3] = -inv              # upper (0,3)
    assert np.array_equal(s, expected)
    assert np.count_nonzero(s.sum(axis=0)) <= 6


def test_sym_gradient_matches_dense_oracle():
    rng = np.random.default_rng(2)
    grid = make_grid(4, (1.0, 1.5))
    b = dense_b(4, (1.0, 1.5))
    for _ in range(5):
        u = VectorField(grid, rng.normal(size=(2, 4, 4)))
        ours = quad_flat(sym_gradient(u).values)
        ref = b @ vec_flat(u.values)
        assert np.abs(ours - ref).max() <= 1e-13 * np.abs(ref).max()


def test_adjoint_identity():
    rng = np.random.default_rng(3)
    grid = make_grid(8)
    for _ in range(20):
        u = VectorField(grid, rng.normal(size=(2, 8, 8)))
        s = QuadField(grid, rng.normal(size=(3, 2, 8, 8)))
        lhs = float(np.vdot(sym_gradient(u).values, s.values))
        rhs = float(np.vdot(u.values, sym_gradient_adjoint(s).values))
        assert abs(lhs - rhs) <= 1e-13 * abs(lhs)


def test_adjoint_matches_dense_oracle():
    rng = np.random.default_rng(4)
    grid = make_grid(4)
    b = dense_b(4)
    s = QuadField(grid, rng.normal(size=(3, 2, 4, 4)))
    ours = vec_flat(sym_gradient_adjoint(s).values)
    ref = b.T @ quad_flat(s.values)
    assert np.abs(ours - ref).max() <= 1e-13 * np.abs(ref).max()


def test_adjoint_of_zero_and_constant_stress():
    grid = make_grid(6)
    zero = QuadField(grid, np.zeros((3, 2, 6, 6)))
    assert np.abs(sym_gradient_adjoint(zero).values).max() == 0.0
    # constant Mandel stress is self-equilibrated on the periodic grid
    s = QuadField(grid, np.broadcast_to(
        np.array([2.0, -1.0, 0.5])[:, None, None, None],
        (3, 2, 6, 6)).copy())
    forces = sym_gradient_adjoint(s).values
    assert np.abs(forces).max() <= 1e-13


def test_adjoint_output_has_zero_mean():
    rng = np.random.default_rng(5)
    grid = make_grid(8)
    s = QuadField(grid, rng.normal(size=(3, 2, 8, 8)))
    f = sym_gradient_adjoint(s)
    assert np.abs(f.component_means()).max() <= 1e-14 * np.abs(f.values).max()


def test_cell_average_constant():
    grid = make_grid(4, (2.0, 1.0))
    s = QuadField(grid, np.broadcast_to(
        np.array([1.5, 0.0, -2.0])[:, None, None, None], (3, 2, 4, 4)).copy())
    assert np.allclose(cell_average(s), [1.5, 0.0, -2.0], rtol=0, atol=1e-15)


def test_cell_average_of_gradient_vanishes():
    rng = np.random.default_rng(6)
    grid = make_grid(8)
    u = VectorField(grid, rng.normal(size=(2, 8, 8)))
    avg = cell_average(sym_gradient(u))
    assert np.abs(avg).max() <= 1e-14


def test_cell_average_checkerboard_cancels():
    grid = make_grid(4)
    sign = (-1.0) ** (np.add.outer(np.arange(4), np.arange(4)))
    s = QuadField(grid, np.stack([np.stack([sign, -sign])] * 3))
    assert np.abs(cell_average(s)).max() == 0.0


def test_linearity():
    rng = np.random.default_rng(7)
    grid = make_grid(6)
    u = VectorField(grid, rng.normal(size=(2, 6, 6)))
    v = VectorField(grid, rng.normal(size=(2, 6, 6)))
    combo = VectorField(grid, 2.0 * u.values - 3.0 * v.values)
    direct = sym_gradient(combo).values
    linear = 2.0 * sym_gradient(u).values - 3.0 * sym_gradient(v).values
    assert np.abs(direct - linear).max() <= 1e-13 * np.abs(direct).max()


# the pixel size is a power of two along x1 only at n = 8, along neither
# axis at n = 9 and along both on the square cells
@pytest.mark.parametrize("n, lengths", [
    pytest.param(8, (1.0, 1.5), id="8"),
    pytest.param(9, (1.0, 1.5), id="9"),
    pytest.param(16, (1.0, 1.0), id="16-unit-square"),
    pytest.param(16, (2.0, 2.0), id="16-square-of-two"),
])
def test_gradient_and_adjoint_bitwise_equal_roll_reference(n, lengths):
    rng = np.random.default_rng(40 + n)
    grid = make_grid(n, lengths)
    dx1, dx2 = grid.pixel_size
    u = rng.normal(size=(2, n, n))
    s = rng.normal(size=(3, 2, n, n))
    assert np.array_equal(sym_gradient(VectorField(grid, u)).values,
                          reference_sym_gradient(u, dx1, dx2))
    assert np.array_equal(sym_gradient_adjoint(QuadField(grid, s)).values,
                          reference_sym_gradient_adjoint(s, dx1, dx2))


def test_flat_rows_refuse_planes_that_are_not_c_contiguous():
    a = np.arange(16.0).reshape(4, 4)
    assert np.shares_memory(fem._rows(a), a)
    with pytest.raises(ValueError, match="C-contiguous"):
        fem._rows(a.T)
    # a transposed output plane would take the writes into a lost copy
    grid = make_grid(4)
    u = np.arange(32.0).reshape(2, 4, 4)
    eps = np.zeros((3, 2, 4, 4))
    with pytest.raises(ValueError, match="C-contiguous"):
        fem.prepare_sym_gradient(u, grid.pixel_size,
                                 eps.transpose(0, 1, 3, 2),
                                 np.empty((2, 4, 4)))
    assert not eps.any()


@pytest.mark.parametrize("x, exact", [
    (0.5, True), (2.0 ** -19, True), (2.0 ** -1074, False),
    (1.5 / 128, False), (3.0, False), (0.0, False), (np.inf, False)],
    ids=["half", "2^-19", "2^-1074", "1.5/128", "three", "zero", "inf"])
def test_is_power_of_two(x, exact):
    # 2^-1074 is a power of two, but its reciprocal overflows
    assert fem.is_power_of_two(x) is exact


def test_scale_by_inverse_bitwise_equal_division():
    rng = np.random.default_rng(11)
    tiny = np.nextafter(0.0, 1.0)
    huge = np.finfo(np.float64).max
    x = np.concatenate([
        rng.normal(size=64), [0.0, -0.0, tiny, -tiny, 2.0 * tiny],
        [huge, -huge, 0.75 * huge, np.nextafter(huge, 0.0)],
        [np.inf, -np.inf, np.nan]])
    # 0.1 and 1.5/8 are no powers of two; the reciprocal of the smallest
    # subnormal overflows: all three divide
    for h in [2.0 ** k for k in range(-40, 41)] + [0.1, 1.5 / 8, tiny]:
        out = x.copy()
        with np.errstate(over="ignore"):
            sequence([fem._scale_by_inverse(out, h)])()
            expected = x / h
        assert np.array_equal(out.view(np.int64), expected.view(np.int64)), h
