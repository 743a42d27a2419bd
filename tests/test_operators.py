import numpy as np
import pytest

from jfft.grid import ScalarField, VectorField, make_grid
from jfft.operators import (apply_system, assemble_rhs, homogenized_stress,
                            make_operator)

from oracles import (dense_k, dense_rhs, reference_apply_k, reference_rhs,
                     vec_flat)


def random_operator(n, rng, material, lengths=(1.0, 1.0)):
    grid = make_grid(n, lengths)
    rho = ScalarField(grid, rng.uniform(0.05, 2.0, (n, n)))
    return make_operator(rho, material)


def test_translation_null_space_exact(solid_material):
    rng = np.random.default_rng(0)
    op = random_operator(6, rng, solid_material)
    u = VectorField(op.grid, np.stack([np.full((6, 6), 1.3),
                                       np.full((6, 6), -0.7)]))
    assert np.abs(apply_system(op, u).values).max() == 0.0


def test_matches_dense_assembly(solid_material):
    rng = np.random.default_rng(1)
    op = random_operator(4, rng, solid_material, lengths=(1.0, 2.0))
    k = dense_k(4, op.density.values, solid_material.stiffness, (1.0, 2.0))
    for _ in range(20):
        u = VectorField(op.grid, rng.normal(size=(2, 4, 4)))
        ours = vec_flat(apply_system(op, u).values)
        ref = k @ vec_flat(u.values)
        assert np.abs(ours - ref).max() <= 1e-12 * np.abs(ref).max()


def test_symmetry(solid_material):
    rng = np.random.default_rng(2)
    op = random_operator(8, rng, solid_material)
    for _ in range(10):
        u = VectorField(op.grid, rng.normal(size=(2, 8, 8)))
        v = VectorField(op.grid, rng.normal(size=(2, 8, 8)))
        uv = float(np.vdot(apply_system(op, u).values, v.values))
        vu = float(np.vdot(u.values, apply_system(op, v).values))
        assert abs(uv - vu) <= 1e-12 * abs(uv)


def test_linearity_in_density(solid_material):
    rng = np.random.default_rng(3)
    grid = make_grid(6)
    u = VectorField(grid, rng.normal(size=(2, 6, 6)))
    base = apply_system(make_operator(ScalarField.full(grid, 1.0),
                                      solid_material), u)
    scaled = apply_system(make_operator(ScalarField.full(grid, 2.5),
                                        solid_material), u)
    assert np.abs(scaled.values - 2.5 * base.values).max() \
        <= 1e-13 * np.abs(scaled.values).max()


def test_size_mismatch_rejected(solid_material):
    rng = np.random.default_rng(4)
    op = random_operator(4, rng, solid_material)
    with pytest.raises(ValueError):
        apply_system(op, VectorField.zeros(make_grid(8)))


def test_rhs_uniform_density_is_zero(solid_material):
    grid = make_grid(8)
    op = make_operator(ScalarField.full(grid, 0.7), solid_material)
    f = assemble_rhs(op, np.array([1.0, 1.0, 1.0]))
    assert np.abs(f.values).max() <= 1e-13


def test_rhs_zero_strain_is_zero(solid_material):
    rng = np.random.default_rng(5)
    op = random_operator(4, rng, solid_material)
    f = assemble_rhs(op, np.zeros(3))
    assert np.abs(f.values).max() == 0.0


def test_rhs_matches_dense_oracle(solid_material):
    # laminate-like density on the 8x8 grid against the dense assembly
    grid = make_grid(8)
    rho = ScalarField(grid, np.tile(np.linspace(10.0, 1.0, 8)[:, None], (1, 8)))
    op = make_operator(rho, solid_material)
    eps_bar = np.array([1.0, 1.0, 1.0])
    ours = vec_flat(assemble_rhs(op, eps_bar).values)
    ref = dense_rhs(8, rho.values, solid_material.stiffness, eps_bar)
    assert np.abs(ours - ref).max() <= 1e-12 * np.abs(ref).max()


def test_rhs_orthogonal_to_translations(solid_material):
    rng = np.random.default_rng(6)
    op = random_operator(8, rng, solid_material)
    f = assemble_rhs(op, np.array([0.3, -1.0, 2.0]))
    sums = f.values.sum(axis=(1, 2))
    norm = np.linalg.norm(f.values)
    assert np.abs(sums).max() <= 1e-12 * norm


def test_rhs_rejects_bad_strain(solid_material):
    rng = np.random.default_rng(7)
    op = random_operator(4, rng, solid_material)
    with pytest.raises(ValueError):
        assemble_rhs(op, np.array([1.0, np.inf, 0.0]))
    with pytest.raises(ValueError):
        assemble_rhs(op, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        assemble_rhs(op, np.zeros((2, 2, 3)))


def test_operator_rejects_negative_density(solid_material):
    grid = make_grid(4)
    rho = ScalarField.zeros(grid)
    rho.values[1, 2] = -0.5
    with pytest.raises(ValueError, match="negative"):
        make_operator(rho, solid_material)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_operator_rejects_non_finite_density(bad, solid_material):
    rho = ScalarField.full(make_grid(4), 1.0)
    rho.values[2, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        make_operator(rho, solid_material)


@pytest.mark.parametrize("n", [8, 9, 32])
def test_stacked_kernels_bitwise_equal_per_load(n, solid_material):
    rng = np.random.default_rng(500 + n)
    op = random_operator(n, rng, solid_material, (1.0, 1.5))
    u = rng.normal(size=(3, 2, n, n))
    eps_bars = rng.normal(size=(3, 3))
    ku = apply_system(op, VectorField(op.grid, u)).values
    rhs = assemble_rhs(op, eps_bars).values
    for j in range(3):
        one = VectorField(op.grid, u[j])
        assert np.array_equal(ku[j], apply_system(op, one).values)
        assert np.array_equal(rhs[j], assemble_rhs(op, eps_bars[j]).values)
    # a shorter stack after a longer one works in the grown workspace
    assert np.array_equal(apply_system(op, VectorField(op.grid, u[1:])).values,
                          ku[1:])


def test_homogenized_stress_uniform(solid_material):
    grid = make_grid(4)
    op = make_operator(ScalarField.full(grid, 1.0), solid_material)
    sigma = homogenized_stress(op, VectorField.zeros(grid),
                               np.array([1.0, 1.0, 1.0]))
    assert np.allclose(sigma, [7.0 / 3.0, 7.0 / 3.0, 1.0], rtol=0, atol=1e-14)


@pytest.mark.parametrize("n", [8, 9, 32])
def test_kernels_bitwise_equal_roll_einsum_reference(n, solid_material):
    rng = np.random.default_rng(300 + n)
    lengths = (1.0, 1.5)
    op = random_operator(n, rng, solid_material, lengths)
    u = rng.normal(size=(2, n, n))
    eps_bar = rng.normal(size=3)
    ku = apply_system(op, VectorField(op.grid, u))
    assert np.array_equal(ku.values, reference_apply_k(
        u, op.density.values, solid_material.stiffness, lengths))
    assert np.array_equal(assemble_rhs(op, eps_bar).values, reference_rhs(
        op.density.values, solid_material.stiffness, eps_bar, lengths))


def test_results_do_not_share_the_workspace(solid_material):
    rng = np.random.default_rng(15)
    op = random_operator(8, rng, solid_material)
    u, v = (VectorField(op.grid, rng.normal(size=(2, 8, 8))) for _ in range(2))
    ku = apply_system(op, u)
    kept = ku.values.copy()
    f = assemble_rhs(op, np.array([1.0, 0.0, 0.0]))
    apply_system(op, v)
    assert ku.values is not f.values
    assert np.array_equal(ku.values, kept)
