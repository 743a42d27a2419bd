import dataclasses
import tracemalloc

import numpy as np
import pytest

from jfft import operators
from jfft.grid import ScalarField, VectorField, make_grid
from jfft.operators import (SystemOperator, apply_system, assemble_rhs,
                            homogenized_stress)

from oracles import (dense_k, dense_rhs, reference_apply_k,
                     reference_homogenized_stress, reference_rhs, vec_flat)


def random_operator(n, rng, material, lengths=(1.0, 1.0)):
    grid = make_grid(n, lengths)
    rho = ScalarField(grid, rng.uniform(0.05, 2.0, (n, n)))
    return SystemOperator(rho, material)


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
    base = apply_system(SystemOperator(ScalarField.full(grid, 1.0),
                                       solid_material), u)
    scaled = apply_system(SystemOperator(ScalarField.full(grid, 2.5),
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
    op = SystemOperator(ScalarField.full(grid, 0.7), solid_material)
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
    op = SystemOperator(rho, solid_material)
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


@pytest.mark.parametrize("n", [2, 8])
def test_rhs_rejects_an_empty_load_axis(n, solid_material):
    # pcg_stack takes B >= 1 loads; a (0, 3) strain stack names its empty
    # load axis instead of failing deep inside the kernels
    op = random_operator(n, np.random.default_rng(n), solid_material)
    with pytest.raises(ValueError, match="empty load axis"):
        assemble_rhs(op, np.empty((0, 3)))
    # the workspace still serves a stack of one
    assert np.array_equal(assemble_rhs(op, np.ones((1, 3))).values[0],
                          assemble_rhs(op, np.ones(3)).values)


def test_operator_grid_is_the_densitys(solid_material):
    rho = ScalarField.full(make_grid(4, (2.0, 0.5)), 1.0)
    op = operators.SystemOperator(rho, solid_material)
    assert op.grid is rho.grid
    assert [f.name for f in dataclasses.fields(op) if f.init] \
        == ["density", "material"]


def test_operator_rejects_negative_density(solid_material):
    grid = make_grid(4)
    rho = ScalarField(grid, np.zeros((4, 4)))
    rho.values[1, 2] = -0.5
    with pytest.raises(ValueError, match="negative"):
        SystemOperator(rho, solid_material)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_operator_rejects_non_finite_density(bad, solid_material):
    rho = ScalarField.full(make_grid(4), 1.0)
    rho.values[2, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        SystemOperator(rho, solid_material)


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
    # shorter stacks after a longer one work in the grown workspace, as
    # when loads leave a pcg_stack solve
    for start in (1, 2):
        assert np.array_equal(
            apply_system(op, VectorField(op.grid, u[start:])).values,
            ku[start:])
        assert np.array_equal(assemble_rhs(op, eps_bars[start:]).values,
                              rhs[start:])


def test_homogenized_stress_uniform(solid_material):
    grid = make_grid(4)
    op = SystemOperator(ScalarField.full(grid, 1.0), solid_material)
    sigma = homogenized_stress(op, VectorField.zeros(grid),
                               np.array([1.0, 1.0, 1.0]))
    assert np.allclose(sigma, [7.0 / 3.0, 7.0 / 3.0, 1.0], rtol=0, atol=1e-14)


@pytest.mark.parametrize("n", [8, 9, 32])
def test_homogenized_stress_bitwise_equal_fresh_arrays(n, solid_material):
    rng = np.random.default_rng(700 + n)
    op = random_operator(n, rng, solid_material, (1.0, 1.5))
    u = VectorField(op.grid, rng.normal(size=(2, n, n)))
    eps_bar = rng.normal(size=3)
    expected = reference_homogenized_stress(op, u, eps_bar)
    assert np.array_equal(homogenized_stress(op, u, eps_bar), expected)
    # after a stack has grown the workspace
    apply_system(op, VectorField(op.grid, rng.normal(size=(3, 2, n, n))))
    assert np.array_equal(homogenized_stress(op, u, eps_bar), expected)
    with pytest.raises(ValueError, match="grid"):
        homogenized_stress(op, VectorField.zeros(make_grid(n)), eps_bar)


def test_homogenized_stress_makes_no_field_sized_temporary(solid_material):
    n = 128
    rng = np.random.default_rng(7)
    op = random_operator(n, rng, solid_material)
    u = VectorField(op.grid, rng.normal(size=(2, n, n)))
    tracemalloc.start()
    try:
        homogenized_stress(op, u, np.ones(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * n * n * 8


# the pixel size is a power of two along x1 only at n = 8 and 32, along
# neither axis at n = 9 and along both on the square cells
@pytest.mark.parametrize("n, lengths", [
    pytest.param(8, (1.0, 1.5), id="8"),
    pytest.param(9, (1.0, 1.5), id="9"),
    pytest.param(32, (1.0, 1.5), id="32"),
    pytest.param(16, (1.0, 1.0), id="16-unit-square"),
    pytest.param(16, (2.0, 2.0), id="16-square-of-two"),
])
def test_kernels_bitwise_equal_roll_einsum_reference(n, lengths,
                                                     solid_material):
    rng = np.random.default_rng(300 + n)
    op = random_operator(n, rng, solid_material, lengths)
    c0, rho = solid_material.stiffness, op.density.values
    u = rng.normal(size=(3, 2, n, n))
    eps_bars = rng.normal(size=(3, 3))
    ku = apply_system(op, VectorField(op.grid, u[0]))
    assert np.array_equal(ku.values, reference_apply_k(u[0], rho, c0, lengths))
    assert np.array_equal(assemble_rhs(op, eps_bars[0]).values,
                          reference_rhs(rho, c0, eps_bars[0], lengths))
    # a stack of three loads, each against the one-load reference
    ku = apply_system(op, VectorField(op.grid, u)).values
    rhs = assemble_rhs(op, eps_bars).values
    for j in range(3):
        assert np.array_equal(ku[j], reference_apply_k(u[j], rho, c0, lengths))
        assert np.array_equal(rhs[j], reference_rhs(rho, c0, eps_bars[j],
                                                    lengths))


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


@pytest.mark.parametrize("n", [8, 512])
def test_apply_system_rejects_out_sharing_memory_with_u(n, solid_material):
    rng = np.random.default_rng(16)
    op = random_operator(n, rng, solid_material)
    stack = rng.normal(size=(2, 2, n, n))
    u = VectorField(op.grid, stack[0])
    kept = stack.copy()
    for out in (stack[0], stack[0][:, ::-1], stack):
        with pytest.raises(ValueError, match="share memory"):
            apply_system(op, u, out=out)
    assert np.array_equal(stack, kept)
    # a separate buffer, even the other load of the same stack, is fine
    other = stack[1]
    assert apply_system(op, u, out=other).values is other
    assert np.array_equal(other, apply_system(op, u).values)


def test_banded_kernel_bitwise_equal_reference_at_512(bands, solid_material):
    n = 512
    rng = np.random.default_rng(512)
    op = random_operator(n, rng, solid_material)
    c0, rho = solid_material.stiffness, op.density.values
    u = rng.normal(size=(3, 2, n, n))
    ku = apply_system(op, VectorField(op.grid, u[0]))
    assert bands.count > 1
    assert np.array_equal(ku.values, reference_apply_k(u[0], rho, c0))
    bands.count = 0
    ku = apply_system(op, VectorField(op.grid, u)).values
    assert bands.count > 1
    for j in range(3):
        assert np.array_equal(ku[j], reference_apply_k(u[j], rho, c0))


# one-row bands everywhere; at most two rows at n = 9 and five or seven at
# n = 32 give bands of unequal heights (1 and 2, 4 and 5, 6 and 7 rows)
@pytest.mark.parametrize("n, rows", [
    (2, 1), (3, 1), (8, 1), (9, 1), (9, 2), (32, 1), (32, 5), (32, 7)])
@pytest.mark.parametrize("lengths", [(1.0, 1.0), (1.0, 1.5)])
@pytest.mark.parametrize("loads", [1, 3])
def test_forced_bands_bitwise_equal_reference(n, rows, lengths, loads, bands,
                                              solid_material):
    rng = np.random.default_rng(900 + n)
    op = random_operator(n, rng, solid_material, lengths)
    c0, rho = solid_material.stiffness, op.density.values
    u = rng.normal(size=(loads, 2, n, n))
    field = VectorField(op.grid, u[0] if loads == 1 else u)
    bands.force(rows)
    ku = apply_system(op, field).values.reshape(u.shape)
    assert bands.count == -(-n // rows) > 1
    for j in range(loads):
        assert np.array_equal(ku[j], reference_apply_k(u[j], rho, c0, lengths))


@pytest.mark.parametrize("n, loads", [(32, 3), (128, 1), (128, 3), (256, 1)])
def test_small_grids_run_one_band(n, loads, bands, solid_material):
    op = random_operator(n, np.random.default_rng(n), solid_material)
    shape = (2, n, n) if loads == 1 else (loads, 2, n, n)
    apply_system(op, VectorField(op.grid, np.ones(shape)))
    assert bands.count == 1


# Bands where they were measured to win, from n = 192 for three loads and
# n = 256 for two, with 8-row bands once loads x n exceeds 2730 (n = 1024
# for three loads); one band where bands gained at most 6% or lost.
@pytest.mark.parametrize("n, loads, count", [
    (32, 3, 1), (128, 3, 1), (192, 2, 1), (256, 1, 1), (320, 1, 1),
    (192, 3, 5), (256, 2, 6), (256, 3, 8), (384, 1, 6), (512, 1, 11),
    (512, 2, 22), (512, 3, 35), (1024, 1, 43), (1024, 2, 94),
    (1024, 3, 128), (2048, 1, 187), (2048, 3, 256)])
def test_band_rule(n, loads, count):
    assert operators._band_count(n, loads) == count


def test_banded_kernel_makes_no_field_sized_temporary(bands, solid_material):
    n = 512
    rng = np.random.default_rng(8)
    op = random_operator(n, rng, solid_material)
    u = VectorField(op.grid, rng.normal(size=(2, n, n)))
    out = np.empty((2, n, n))
    apply_system(op, u, out=out)
    sizes = op._strain.size, op._planes.size
    bands.count = 0
    tracemalloc.start()
    try:
        apply_system(op, u, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bands.count > 1
    assert peak < n * n * 8
    # the workspace is one band of 49 rows, not the (6 n^2, 2 n^2) of a
    # whole-grid pass
    assert workspace(op) == sizes == band_workspace(n, 1, bands.count)


def workspace(op):
    """Entries of the operator's strain and scratch buffers."""
    return op._strain.size, op._planes.size


def band_workspace(n, loads, count):
    """Entries of the strain and scratch buffers of the tallest of
    ``count`` row bands, halo rows included: 6 strain and 2 nodal planes
    per load; 2 scratch planes per load and one factor plane."""
    rows = -(-n // count) + 2
    return 8 * loads * rows * n, (2 * loads + 1) * rows * n


@pytest.mark.parametrize("n", [8, 512])
def test_system_rejects_an_empty_load_axis(n, solid_material):
    # the Green layers take a (0, 2, n, n) stack; K names its empty load
    # axis instead of failing in the band rule
    op = random_operator(n, np.random.default_rng(n), solid_material)
    empty = VectorField(op.grid, np.empty((0, 2, n, n)))
    with pytest.raises(ValueError, match="empty load axis"):
        apply_system(op, empty)
    with pytest.raises(ValueError, match="empty load axis"):
        operators.prepare_system(op, empty, np.empty((0, 2, n, n)))


@pytest.mark.parametrize("eps_bar, message", [
    (np.array([np.nan, 0.0, 0.0]), "finite"),
    (np.array([1.0, np.inf, 0.0]), "finite"),
    (1.0, "shape"),
    (np.ones((1, 3)), "shape"),
    (np.ones(2), "shape"),
    (np.ones((0, 3)), "shape"),
])
def test_homogenized_stress_rejects_bad_strain(eps_bar, message,
                                               solid_material):
    op = random_operator(4, np.random.default_rng(17), solid_material)
    u = VectorField(op.grid, np.zeros((2, 4, 4)))
    with pytest.raises(ValueError, match=f"macroscopic strain must .*{message}"):
        homogenized_stress(op, u, eps_bar)
    # the right-hand side raises the same errors on what it cannot take
    if np.ndim(eps_bar) != 2 or np.size(eps_bar) == 0:
        with pytest.raises(ValueError, match="macroscopic strain"):
            assemble_rhs(op, eps_bar)


# the grids, lengths and loads of test_forced_bands_bitwise_equal_reference
@pytest.mark.parametrize("n, rows", [
    (2, 1), (3, 1), (8, 1), (9, 1), (9, 2), (32, 1), (32, 5), (32, 7)])
@pytest.mark.parametrize("lengths", [(1.0, 1.0), (1.0, 1.5)])
@pytest.mark.parametrize("loads", [1, 3])
def test_forced_bands_rhs_bitwise_equal_reference(n, rows, lengths, loads,
                                                  bands, solid_material):
    rng = np.random.default_rng(950 + n)
    bands.force(rows)
    op = random_operator(n, rng, solid_material, lengths)
    c0, rho = solid_material.stiffness, op.density.values
    eps_bars = rng.normal(size=(loads, 3))
    f = assemble_rhs(op, eps_bars[0] if loads == 1 else eps_bars).values
    count = -(-n // rows)
    assert bands.adjoints == count > 1 and bands.count == 0
    assert workspace(op) == band_workspace(n, loads, count)
    for j, fj in enumerate(f.reshape((loads, 2, n, n))):
        assert np.array_equal(fj, reference_rhs(rho, c0, eps_bars[j],
                                                lengths))


def test_banded_rhs_bitwise_equal_reference_at_512(bands, solid_material):
    n = 512
    rng = np.random.default_rng(513)
    op = random_operator(n, rng, solid_material)
    c0, rho = solid_material.stiffness, op.density.values
    eps_bars = rng.normal(size=(3, 3))
    for loads in (1, 3):
        bands.adjoints = 0
        f = assemble_rhs(op, eps_bars[0] if loads == 1 else eps_bars[:loads])
        assert bands.adjoints == operators._band_count(n, loads) > 1
        for j, fj in enumerate(f.values.reshape((loads, 2, n, n))):
            assert np.array_equal(fj, reference_rhs(rho, c0, eps_bars[j]))
    assert bands.count == 0
    # each buffer as large as the larger of the two stacks' tallest bands
    assert workspace(op) == tuple(map(max, *(
        band_workspace(n, loads, operators._band_count(n, loads))
        for loads in (1, 3))))


def test_banded_homogenized_stress_bitwise_equal_reference(solid_material):
    n = 512
    rng = np.random.default_rng(514)
    op = random_operator(n, rng, solid_material)
    u = VectorField(op.grid, rng.normal(size=(2, n, n)))
    eps_bar = rng.normal(size=3)
    assert workspace(op) == (0, 0)
    apply_system(op, u)
    sizes = band_workspace(n, 1, operators._band_count(n, 1))
    assert workspace(op) == sizes
    assert np.array_equal(homogenized_stress(op, u, eps_bar),
                          reference_homogenized_stress(op, u, eps_bar))
    assert workspace(op) == sizes


# a first band of fewer rows than a later one: n = 9 in 5 bands (1 and 2
# rows), n = 32 in 5 (6 and 7) and n = 512 for one load in 11 (46 and 47)
@pytest.mark.parametrize("n, rows", [(9, 2), (32, 7), (512, None)])
@pytest.mark.parametrize("loads", [1, 3])
def test_fresh_operator_with_taller_later_band_bitwise_equal_reference(
        n, rows, loads, bands, solid_material):
    if rows is not None:
        bands.force(rows)
    rng = np.random.default_rng(960 + n)
    op = random_operator(n, rng, solid_material)
    assert workspace(op) == (0, 0)
    c0, rho = solid_material.stiffness, op.density.values
    count = operators._band_count(n, loads)
    heights = [(k + 1) * n // count - k * n // count for k in range(count)]
    assert heights[0] < max(heights)
    u = rng.normal(size=(loads, 2, n, n))
    out = np.empty(u.shape)
    sizes = band_workspace(n, loads, count)
    tracemalloc.start()
    try:
        ku = apply_system(op, VectorField(op.grid, u[0] if loads == 1 else u),
                          out=out[0] if loads == 1 else out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bands.count == count
    # one workspace, of the tallest band, and no buffer of a shorter band
    # left behind in the plans: 2.2 MB at n = 512, well above the slack for
    # the plans and NumPy's ufunc buffers (87 KB at n = 32 for three loads)
    assert workspace(op) == sizes
    assert peak < 8 * sum(sizes) + 128 * 1024
    for j, kj in enumerate(ku.values.reshape(u.shape)):
        assert np.array_equal(kj, reference_apply_k(u[j], rho, c0))


# whole grid, and forced bands whose workspace grows 2.8-fold for three
# loads
@pytest.mark.parametrize("rows", [None, 5])
def test_k_prepared_before_a_larger_stack_grows_the_workspace(
        rows, bands, solid_material):
    n = 32
    if rows is not None:
        bands.force(rows)
    rng = np.random.default_rng(970)
    op = random_operator(n, rng, solid_material)
    c0, rho = solid_material.stiffness, op.density.values
    u = VectorField(op.grid, np.empty((2, n, n)))
    run = operators.prepare_system(op, u, np.empty((2, n, n)))
    sizes = workspace(op)
    stack = rng.normal(size=(3, 2, n, n))
    ku = apply_system(op, VectorField(op.grid, stack)).values
    assert all(new > old for new, old in zip(workspace(op), sizes))
    for j in range(3):
        assert np.array_equal(ku[j], reference_apply_k(stack[j], rho, c0))
    for j in range(3):
        u.values[...] = stack[j]
        assert np.array_equal(run().values, ku[j])
