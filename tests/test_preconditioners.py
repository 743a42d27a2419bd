import numpy as np
import pytest

import jfft.preconditioners as precond_mod
from jfft.grid import ScalarField, VectorField, make_grid
from jfft.material import isotropic_material
from jfft.operators import apply_system, make_operator
from jfft.preconditioners import (Preconditioner, apply_green,
                                  apply_green_jacobi, apply_jacobi,
                                  apply_jacobi_half, assemble_green,
                                  assemble_jacobi, build_preconditioner,
                                  green_norm2)
from jfft.solver import pcg

from oracles import (green_blocks, impulse_diagonal, reference_apply_green,
                     vec_flat, vec_unflat)


def zero_mean(values):
    return values - values.mean(axis=(1, 2))[:, None, None]


# ---------------------------------------------------------------------------
# Green operator
# ---------------------------------------------------------------------------

def test_green_zero_frequency_block_is_exactly_zero(solid_material):
    green = assemble_green(make_grid(8), solid_material)
    assert np.abs(green_blocks(green)[0, 0]).max() == 0.0


def test_green_blocks_hermitian_psd(solid_material):
    green = assemble_green(make_grid(8), solid_material)
    blocks = green_blocks(green)
    herm_defect = np.abs(blocks - np.conj(np.swapaxes(blocks, -1, -2))).max()
    assert herm_defect <= 1e-13 * np.abs(blocks).max()
    eigvals = np.linalg.eigvalsh(blocks)
    assert eigvals.min() >= 0.0


@pytest.mark.parametrize("n", [8, 16])
def test_green_pseudo_inverse_property(n, solid_material):
    rng = np.random.default_rng(10 + n)
    grid = make_grid(n)
    green = assemble_green(grid, solid_material)
    ref_op = make_operator(ScalarField.full(grid, 1.0), solid_material)
    for _ in range(20):
        v = VectorField(grid, rng.normal(size=(2, n, n)))
        gkv = apply_green(green, apply_system(ref_op, v))
        expected = zero_mean(v.values)
        assert np.abs(gkv.values - expected).max() \
            <= 1e-10 * np.abs(expected).max()


def test_green_inverts_reference_on_zero_mean_fields(solid_material):
    rng = np.random.default_rng(11)
    grid = make_grid(8)
    green = assemble_green(grid, solid_material)
    ref_op = make_operator(ScalarField.full(grid, 1.0), solid_material)
    u = VectorField(grid, zero_mean(rng.normal(size=(2, 8, 8))))
    back = apply_green(green, apply_system(ref_op, u))
    assert np.abs(back.values - u.values).max() <= 1e-10 * np.abs(u.values).max()


def test_green_kills_translations(solid_material):
    grid = make_grid(8)
    green = assemble_green(grid, solid_material)
    r = VectorField(grid, np.stack([np.full((8, 8), 2.0),
                                    np.full((8, 8), -1.0)]))
    assert np.abs(apply_green(green, r).values).max() <= 1e-13


def test_green_application_symmetric(solid_material):
    rng = np.random.default_rng(12)
    grid = make_grid(8)
    green = assemble_green(grid, solid_material)
    for _ in range(10):
        r = VectorField(grid, rng.normal(size=(2, 8, 8)))
        s = VectorField(grid, rng.normal(size=(2, 8, 8)))
        rs = float(np.vdot(apply_green(green, r).values, s.values))
        sr = float(np.vdot(r.values, apply_green(green, s).values))
        assert abs(rs - sr) <= 1e-12 * abs(rs)


def test_green_output_zero_mean(solid_material):
    rng = np.random.default_rng(13)
    grid = make_grid(8)
    green = assemble_green(grid, solid_material)
    z = apply_green(green, VectorField(grid, rng.normal(size=(2, 8, 8))))
    assert np.abs(z.component_means()).max() <= 1e-14 * np.abs(z.values).max()


@pytest.mark.parametrize("n", [8, 9, 32])
def test_apply_green_bitwise_equal_einsum_reference(n, solid_material):
    rng = np.random.default_rng(20 + n)
    grid = make_grid(n)
    green = assemble_green(grid, solid_material)
    r = rng.normal(size=(2, n, n))
    z = apply_green(green, VectorField(grid, r))
    assert np.array_equal(z.values, reference_apply_green(green, r))
    # the result is not a view of the operator's workspace
    kept = z.values.copy()
    apply_green(green, VectorField(grid, rng.normal(size=(2, n, n))))
    assert np.array_equal(z.values, kept)


@pytest.mark.parametrize("n", [8, 9, 32, 128])
def test_stacked_preconditioners_bitwise_equal_per_load(n, solid_material):
    rng = np.random.default_rng(60 + n)
    grid = make_grid(n)
    green = assemble_green(grid, solid_material)
    op = make_operator(ScalarField(grid, rng.uniform(0.01, 1.0, (n, n))),
                       solid_material)
    r = rng.normal(size=(3, 2, n, n))
    stack = VectorField(grid, r)
    norms = green_norm2(green, stack)
    kinds = ("none", "green") if n % 2 else ("none", "green", "jacobi",
                                              "green-jacobi")
    applied = {kind: build_preconditioner(kind, op, green).apply(stack).values
               for kind in kinds}
    for j in range(3):
        one = VectorField(grid, r[j])
        assert norms[j] == green_norm2(green, one)
        for kind in kinds:
            pre = build_preconditioner(kind, op, green)
            assert np.array_equal(applied[kind][j], pre.apply(one).values), kind


@pytest.mark.parametrize("n", [8, 9, 16])
def test_green_norm_by_parseval_matches_real_space(n, solid_material):
    rng = np.random.default_rng(30 + n)
    grid = make_grid(n)
    green = assemble_green(grid, solid_material)
    fields = {
        "random": rng.normal(size=(2, n, n)),
        # functions of x1 alone: every mode lies in the k2 = 0 column
        "k2 = 0 column": np.repeat(rng.normal(size=(2, n, 1)), n, axis=2),
    }
    if n % 2 == 0:
        # alternating in x2: every mode lies in the Nyquist column
        fields["Nyquist column"] = (rng.normal(size=(2, n, 1))
                                    * (-1.0) ** np.arange(n)[None, None, :])
    for name, values in fields.items():
        r = VectorField(grid, values)
        expected = float(np.vdot(r.values, apply_green(green, r).values))
        assert abs(green_norm2(green, r) - expected) <= 1e-12 * abs(expected), name


def test_green_rejects_indefinite_reference():
    with pytest.raises(ValueError):
        assemble_green(make_grid(8), isotropic_material(0.0, -1.0))


# ---------------------------------------------------------------------------
# Jacobi diagonal
# ---------------------------------------------------------------------------

def test_jacobi_uses_exactly_eight_probes(solid_material, monkeypatch):
    grid = make_grid(8)
    op = make_operator(ScalarField.full(grid, 1.0), solid_material)
    calls = []
    original = precond_mod.apply_system

    def counting(op_, u):
        calls.append(1)
        return original(op_, u)

    monkeypatch.setattr(precond_mod, "apply_system", counting)
    assemble_jacobi(op)
    assert len(calls) == 8


@pytest.mark.parametrize("density", ["random", "laminate", "void"])
def test_jacobi_probing_matches_impulse_diagonal(density, solid_material):
    rng = np.random.default_rng(14)
    grid = make_grid(4)
    if density == "random":
        rho = ScalarField(grid, rng.uniform(0.1, 2.0, (4, 4)))
    elif density == "laminate":
        rho = ScalarField(grid, np.tile(np.array([10.0, 7.0, 4.0, 1.0])[:, None],
                                        (1, 4)))
    else:
        values = rng.uniform(0.5, 1.0, (4, 4))
        values[1:3, 1:3] = 0.0
        rho = ScalarField(grid, values)
    op = make_operator(rho, solid_material)
    jac = assemble_jacobi(op)

    def apply_flat(flat):
        u = VectorField(grid, vec_unflat(flat, 4))
        return vec_flat(apply_system(op, u).values)

    diag = impulse_diagonal(apply_flat, 2 * 16)
    diag[diag == 0.0] = 1.0
    assert np.abs(vec_flat(jac.inv_sqrt) - 1.0 / np.sqrt(diag)).max() <= 1e-14


def test_jacobi_void_entries_replaced_by_one(solid_material):
    grid = make_grid(4)
    op = make_operator(ScalarField.zeros(grid), solid_material)
    jac = assemble_jacobi(op)
    assert np.array_equal(jac.inv_sqrt, np.ones((2, 4, 4)))
    assert np.all(np.isfinite(jac.inv_sqrt))


def test_jacobi_rejects_odd_grid(solid_material):
    op = make_operator(ScalarField.full(make_grid(5), 1.0), solid_material)
    with pytest.raises(ValueError, match="even"):
        assemble_jacobi(op)


def test_jacobi_full_equals_half_twice(solid_material):
    rng = np.random.default_rng(15)
    grid = make_grid(8)
    op = make_operator(ScalarField(grid, rng.uniform(0.1, 2.0, (8, 8))),
                       solid_material)
    jac = assemble_jacobi(op)
    r = VectorField(grid, rng.normal(size=(2, 8, 8)))
    full = apply_jacobi(jac, r).values
    halves = apply_jacobi_half(jac, apply_jacobi_half(jac, r)).values
    assert np.abs(full - halves).max() <= 1e-15 * np.abs(full).max()


def test_jacobi_scales_inversely_with_density(solid_material):
    rng = np.random.default_rng(16)
    grid = make_grid(8)
    rho = ScalarField(grid, rng.uniform(0.1, 2.0, (8, 8)))
    r = VectorField(grid, rng.normal(size=(2, 8, 8)))
    one = apply_jacobi(assemble_jacobi(make_operator(rho, solid_material)), r)
    scaled_rho = ScalarField(grid, 4.0 * rho.values)
    four = apply_jacobi(assemble_jacobi(make_operator(scaled_rho, solid_material)), r)
    assert np.abs(four.values - one.values / 4.0).max() \
        <= 1e-13 * np.abs(one.values).max()


def test_jacobi_identity_when_diagonal_is_one(solid_material):
    grid = make_grid(4)
    jac = precond_mod.JacobiDiagonal(grid, np.ones((2, 4, 4)))
    r = VectorField(grid, np.random.default_rng(17).normal(size=(2, 4, 4)))
    assert np.array_equal(apply_jacobi(jac, r).values, r.values)


# ---------------------------------------------------------------------------
# Green-Jacobi composition
# ---------------------------------------------------------------------------

def test_green_jacobi_reduces_to_green_for_unit_diagonal(solid_material):
    rng = np.random.default_rng(18)
    grid = make_grid(8)
    green = assemble_green(grid, solid_material)
    unit = precond_mod.JacobiDiagonal(grid, np.ones((2, 8, 8)))
    r = VectorField(grid, rng.normal(size=(2, 8, 8)))
    assert np.array_equal(apply_green_jacobi(unit, green, r).values,
                          apply_green(green, r).values)


def test_green_jacobi_symmetric(solid_material):
    rng = np.random.default_rng(19)
    grid = make_grid(8)
    green = assemble_green(grid, solid_material)
    op = make_operator(ScalarField(grid, rng.uniform(0.1, 2.0, (8, 8))),
                       solid_material)
    jac = assemble_jacobi(op)
    for _ in range(10):
        r = VectorField(grid, rng.normal(size=(2, 8, 8)))
        s = VectorField(grid, rng.normal(size=(2, 8, 8)))
        rs = float(np.vdot(apply_green_jacobi(jac, green, r).values, s.values))
        sr = float(np.vdot(r.values, apply_green_jacobi(jac, green, s).values))
        assert abs(rs - sr) <= 1e-12 * abs(rs)


def test_uniform_data_pcg_converges_in_one_iteration(solid_material):
    # with the reference material equal to the solid phase and uniform
    # density, the preconditioned operator is a positive multiple of the
    # identity on zero-mean fields
    rng = np.random.default_rng(20)
    grid = make_grid(8)
    green = assemble_green(grid, solid_material)
    op = make_operator(ScalarField.full(grid, 0.37), solid_material)
    rhs = VectorField(grid, zero_mean(rng.normal(size=(2, 8, 8))))
    for kind in ("green", "green-jacobi"):
        report = pcg(op, rhs, build_preconditioner(kind, op, green), green,
                     eta=1e-10)
        assert report.iterations == 1
        assert report.terminated == "converged"


def test_all_preconditioners_positive_definite_on_zero_mean(solid_material):
    rng = np.random.default_rng(21)
    grid = make_grid(8)
    green = assemble_green(grid, solid_material)
    op = make_operator(ScalarField(grid, rng.uniform(0.05, 1.0, (8, 8))),
                       solid_material)
    preconditioners = [build_preconditioner(kind, op, green)
                       for kind in ("none", "green", "jacobi", "green-jacobi")]
    for _ in range(100):
        r = VectorField(grid, zero_mean(rng.normal(size=(2, 8, 8))))
        for pre in preconditioners:
            assert float(np.vdot(pre.apply(r).values, r.values)) > 0.0


def test_preconditioner_validation(solid_material):
    with pytest.raises(ValueError, match="unknown preconditioner"):
        Preconditioner("ilu")
    with pytest.raises(ValueError, match="Green"):
        Preconditioner("green")
    with pytest.raises(ValueError, match="Jacobi"):
        Preconditioner("jacobi")
