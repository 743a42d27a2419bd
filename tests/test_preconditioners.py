import dataclasses
import pickle
import tracemalloc

import numpy as np
import pytest

import jfft.preconditioners as precond_mod
from jfft.grid import ScalarField, VectorField, make_grid
from jfft.material import MaterialModel
from jfft.microstructures import (cosine_density, laminate_density,
                                  refine_to_grid)
from jfft.operators import SystemOperator, apply_system
from jfft.preconditioners import (Preconditioner, apply_green,
                                  apply_green_jacobi, apply_jacobi,
                                  assemble_green, assemble_jacobi,
                                  build_preconditioner,
                                  prepare_green_norm2)
from jfft.solver import pcg

from oracles import (eigh_green_blocks, full_grid_green, green_blocks,
                     hermitized_reference_blocks, impulse_diagonal,
                     probed_diagonal, reference_apply_green, vec_flat,
                     vec_unflat)


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


@pytest.mark.parametrize("n", [2, 3, 8, 9, 32, 128])
def test_green_closed_form_matches_eigh_pseudo_inverse(n, solid_material):
    # measured at most 1.4e-16 (default material) and 2.5e-15 (lambda = 100,
    # condition number 202) of the largest block entry
    for material, bound in ((solid_material, 1e-15),
                            (MaterialModel(100.0, 0.5), 1e-14)):
        for lengths in ((1.0, 1.0), (2.0, 0.5)):
            grid = make_grid(n, lengths)
            expected = eigh_green_blocks(grid, material)
            blocks = green_blocks(assemble_green(grid, material))
            assert np.abs(blocks - expected).max() \
                <= bound * np.abs(expected).max(), (material, lengths)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9, 16, 32])
@pytest.mark.parametrize("lengths", [(1.0, 1.0), (1.0, 1.5), (2.0, 0.5)],
                         ids=["1x1", "1x1.5", "2x0.5"])
def test_green_patch_assembly_bitwise_equal_full_grid(n, lengths,
                                                      solid_material):
    grid = make_grid(n, lengths)
    assert np.array_equal(green_blocks(assemble_green(grid, solid_material)),
                          green_blocks(full_grid_green(grid, solid_material)))


def test_green_assembly_peak_memory(solid_material):
    # the full-grid assembly peaked at 12.6 fields of (2, n, n) doubles, and
    # the patch assembly at 6.05 while it kept both complex spectra; with
    # their real parts alone it peaks at 3.02 (numpy 2.4.6), while the
    # second response is transformed
    n = 256
    grid = make_grid(n)
    tracemalloc.start()
    try:
        assemble_green(grid, solid_material)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.25 * 2 * n * n * 8


@pytest.mark.parametrize("n, lengths", [(8, (1.0, 1.0)), (9, (1.0, 1.0)),
                                        (32, (1.0, 1.0)), (32, (2.0, 0.5))])
def test_green_conjugate_planes_and_positive_diagonal(n, lengths,
                                                      solid_material):
    green = assemble_green(make_grid(n, lengths), solid_material)
    planes = (green.g11, green.g12, green.g22)
    assert [f.name for f in dataclasses.fields(green) if f.init] \
        == ["grid", "g11", "g12", "g22"]
    for plane in planes:
        assert plane.dtype == np.complex128
        assert not plane.imag.any()
    for plane in (green.g11, green.g22):
        assert plane[0, 0] == 0.0
        away = np.ones(plane.shape, dtype=bool)
        away[0, 0] = False
        assert plane[away].real.min() > 0.0


def _spoiled(plane, case):
    """A copy of the n = 8 ``plane`` spoiled as ``case`` names."""
    if case == "broadcast-row":
        return plane[:1].copy()
    if case == "full-spectrum":
        return np.zeros((8, 8), dtype=np.complex128)
    if case == "other-grid":
        return np.zeros((4, 3), dtype=np.complex128)
    if case == "float64":
        return plane.real.copy()
    spoiled = plane.copy()
    spoiled[3, 2] = {"nan": np.nan, "inf": np.inf,
                     "imaginary": plane[3, 2] + 1e-3j}[case]
    return spoiled


@pytest.mark.parametrize("name", ["g11", "g12", "g22"])
@pytest.mark.parametrize("case, match", [
    ("broadcast-row", "shape"), ("full-spectrum", "shape"),
    ("other-grid", "shape"), ("float64", "complex128"),
    ("nan", "real, finite"), ("inf", "real, finite"),
    ("imaginary", "real, finite")])
def test_green_operator_rejects_planes_off_its_grid(name, case, match,
                                                    solid_material):
    # each was accepted: a (1, 5) plane was broadcast over the rows and
    # gave finite, wrong results, float64 planes sent every block product
    # through a buffered cast, and NaN entries gave NaN results
    grid = make_grid(8)
    green = assemble_green(grid, solid_material)
    planes = {key: getattr(green, key) for key in ("g11", "g12", "g22")}
    planes[name] = _spoiled(planes[name], case)
    with pytest.raises(ValueError, match=f"{name} .*{match}"):
        precond_mod.GreenOperator(grid, **planes)


@pytest.mark.parametrize("n", [8, 9, 32])
@pytest.mark.parametrize("lengths", [(1.0, 1.5), (0.3, 7.0)],
                         ids=["1x1.5", "0.3x7"])
def test_green_rectangular_pixels_match_eigh_of_real_blocks(n, lengths,
                                                            solid_material):
    # on such pixels the Fourier blocks of K_ref carry imaginary rounding
    # noise (at most 5.3e-17 of the largest entry for n = 8 to 256), which
    # the assembly drops
    for material, bound in ((solid_material, 1e-15),
                            (MaterialModel(100.0, 0.5), 1e-14)):
        grid = make_grid(n, lengths)
        khat = hermitized_reference_blocks(grid, material)
        assert np.abs(khat.imag).max() <= 1e-16 * np.abs(khat).max()
        eigvals, eigvecs = np.linalg.eigh(khat.real)
        kept = eigvals > precond_mod._EIG_CUTOFF * np.clip(
            eigvals[..., -1:], 0.0, None)
        inv_vals = np.where(kept, 1.0, 0.0) / np.where(kept, eigvals, 1.0)
        expected = np.einsum("...ab,...b,...cb->...ac", eigvecs, inv_vals,
                             eigvecs)
        blocks = green_blocks(assemble_green(grid, material))
        assert np.abs(blocks - expected).max() \
            <= bound * np.abs(expected).max(), material


@pytest.mark.parametrize("n", [9, 128])
def test_fresh_green_pickles_as_its_planes(n, solid_material):
    grid = make_grid(n)
    green = assemble_green(grid, solid_material)
    data = pickle.dumps(green)
    assert len(data) <= 3 * 16 * n * (n // 2 + 1) + 4096
    back = pickle.loads(data)
    rng = np.random.default_rng(70 + n)
    for shape in ((2, n, n), (3, 2, n, n)):
        r = VectorField(grid, rng.normal(size=shape))
        assert np.array_equal(apply_green(back, r).values,
                              apply_green(green, r).values)
        assert (prepare_green_norm2(back, r)()
                == prepare_green_norm2(green, r)())


def _symmetric_blocks(lam_max, lam_min, off_diagonal_phase):
    """Blocks ``lam_max v v^T + lam_min w w^T`` with orthonormal ``v, w``;
    ``v = (0.6, 0.8 cos(phase))``, so a phase of 0 or pi gives an
    off-diagonal entry of either sign."""
    v = np.array([0.6, 0.8 * np.cos(off_diagonal_phase)])
    w = np.array([-v[1], v[0]])
    return lam_max * np.outer(v, v) + lam_min * np.outer(w, w)


def _inverted(blocks):
    """:func:`_invert_blocks` on the planes of a stack of ``2x2`` blocks,
    returned as a stack of blocks."""
    g11, g12, g22 = precond_mod._invert_blocks(
        blocks[:, 0, 0], blocks[:, 1, 1], blocks[:, 0, 1])
    return np.stack([np.stack([g11, g12], axis=-1),
                     np.stack([g12, g22], axis=-1)], axis=-2)


@pytest.mark.parametrize("case, lam_min, phase, rtol", [
    ("full rank", 0.3, 0.0, 1e-15),
    ("full rank, negative off-diagonal", 0.3, np.pi, 1e-15),
    ("rank one, real off-diagonal", 0.0, 0.0, 1e-15),
    ("rank one, negative off-diagonal", 0.0, np.pi, 1e-15),
    ("smaller eigenvalue at 1e-13", 1e-13, np.pi, 1e-15),
    # kept: an inverse of condition 1e11, accurate to about eps * 1e11
    ("smaller eigenvalue at 1e-11", 1e-11, np.pi, 1e-4),
    ("zero", None, 0.0, 0.0),
])
def test_invert_blocks_matches_pinv(case, lam_min, phase, rtol):
    scales = np.array([1.0, 3.5e-4, 2.0e6])
    blocks = (np.zeros((3, 2, 2)) if lam_min is None
              else np.stack([s * _symmetric_blocks(1.0, lam_min, phase)
                             for s in scales]))
    got = _inverted(blocks)
    expected = np.linalg.pinv(blocks, rcond=precond_mod._EIG_CUTOFF,
                              hermitian=True)
    for j in range(3):
        assert np.abs(got[j] - expected[j]).max() \
            <= rtol * np.abs(expected[j]).max(), (case, scales[j])


def test_invert_blocks_keeps_positive_eigenvalues_only():
    # eigh semantics, which pinv does not share: an eigenvalue at or below
    # zero is dropped whatever its modulus, so an indefinite block is
    # inverted on the range of its positive eigenvalue and a negative
    # definite block maps to zero
    got = _inverted(np.stack([_symmetric_blocks(2.0, -0.5, np.pi),
                              _symmetric_blocks(-1.0, -2.0, np.pi)]))
    assert np.abs(got[0] - _symmetric_blocks(0.5, 0.0, np.pi)).max() <= 1e-15
    assert not got[1].any()


@pytest.mark.parametrize("n", [8, 16])
def test_green_pseudo_inverse_property(n, solid_material):
    rng = np.random.default_rng(10 + n)
    grid = make_grid(n)
    green = assemble_green(grid, solid_material)
    ref_op = SystemOperator(ScalarField.full(grid, 1.0), solid_material)
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
    ref_op = SystemOperator(ScalarField.full(grid, 1.0), solid_material)
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


def dense_columns(apply, grid):
    """Matrix of a linear map on ``(2, n, n)`` fields, one unit vector per
    column, in the flattening of ``values.ravel()``."""
    size = 2 * grid.n ** 2
    columns = []
    for k in range(size):
        e = np.zeros(size)
        e[k] = 1.0
        columns.append(apply(VectorField(grid, e.reshape(2, grid.n, grid.n)))
                       .values.ravel())
    return np.array(columns).T


def patch_extremes(rho):
    """Sorted minima and maxima of the density over the four pixels that
    meet at each node, each node counted once per displacement component,
    the two smallest entries of each list dropped."""
    down = np.roll(rho, 1, axis=0)
    patches = np.stack([rho, down, np.roll(rho, 1, axis=1),
                        np.roll(down, 1, axis=1)])
    return [np.sort(np.tile(f(patches, axis=0).ravel(), 2))[2:]
            for f in (np.min, np.max)]


@pytest.mark.parametrize("field", ["uniform", "cosine", "laminate"])
def test_green_spectrum_within_nodal_patch_bounds(field, solid_material):
    # Generalized eigenvalues of (K(rho), K_ref) for a scalar density times
    # a fixed stiffness: sorted, the k-th lies between the k-th sorted patch
    # minimum and maximum (Gergelits, Mardal, Nielsen & Strakos, SIAM J.
    # Numer. Anal. 57 (2019); Ladecky, Pultarova & Zeman, Appl. Math. 66
    # (2021) for elasticity).  The two translations are zero eigenvalues of
    # G K.
    n = 8
    grid = make_grid(n)
    rho = {
        "uniform": np.random.default_rng(40).uniform(0.01, 1.0, (n, n)),
        "cosine": cosine_density(8, 100.0).values,
        "laminate": laminate_density(8, 100.0).values / 100.0,
    }[field]
    op = SystemOperator(ScalarField(grid, rho), solid_material)
    green = assemble_green(grid, solid_material)
    gk = (dense_columns(lambda v: apply_green(green, v), grid)
          @ dense_columns(lambda v: apply_system(op, v), grid))
    eigenvalues = np.sort(np.linalg.eigvals(gk).real)[2:]
    lower, upper = patch_extremes(rho)
    assert np.all(lower - 1e-12 <= eigenvalues)
    assert np.all(eigenvalues <= upper + 1e-12)


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
    op = SystemOperator(ScalarField(grid, rng.uniform(0.01, 1.0, (n, n))),
                        solid_material)
    r = rng.normal(size=(3, 2, n, n))
    stack = VectorField(grid, r)
    norms = prepare_green_norm2(green, stack)()
    kinds = ("none", "green", "jacobi", "green-jacobi")
    applied = {kind: build_preconditioner(kind, op, green).prepare(stack)()
               .values for kind in kinds}
    for j in range(3):
        one = VectorField(grid, r[j])
        assert [norms[j]] == prepare_green_norm2(green, one)()
        for kind in kinds:
            pre = build_preconditioner(kind, op, green)
            assert np.array_equal(applied[kind][j],
                                  pre.prepare(one)().values), kind


@pytest.mark.parametrize("n", [8, 9, 32])
@pytest.mark.parametrize("loads", [(), (3,)], ids=["one-load", "three-loads"])
def test_out_forms_bitwise_equal_allocating_calls(n, loads, solid_material):
    rng = np.random.default_rng(80 + n)
    grid = make_grid(n, (1.0, 1.5))
    green = assemble_green(grid, solid_material)
    op = SystemOperator(ScalarField(grid, rng.uniform(0.01, 1.0, (n, n))),
                        solid_material)
    jacobi = assemble_jacobi(op)
    r = VectorField(grid, rng.normal(size=loads + (2, n, n)))
    kept = r.values.copy()
    calls = {
        "K": lambda out=None: apply_system(op, r, out=out),
        "green": lambda out=None: apply_green(green, r, out=out),
        "jacobi": lambda out=None: apply_jacobi(jacobi, r, out=out),
        "green-jacobi": lambda out=None: apply_green_jacobi(jacobi, green, r,
                                                            out=out),
    }
    for kind in ("none", "green", "jacobi", "green-jacobi"):
        pre = build_preconditioner(kind, op, green)
        calls[kind + " via prepare"] = lambda out=None, pre=pre: pre.prepare(
            r, out=out)()
    for name, call in calls.items():
        expected = call().values
        out = np.full_like(r.values, np.nan)
        result = call(out=out)
        assert result.values is out, name
        assert np.array_equal(out, expected), name
        assert np.array_equal(r.values, kept), name
    # the result may overwrite the input, as Green-Jacobi relies on
    for name in ("green", "green-jacobi"):
        expected = calls[name]().values
        assert calls[name](out=r.values).values is r.values, name
        assert np.array_equal(r.values, expected), name


@pytest.mark.parametrize("loads", [None, 3])
def test_first_green_application_holds_three_planes_per_load(loads,
                                                             solid_material):
    # planes 1 and 2 take the forward FFT, plane 0 and the output field
    # are the scratch of the block product: a fourth spectral plane per
    # load would add 130 KB per load at n = 128
    n = 128
    grid = make_grid(n)
    green = assemble_green(grid, solid_material)
    shape = (2, n, n) if loads is None else (loads, 2, n, n)
    r = VectorField(grid, np.random.default_rng(41).normal(size=shape))
    out = np.empty(shape)
    planes = 3 * (loads or 1) * n * (n // 2 + 1) * 16
    tracemalloc.start()
    try:
        apply_green(green, r, out=out)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert green._spectral_planes.nbytes == planes
    # 3.1 to 3.6 KB held and 3.5 to 4.5 KB at the peak above the planes
    # on numpy 2.4.6, which traces no FFT buffer here; others may take one
    # of up to 128 KB while they transform
    slack = 16 * 1024
    assert held <= planes + slack, held - planes
    assert peak <= planes + 128 * 1024 + slack, peak - planes


@pytest.mark.parametrize("n", [8, 9, 32])
def test_grown_workspace_bitwise_equal_fresh_operator(n, solid_material):
    # after a three-load stack, one load and two loads run on the [:, 0]
    # and [:, :2] views of the workspace, whose planes are then strided
    rng = np.random.default_rng(100 + n)
    grid = make_grid(n)
    op = SystemOperator(ScalarField(grid, rng.uniform(0.01, 1.0, (n, n))),
                        solid_material)
    jacobi = assemble_jacobi(op)
    grown = assemble_green(grid, solid_material)
    apply_green(grown, VectorField(grid, rng.normal(size=(3, 2, n, n))))
    assert grown._spectral_planes.shape[:2] == (3, 3)
    for shape in ((2, n, n), (2, 2, n, n)):
        r = VectorField(grid, rng.normal(size=shape))
        (z, zj, norm), (z0, zj0, norm0) = (
            (apply_green(green, r).values,
             apply_green_jacobi(jacobi, green, r).values,
             prepare_green_norm2(green, r)())
            for green in (grown, assemble_green(grid, solid_material)))
        assert np.array_equal(z, z0), shape
        assert np.array_equal(zj, zj0), shape
        assert norm == norm0, shape
        assert grown._spectral_planes.shape[1] == 3


def _apply_into(kind, loads, out, material):
    """``kind`` ("K", "apply_green" or a preconditioner kind) applied at
    n = 8 to ``loads`` random fields, into ``out``."""
    rng = np.random.default_rng(90)
    grid = make_grid(8)
    green = assemble_green(grid, material)
    op = SystemOperator(ScalarField(grid, rng.uniform(0.01, 1.0, (8, 8))),
                        material)
    r = VectorField(grid, rng.normal(size=loads + (2, 8, 8)))
    if kind == "K":
        return apply_system(op, r, out=out)
    if kind == "apply_green":
        return apply_green(green, r, out=out)
    return build_preconditioner(kind, op, green).prepare(r, out=out)()


@pytest.mark.parametrize("kind", ["K", "none", "green", "jacobi",
                                  "green-jacobi", "apply_green"])
@pytest.mark.parametrize("loads, out_shape", [((), (3, 2, 8, 8)),
                                              ((3,), (1, 3, 2, 8, 8))],
                         ids=["one-load", "three-loads"])
def test_out_of_another_shape_rejected(kind, loads, out_shape,
                                       solid_material):
    # NumPy would broadcast the result into an out with extra leading axes
    with pytest.raises(ValueError, match="shape"):
        _apply_into(kind, loads, np.zeros(out_shape), solid_material)


@pytest.mark.parametrize("kind", ["K", "none", "green", "jacobi",
                                  "green-jacobi", "apply_green"])
@pytest.mark.parametrize("loads", [(), (3,)], ids=["one-load", "three-loads"])
@pytest.mark.parametrize("layout", ["F-order", "float32"])
def test_out_of_another_layout_rejected(kind, loads, layout,
                                        solid_material):
    # a VectorField copies such an out instead of wrapping it: Green-Jacobi
    # returned the right field and left J^(1/2) r in out, and K and Green
    # rounded into a float32 out without notice
    shape = loads + (2, 8, 8)
    out = (np.zeros(shape, order="F") if layout == "F-order"
           else np.zeros(shape, dtype=np.float32))
    with pytest.raises(ValueError, match="C-contiguous float64"):
        _apply_into(kind, loads, out, solid_material)


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
        nyquist = (rng.normal(size=(2, n, 1))
                   * (-1.0) ** np.arange(n)[None, None, :])
        fields["Nyquist column"] = nyquist
        fields["both edge columns"] = fields["k2 = 0 column"] + nyquist
    # a stack, each load checked against its own real-space value
    stack = rng.normal(size=(3, 2, n, n))
    cases = []
    for name, values in fields.items():
        # a plain field gives a list of one value, as a stack of one does
        [value] = prepare_green_norm2(green, VectorField(grid, values))()
        cases.append((name, values, value))
    stacked = prepare_green_norm2(green, VectorField(grid, stack))()
    cases += [(f"load {j} of a stack", values, value) for j, (values, value)
              in enumerate(zip(stack, stacked))]
    for name, values, value in cases:
        r = VectorField(grid, values)
        expected = float(np.vdot(r.values, apply_green(green, r).values))
        assert abs(value - expected) <= 1e-12 * abs(expected), name


@pytest.mark.parametrize("loads", [None, 3])
def test_green_norm_takes_two_dots_per_load(loads, solid_material,
                                            monkeypatch):
    grid = make_grid(16)
    green = assemble_green(grid, solid_material)
    calls = []
    original = precond_mod.dot

    def counting(a, b):
        calls.append(1)
        return original(a, b)

    monkeypatch.setattr(precond_mod, "dot", counting)
    shape = (2, 16, 16) if loads is None else (loads, 2, 16, 16)
    prepare_green_norm2(green, VectorField(grid, np.ones(shape)))()
    assert len(calls) == 2 * (loads or 1)


def test_green_rejects_indefinite_reference():
    with pytest.raises(ValueError):
        assemble_green(make_grid(8), MaterialModel(0.0, -1.0))


# ---------------------------------------------------------------------------
# Jacobi diagonal
# ---------------------------------------------------------------------------

def test_jacobi_makes_no_operator_application(solid_material, monkeypatch):
    grid = make_grid(8)
    op = SystemOperator(ScalarField.full(grid, 1.0), solid_material)
    calls = []
    original = precond_mod.apply_system

    def counting(op_, u):
        calls.append(1)
        return original(op_, u)

    monkeypatch.setattr(precond_mod, "apply_system", counting)
    assemble_jacobi(op)
    assert calls == []


def _jacobi_oracle_cases():
    rng = np.random.default_rng(22)
    voids = rng.uniform(0.5, 1.0, (16, 16))
    voids[4:8, 4:8] = 0.0
    return {
        "cosine": refine_to_grid(cosine_density(16, 1e4), 64),
        "laminate": refine_to_grid(laminate_density(64, 1e4), 128),
        "noise": ScalarField(make_grid(32), rng.uniform(0.0, 1.0, (32, 32))),
        "voids": ScalarField(make_grid(16), voids),
        "non-square": ScalarField(make_grid(16, (2.0, 0.5)),
                                  rng.uniform(0.01, 1.0, (16, 16))),
    }


@pytest.mark.parametrize("case", ["cosine", "laminate", "noise", "voids",
                                  "non-square"])
def test_jacobi_closed_form_matches_comb_probing(case, solid_material):
    op = SystemOperator(_jacobi_oracle_cases()[case], solid_material)
    diag = probed_diagonal(op)
    diag[diag == 0.0] = 1.0
    expected = 1.0 / np.sqrt(diag)
    inv_sqrt = assemble_jacobi(op).inv_sqrt
    assert (np.abs(inv_sqrt - expected) / expected).max() <= 1e-15


@pytest.mark.parametrize("density", ["random", "laminate", "void", "odd",
                                     "rectangular"])
def test_jacobi_probing_matches_impulse_diagonal(density, solid_material):
    rng = np.random.default_rng(14)
    n, lengths = 4, (1.0, 1.0)
    if density == "odd":
        n = 5
    elif density == "rectangular":
        n, lengths = 7, (2.0, 0.5)
    grid = make_grid(n, lengths)
    if density == "laminate":
        rho = ScalarField(grid, np.tile(np.array([10.0, 7.0, 4.0, 1.0])[:, None],
                                        (1, 4)))
    elif density == "void":
        values = rng.uniform(0.5, 1.0, (4, 4))
        values[1:3, 1:3] = 0.0
        rho = ScalarField(grid, values)
    else:
        rho = ScalarField(grid, rng.uniform(0.1, 2.0, (n, n)))
    op = SystemOperator(rho, solid_material)
    jac = assemble_jacobi(op)

    def apply_flat(flat):
        u = VectorField(grid, vec_unflat(flat, n))
        return vec_flat(apply_system(op, u).values)

    diag = impulse_diagonal(apply_flat, 2 * n * n)
    diag[diag == 0.0] = 1.0
    assert np.abs(vec_flat(jac.inv_sqrt) - 1.0 / np.sqrt(diag)).max() <= 1e-14


def test_jacobi_void_entries_replaced_by_one(solid_material):
    grid = make_grid(4)
    op = SystemOperator(ScalarField(grid, np.zeros((4, 4))), solid_material)
    jac = assemble_jacobi(op)
    assert np.array_equal(jac.inv_sqrt, np.ones((2, 4, 4)))
    assert np.all(np.isfinite(jac.inv_sqrt))


def test_jacobi_full_equals_half_twice(solid_material):
    rng = np.random.default_rng(15)
    grid = make_grid(8)
    op = SystemOperator(ScalarField(grid, rng.uniform(0.1, 2.0, (8, 8))),
                        solid_material)
    jac = assemble_jacobi(op)
    green = assemble_green(grid, solid_material)
    r = VectorField(grid, rng.normal(size=(2, 8, 8)))
    full = apply_jacobi(jac, r).values
    # bitwise the split form: 1/sqrt(diag) applied twice, on each side of G
    assert np.array_equal(full, jac.inv_sqrt * (jac.inv_sqrt * r.values))
    half = VectorField(grid, jac.inv_sqrt * r.values)
    assert np.array_equal(apply_green_jacobi(jac, green, r).values,
                          jac.inv_sqrt * apply_green(green, half).values)
    expected = r.values / probed_diagonal(op)
    assert np.abs(full - expected).max() <= 1e-15 * np.abs(expected).max()


def test_jacobi_scales_inversely_with_density(solid_material):
    rng = np.random.default_rng(16)
    grid = make_grid(8)
    rho = ScalarField(grid, rng.uniform(0.1, 2.0, (8, 8)))
    r = VectorField(grid, rng.normal(size=(2, 8, 8)))
    one = apply_jacobi(assemble_jacobi(SystemOperator(rho, solid_material)), r)
    scaled_rho = ScalarField(grid, 4.0 * rho.values)
    four = apply_jacobi(
        assemble_jacobi(SystemOperator(scaled_rho, solid_material)), r)
    assert np.abs(four.values - one.values / 4.0).max() \
        <= 1e-13 * np.abs(one.values).max()


def test_jacobi_identity_when_diagonal_is_one(solid_material):
    grid = make_grid(4)
    jac = precond_mod.JacobiDiagonal(grid, np.ones((2, 4, 4)))
    r = VectorField(grid, np.random.default_rng(17).normal(size=(2, 4, 4)))
    assert np.array_equal(apply_jacobi(jac, r).values, r.values)


@pytest.mark.parametrize("inv_sqrt, match", [
    (np.ones((8, 8)), "shape"),
    (np.ones((1, 8, 8)), "shape"),
    (np.ones((2, 4, 4)), "shape"),
    (np.ones((2, 8, 8), dtype=np.int64), "float64"),
    (np.ones((2, 8, 8), dtype=np.float32), "float64"),
    (np.full((2, 8, 8), np.nan), "non-finite"),
    (np.where(np.arange(128).reshape(2, 8, 8) == 77, np.nan, 1.0),
     "non-finite"),
    (np.full((2, 8, 8), np.inf), "non-finite"),
    (-np.ones((2, 8, 8)), "non-positive"),
    (np.zeros((2, 8, 8)), "non-positive")],
    ids=["one-plane", "one-component", "other-grid", "int64", "float32",
         "all-nan", "one-nan", "inf", "negative", "zero"])
def test_jacobi_diagonal_rejects_malformed_inv_sqrt(inv_sqrt, match):
    # each was accepted: a single plane was broadcast over the components,
    # and pcg reported convergence with the negative diagonal
    with pytest.raises(ValueError, match=f"inv_sqrt .*{match}"):
        precond_mod.JacobiDiagonal(make_grid(8), inv_sqrt)


def _two_plane_inv_sqrt(op):
    """The closed form of ``diag(K)^(-1/2)`` with one plane per component,
    operation for operation as it was built before the planes could be
    shared."""
    h1, h2 = op.grid.pixel_size
    c, w = op.material.stiffness, op.grid.quad_weight
    rho = op.density.values
    total = rho + np.roll(rho, 1, axis=0)
    total = total + np.roll(total, 1, axis=1)
    diag = np.stack([
        total * (w * (c[0, 0] / h1 ** 2 + c[2, 2] / (2.0 * h2 ** 2))),
        total * (w * (c[1, 1] / h2 ** 2 + c[2, 2] / (2.0 * h1 ** 2)))])
    diag[diag == 0.0] = 1.0
    return 1.0 / np.sqrt(diag)


@pytest.mark.parametrize("n, lengths, shared", [
    (8, (1.0, 1.0), True), (9, (1.0, 1.0), True), (32, (1.0, 1.0), True),
    (16, (1.0, 1.5), False), (16, (2.0, 0.5), False)])
def test_jacobi_planes_shared_on_square_pixels(n, lengths, shared,
                                               solid_material):
    rng = np.random.default_rng(23)
    values = rng.uniform(0.0, 1.0, (n, n))
    values[:3, :3] = 0.0  # a void node, whose entries become one
    op = SystemOperator(ScalarField(make_grid(n, lengths), values),
                        solid_material)
    inv_sqrt = assemble_jacobi(op).inv_sqrt
    assert inv_sqrt.shape == (2, n, n) and inv_sqrt.dtype == np.float64
    assert np.array_equal(inv_sqrt, _two_plane_inv_sqrt(op))
    assert np.shares_memory(inv_sqrt[0], inv_sqrt[1]) == shared
    assert not inv_sqrt.flags.writeable


@pytest.mark.parametrize("lengths, planes", [((1.0, 1.0), 1),
                                             ((1.0, 1.5), 2)])
def test_jacobi_holds_one_plane_per_distinct_scale(lengths, planes,
                                                   solid_material):
    n = 256
    rho = np.random.default_rng(24).uniform(0.01, 1.0, (n, n))
    op = SystemOperator(ScalarField(make_grid(n, lengths), rho),
                        solid_material)
    plane = n * n * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        jac = assemble_jacobi(op)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held -= before
    assert planes * plane <= held <= planes * plane + 4096, held
    # S is summed in place: one rolled copy is the only temporary plane
    assert peak - before <= (planes + 1) * plane + 64 * 1024, peak - before
    assert jac.inv_sqrt.shape == (2, n, n)


def test_prepared_jacobi_scaling_allocates_nothing(solid_material):
    # one multiply per component plane: the whole-field multiply by the
    # (2, n, n) diagonal allocated a 49 KB iterator buffer for this stack
    rng = np.random.default_rng(25)
    n, loads = 32, 3
    op = SystemOperator(ScalarField(make_grid(n),
                                    rng.uniform(0.01, 1.0, (n, n))),
                        solid_material)
    pre = build_preconditioner("jacobi", op, None)
    r = VectorField(op.grid, rng.normal(size=(loads, 2, n, n)))
    run = pre.prepare(r, np.empty(r.values.shape))
    run()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024, peak


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
    op = SystemOperator(ScalarField(grid, rng.uniform(0.1, 2.0, (8, 8))),
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
    op = SystemOperator(ScalarField.full(grid, 0.37), solid_material)
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
    op = SystemOperator(ScalarField(grid, rng.uniform(0.05, 1.0, (8, 8))),
                        solid_material)
    preconditioners = [build_preconditioner(kind, op, green)
                       for kind in ("none", "green", "jacobi", "green-jacobi")]
    for _ in range(100):
        r = VectorField(grid, zero_mean(rng.normal(size=(2, 8, 8))))
        for pre in preconditioners:
            assert float(np.vdot(pre.prepare(r)().values, r.values)) > 0.0


def test_preconditioner_validation(solid_material):
    grid = make_grid(4)
    op = SystemOperator(ScalarField.full(grid, 1.0), solid_material)
    with pytest.raises(ValueError, match="unknown preconditioner 'ilu'; "
                                         "choose one of"):
        build_preconditioner("ilu", op, assemble_green(grid, solid_material))
    # without the check, "green" quietly built plain CG
    for kind in ("green", "green-jacobi"):
        with pytest.raises(ValueError, match="needs an assembled Green"):
            build_preconditioner(kind, op, None)


@pytest.mark.parametrize("kind", ["none", "green", "jacobi", "green-jacobi"])
def test_preconditioner_kind_comes_from_its_parts(kind, solid_material):
    grid = make_grid(4)
    op = SystemOperator(ScalarField.full(grid, 1.0), solid_material)
    pre = build_preconditioner(kind, op, assemble_green(grid, solid_material))
    assert pre.kind == kind
    assert (pre.green is not None) == ("green" in kind)
    assert (pre.jacobi is not None) == ("jacobi" in kind)
    assert Preconditioner(pre.green, pre.jacobi).kind == kind
    assert [f.name for f in dataclasses.fields(Preconditioner)] \
        == ["green", "jacobi"]
