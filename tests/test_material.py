import numpy as np
import pytest

from jfft.grid import QuadField, ScalarField, make_grid
from jfft.material import MaterialModel, isotropic_material, stress


def test_solid_phase_stiffness_matrix(solid_material):
    expected = np.array([
        [5.0 / 3.0, 2.0 / 3.0, 0.0],
        [2.0 / 3.0, 5.0 / 3.0, 0.0],
        [0.0, 0.0, 1.0],
    ])
    assert np.allclose(solid_material.stiffness, expected, rtol=0, atol=1e-15)


def test_zero_lambda_decouples():
    mat = isotropic_material(0.0, 0.5)
    assert np.allclose(mat.stiffness, np.eye(3), rtol=0, atol=1e-15)


def test_solid_phase_bulk_modulus(solid_material):
    # 3D parameter convention: K = lambda + 2 mu / 3
    assert solid_material.lambda0 + 2.0 * solid_material.mu0 / 3.0 == pytest.approx(1.0)


def test_rejects_indefinite_parameters():
    with pytest.raises(ValueError):
        isotropic_material(0.1, 0.0)
    with pytest.raises(ValueError):
        isotropic_material(-1.0, 0.5)


@pytest.mark.parametrize("lam, mu, name", [(np.nan, 0.5, "lambda"),
                                            (np.inf, 0.5, "lambda"),
                                            (-np.inf, 0.5, "lambda"),
                                            (2 / 3, np.nan, "mu"),
                                            (2 / 3, np.inf, "mu")])
def test_rejects_non_finite_parameters(lam, mu, name):
    # NaN fails both positivity tests, so it used to pass them
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        isotropic_material(lam, mu)


def test_stress_uniform_unit_strain(solid_material):
    grid = make_grid(4)
    rho = ScalarField.full(grid, 1.0)
    eps = QuadField(grid, np.ones((3, 2, 4, 4)))
    sig = stress(rho, solid_material, eps)
    expected = np.array([7.0 / 3.0, 7.0 / 3.0, 1.0])
    assert np.allclose(np.moveaxis(sig.values, 0, -1), expected,
                       rtol=0, atol=1e-15)


def test_stress_void_is_zero(solid_material):
    grid = make_grid(4)
    eps = QuadField(grid, np.random.default_rng(0).normal(size=(3, 2, 4, 4)))
    sig = stress(ScalarField(grid, np.zeros((4, 4))), solid_material, eps)
    assert np.abs(sig.values).max() == 0.0


def test_rejects_normal_shear_coupling():
    # the stiffness product is written out for the isotropic Mandel pattern
    coupled = np.eye(3)
    coupled[0, 2] = coupled[2, 0] = 0.1
    with pytest.raises(ValueError):
        MaterialModel(0.0, 0.5, coupled)


def test_stress_linearity_and_pixel_sharing(solid_material):
    rng = np.random.default_rng(1)
    grid = make_grid(4)
    rho = ScalarField(grid, rng.uniform(0.0, 2.0, (4, 4)))
    eps = QuadField(grid, rng.normal(size=(3, 2, 4, 4)))
    sig = stress(rho, solid_material, eps)
    scaled = stress(rho, solid_material, QuadField(grid, 3.0 * eps.values))
    assert np.abs(scaled.values - 3.0 * sig.values).max() \
        <= 1e-14 * np.abs(sig.values).max()
    # both triangles of a pixel share the pixel density
    manual = np.einsum("mk,ktij->mtij", solid_material.stiffness, eps.values)
    manual *= rho.values[None, None]
    assert np.array_equal(sig.values, manual)


def test_tangent_matches_stress_directional_derivative(solid_material):
    rng = np.random.default_rng(2)
    grid = make_grid(4)
    rho = ScalarField(grid, rng.uniform(0.1, 1.0, (4, 4)))
    eps = QuadField(grid, rng.normal(size=(3, 2, 4, 4)))
    direction = rng.normal(size=(3, 2, 4, 4))
    h = 1e-4  # the material is linear: no truncation error, only roundoff
    up = stress(rho, solid_material,
                QuadField(grid, eps.values + h * direction)).values
    dn = stress(rho, solid_material,
                QuadField(grid, eps.values - h * direction)).values
    fd = (up - dn) / (2.0 * h)
    # the material is linear: the per-pixel tangent is rho * C0
    tan = rho.values[:, :, None, None] * solid_material.stiffness
    exact = np.einsum("ijmk,ktij->mtij", tan, direction)
    assert np.abs(fd - exact).max() <= 1e-10 * max(1.0, np.abs(exact).max())


def test_energy_identity(solid_material):
    rng = np.random.default_rng(3)
    grid = make_grid(4)
    rho = ScalarField(grid, rng.uniform(0.5, 1.0, (4, 4)))
    eps = QuadField(grid, rng.normal(size=(3, 2, 4, 4)))
    sig = stress(rho, solid_material, eps)
    assert float(np.vdot(eps.values, sig.values)) > 0.0
    zero = stress(rho, solid_material,
                  QuadField(grid, np.zeros((3, 2, 4, 4))))
    assert float(np.vdot(zero.values, zero.values)) == 0.0
