import numpy as np
import pytest

from jfft import microstructures as micro
from jfft.grid import ScalarField, make_grid


def test_laminate_profile():
    rho = micro.laminate_density(4, 10.0)
    assert np.allclose(rho.values[:, 0], [10.0, 7.0, 4.0, 1.0], rtol=0, atol=1e-14)
    # constant along x2
    assert np.all(rho.values == rho.values[:, :1])


def test_laminate_endpoints():
    rho = micro.laminate_density(16, 1e4)
    assert rho.values[0, 0] == pytest.approx(1e4)
    assert rho.values[15, 0] == pytest.approx(1.0)


def test_laminate_rejects_infinite_contrast():
    with pytest.raises(ValueError):
        micro.laminate_density(8, np.inf)
    with pytest.raises(ValueError):
        micro.laminate_density(8, 0.5)


@pytest.mark.parametrize("geometry", [micro.cosine_density,
                                      micro.laminate_density])
def test_generators_reject_nan_contrast(geometry):
    # NaN passed the ">= 1" test: the cosine field came out all NaN and the
    # laminate reported infinite contrast
    with pytest.raises(ValueError, match="contrast is NaN"):
        geometry(8, np.nan)


def test_cosine_four_pixel_pattern_with_voids():
    rho = micro.cosine_density(4, np.inf)
    values = rho.values.ravel()
    assert (values == 0.0).sum() == 2
    assert (values == 1.0).sum() == 2
    assert (np.abs(values - 0.5) <= 1e-12).sum() == 12
    assert rho.values.min() == 0.0


def test_cosine_finite_contrast_minimum():
    rho = micro.cosine_density(64, 1e4)
    assert rho.values.min() == pytest.approx(1e-4, rel=1e-10)
    assert rho.values[0, 0] == pytest.approx(1.0 + 1e-4)


def test_inclusion_field():
    rho = micro.inclusion_density(64, rho_soft=1e-4, radius_fraction=0.25)
    center = rho.values[32, 32]
    corner = rho.values[0, 0]
    assert center == pytest.approx(1e-4)
    assert corner == 1.0
    assert rho.values.max() / rho.values.min() == pytest.approx(1e4)


def test_inclusion_rejects_bad_radius():
    with pytest.raises(ValueError):
        micro.inclusion_density(16, radius_fraction=0.6)


def test_gaussian_filter_preserves_constants():
    grid = make_grid(8)
    rho = ScalarField.full(grid, 0.77)
    filtered = micro.gaussian_filter(rho)
    assert np.abs(filtered.values - 0.77).max() <= 1e-15


def test_gaussian_filter_impulse_patch():
    grid = make_grid(8)
    rho = ScalarField(grid, np.zeros((8, 8)))
    rho.values[4, 4] = 16.0
    filtered = micro.gaussian_filter(rho)
    patch = filtered.values[3:6, 3:6]
    assert np.array_equal(patch, [[1.0, 2.0, 1.0], [2.0, 4.0, 2.0], [1.0, 2.0, 1.0]])
    assert filtered.values.sum() == pytest.approx(16.0)


def test_gaussian_filter_mass_and_bounds():
    rng = np.random.default_rng(0)
    grid = make_grid(16)
    rho = ScalarField(grid, rng.uniform(0.0, 2.0, (16, 16)))
    filtered = micro.gaussian_filter(rho)
    assert filtered.values.sum() == pytest.approx(rho.values.sum(), rel=1e-12)
    assert filtered.values.min() >= rho.values.min() - 1e-15
    assert filtered.values.max() <= rho.values.max() + 1e-15


def test_iterated_filtering_contracts_contrast():
    rho = micro.inclusion_density(32, rho_soft=1e-4, radius_fraction=0.25)
    contrasts = [micro.total_contrast(rho)]
    for _ in range(30):
        rho = micro.gaussian_filter(rho)
        contrasts.append(micro.total_contrast(rho))
    assert all(b <= a + 1e-12 for a, b in zip(contrasts, contrasts[1:]))
    assert contrasts[-1] < contrasts[0]


def test_threshold_rule():
    grid = make_grid(4)
    values = np.array([[0.5, 0.49, 0.0, 1.0]] * 4)
    sharp = micro.threshold(ScalarField(grid, values), 100.0)
    assert np.array_equal(sharp.values[0], [1.0, 0.01, 0.01, 1.0])


def test_threshold_constant_low_field():
    grid = make_grid(4)
    sharp = micro.threshold(ScalarField.full(grid, 0.2), 100.0)
    assert np.all(sharp.values == 0.01)


def test_threshold_idempotent_on_two_phase():
    grid = make_grid(4)
    rng = np.random.default_rng(1)
    sharp = micro.threshold(ScalarField(grid, rng.uniform(0, 1, (4, 4))), 1e4)
    again = micro.threshold(sharp, 1e4)
    assert np.array_equal(sharp.values, again.values)


def test_rescale_contrast_endpoints():
    rng = np.random.default_rng(2)
    grid = make_grid(8)
    rho = ScalarField(grid, rng.uniform(0.2, 0.9, (8, 8)))
    scaled = micro.rescale_contrast(rho, 1e5)
    assert scaled.values.min() == pytest.approx(1e-5)
    assert scaled.values.max() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        micro.rescale_contrast(ScalarField.full(grid, 0.5), 1e2)


def test_refine_identity_and_block_replication():
    rho = micro.laminate_density(4, 10.0)
    same = micro.refine_to_grid(rho, 4)
    assert np.array_equal(same.values, rho.values)
    fine = micro.refine_to_grid(rho, 8)
    assert fine.grid.n == 8
    for i in range(8):
        for j in range(8):
            assert fine.values[i, j] == rho.values[i // 2, j // 2]
    assert fine.values.mean() == pytest.approx(rho.values.mean(), rel=1e-15)


def test_refine_rejects_non_divisible():
    rho = micro.laminate_density(4, 10.0)
    with pytest.raises(ValueError):
        micro.refine_to_grid(rho, 6)


def test_total_contrast():
    grid = make_grid(4)
    assert micro.total_contrast(ScalarField.full(grid, 2.0)) == 1.0
    v = np.full((4, 4), 1.0)
    v[0, 0] = 0.0
    assert micro.total_contrast(ScalarField(grid, v)) == np.inf


def test_generators_deterministic():
    a = micro.cosine_density(16, 1e4).values
    b = micro.cosine_density(16, 1e4).values
    assert np.array_equal(a, b)
