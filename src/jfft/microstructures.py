"""Density-field generators and transforms for all experiments.

Geometries are sampled at the nodal points ``x = (i1/p, i2/p)`` of a
``p``-pixel sampling lattice; the value at a node owns the pixel with the
same index.  A geometry with ``p`` sampling points per direction can be
carried to any FE grid whose node count is a multiple of ``p``.
"""

from __future__ import annotations

import numpy as np

from .grid import ScalarField, make_grid


def _sample_coords(p: int) -> tuple[np.ndarray, np.ndarray]:
    x = np.arange(p) / p
    return np.meshgrid(x, x, indexing="ij")


def _soft_phase(chi_tot: float) -> float:
    """Density ``1/chi_tot`` of the soft phase, zero at infinite contrast."""
    chi = float(chi_tot)
    if np.isnan(chi):
        raise ValueError("total phase contrast is NaN")
    if chi < 1.0:
        raise ValueError(f"total phase contrast must be >= 1, got {chi}")
    return 0.0 if np.isinf(chi) else 1.0 / chi


def laminate_density(p: int, chi_tot: float) -> ScalarField:
    """Linearly graded laminate, ``chi_tot`` at x1 = 0 down to 1 at the last
    sampling point ``x1 = 1 - 1/p``."""
    chi = float(chi_tot)
    if _soft_phase(chi) == 0.0:
        raise ValueError("the laminate profile is undefined for infinite contrast")
    grid = make_grid(p)
    x1, _ = _sample_coords(p)
    dx1 = 1.0 / p
    rho = chi + (1.0 - chi) / (1.0 - dx1) * x1
    return ScalarField(grid, rho)


def cosine_density(p: int, chi_tot: float) -> ScalarField:
    """Smooth periodic two-cosine pattern lifted by ``1/chi_tot``.

    Infinite contrast is allowed and produces exact voids (density zero).
    """
    offset = _soft_phase(chi_tot)
    grid = make_grid(p)
    x1, x2 = _sample_coords(p)
    rho = (0.5 + 0.25 * (np.cos(2.0 * np.pi * (x1 - x2))
                         + np.cos(2.0 * np.pi * (x2 + x1))) + offset)
    if offset == 0.0:
        # the cosines cancel only up to rounding; voids must be exact zeros
        rho[np.abs(rho) < 1e-12] = 0.0
    return ScalarField(grid, rho)


def inclusion_density(p: int, rho_soft: float = 1e-4,
                      radius_fraction: float = 0.25) -> ScalarField:
    """Compliant circular inclusion of density ``rho_soft`` centered in a
    stiff matrix of density one."""
    if not 0.0 < radius_fraction < 0.5:
        raise ValueError(f"radius fraction must be in (0, 0.5), got {radius_fraction}")
    if not 0.0 <= rho_soft < np.inf:
        raise ValueError(f"soft-phase density must be finite and >= 0, "
                         f"got {rho_soft}")
    grid = make_grid(p)
    x1, x2 = _sample_coords(p)
    inside = (x1 - 0.5) ** 2 + (x2 - 0.5) ** 2 < radius_fraction ** 2
    rho = np.where(inside, float(rho_soft), 1.0)
    return ScalarField(grid, rho)


def gaussian_filter(rho: ScalarField) -> ScalarField:
    """One periodic pass of the separable 3x3 binomial kernel
    ``1/16 [1 2 1]^T [1 2 1]``.

    Mass-preserving; never widens the value range.
    """
    v = rho.values
    v = (v + np.roll(v, 1, axis=0) / 2 + np.roll(v, -1, axis=0) / 2) / 2
    v = (v + np.roll(v, 1, axis=1) / 2 + np.roll(v, -1, axis=1) / 2) / 2
    return ScalarField(rho.grid, v)


def total_contrast(rho: ScalarField) -> float:
    """Ratio of largest to smallest density; infinite when voids exist."""
    lo = float(rho.values.min())
    hi = float(rho.values.max())
    if lo < 0.0:
        raise ValueError("negative density")
    return np.inf if lo == 0.0 else hi / lo


def threshold(rho_smooth: ScalarField, chi_tot: float) -> ScalarField:
    """Two-valued field: 1 where ``rho_smooth >= 0.5``, else ``1/chi_tot``."""
    soft = _soft_phase(chi_tot)
    values = np.where(rho_smooth.values >= 0.5, 1.0, soft)
    return ScalarField(rho_smooth.grid, values)


def rescale_contrast(rho: ScalarField, chi_tot: float) -> ScalarField:
    """Affinely map a non-constant field onto ``[1/chi_tot, 1]``."""
    soft = _soft_phase(chi_tot)
    lo = rho.values.min()
    hi = rho.values.max()
    if hi <= lo:
        raise ValueError("cannot rescale a constant field to a target contrast")
    values = soft + (1.0 - soft) * (rho.values - lo) / (hi - lo)
    return ScalarField(rho.grid, values)


def refine_to_grid(rho: ScalarField, n: int) -> ScalarField:
    """Piecewise-constant prolongation onto an ``n``-pixel FE grid.

    Each FE pixel inherits the value of its enclosing geometry pixel, which
    requires the sampling resolution to divide ``n``.
    """
    p = rho.grid.n
    if n % p != 0:
        raise ValueError(f"geometry resolution {p} does not divide grid size {n}")
    factor = n // p
    grid = make_grid(n, rho.grid.lengths)
    values = np.repeat(np.repeat(rho.values, factor, axis=0), factor, axis=1)
    return ScalarField(grid, values)
