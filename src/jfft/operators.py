"""Matrix-free system operator ``K(rho) = B^T W C(rho) B`` and right-hand
sides of the periodic cell problem."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem
from .grid import MANDEL_DIM, Grid, QuadField, ScalarField, VectorField
from .material import MaterialModel, stress


@dataclass(frozen=True)
class SystemOperator:
    """Bundles everything needed to apply the stiffness action of one cell
    problem: grid, pixel densities, base material, quadrature weights.

    The operator is symmetric positive semi-definite with the two rigid
    translations as its null space; it is never assembled as a matrix.
    """

    grid: Grid
    density: ScalarField
    material: MaterialModel
    weights: fem.QuadratureWeights

    def __post_init__(self):
        if self.density.grid != self.grid or self.weights.grid != self.grid:
            raise ValueError("density/weights grid mismatch")
        if np.any(self.density.values < 0.0):
            raise ValueError("negative density")


def make_operator(density: ScalarField, material: MaterialModel) -> SystemOperator:
    grid = density.grid
    return SystemOperator(grid, density, material, fem.quadrature_weights(grid))


def _weighted_stress_values(op: SystemOperator, eps_values: np.ndarray) -> np.ndarray:
    # W * rho * C0 * eps, fused: the uniform weight and the pixel density are
    # a single scale factor per pixel.
    sig = np.einsum("mk,ktij->mtij", op.material.stiffness, eps_values)
    sig *= (op.weights.per_point * op.density.values)[None, None, :, :]
    return sig


def apply_system(op: SystemOperator, u: VectorField) -> VectorField:
    """Apply ``K(rho) u`` element by element, cost O(n_nodes)."""
    if u.grid != op.grid:
        raise ValueError("displacement lives on a different grid")
    dx1, dx2 = op.grid.pixel_size
    eps = fem._sym_gradient_values(u.values, dx1, dx2)
    sig = _weighted_stress_values(op, eps)
    return VectorField(op.grid, fem._sym_gradient_adjoint_values(sig, dx1, dx2))


def assemble_rhs(op: SystemOperator, eps_bar) -> VectorField:
    """Right-hand side ``f = -B^T W C(rho) E`` for a macroscopic strain.

    ``eps_bar`` is a Mandel vector broadcast to every quadrature point.  The
    result has zero mean per component.
    """
    eps_bar = np.asarray(eps_bar, dtype=np.float64)
    if eps_bar.shape != (MANDEL_DIM,):
        raise ValueError(f"macroscopic strain must have shape ({MANDEL_DIM},)")
    if not np.all(np.isfinite(eps_bar)):
        raise ValueError("macroscopic strain must be finite")
    n = op.grid.n
    eps = np.broadcast_to(eps_bar[:, None, None, None], (MANDEL_DIM, 2, n, n))
    sig = _weighted_stress_values(op, eps)
    dx1, dx2 = op.grid.pixel_size
    return VectorField(op.grid, -fem._sym_gradient_adjoint_values(sig, dx1, dx2))


def total_strain(op: SystemOperator, u: VectorField, eps_bar) -> QuadField:
    """Macroscopic strain plus the fluctuation gradient, at quadrature points."""
    eps = fem.sym_gradient(u)
    eps.values += np.asarray(eps_bar, dtype=np.float64)[:, None, None, None]
    return eps


def homogenized_stress(op: SystemOperator, u: VectorField, eps_bar) -> np.ndarray:
    """Volume-averaged stress of the equilibrated cell, a Mandel vector."""
    sig = stress(op.density, op.material, total_strain(op, u, eps_bar))
    return fem.cell_average(sig, op.weights)
