"""Matrix-free system operator ``K(rho) = B^T W C(rho) B`` and right-hand
sides of the periodic cell problem."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fem
from .grid import MANDEL_DIM, Grid, QuadField, ScalarField, VectorField
from .material import MaterialModel, stiffness_product_into, stress


@dataclass(frozen=True)
class SystemOperator:
    """Bundles everything needed to apply the stiffness action of one cell
    problem: grid, pixel densities, base material, quadrature weights.

    The operator is symmetric positive semi-definite with the two rigid
    translations as its null space; it is never assembled as a matrix.  It
    owns the workspace of :func:`apply_system`: the per-pixel factor
    ``w * rho``, a strain/stress buffer and two scratch planes per load of
    the largest stack applied so far (one load until a stack arrives), so an
    application allocates only the field it returns.
    """

    grid: Grid
    density: ScalarField
    material: MaterialModel
    weights: fem.QuadratureWeights
    _factor: np.ndarray = field(init=False, repr=False, compare=False)
    _strain: np.ndarray = field(init=False, repr=False, compare=False)
    _planes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.density.grid != self.grid or self.weights.grid != self.grid:
            raise ValueError("density/weights grid mismatch")
        if not np.all(np.isfinite(self.density.values)):
            raise ValueError("non-finite density")
        if np.any(self.density.values < 0.0):
            raise ValueError("negative density")
        object.__setattr__(self, "_factor",
                           self.weights.per_point * self.density.values)
        _grow_workspace(self, 1)


def _grow_workspace(op: SystemOperator, loads: int) -> None:
    n = op.grid.n
    object.__setattr__(op, "_strain", np.empty((loads, MANDEL_DIM, 2, n, n)))
    object.__setattr__(op, "_planes", np.empty((2, loads, n, n)))


def _workspace(op: SystemOperator, lead: tuple[int, ...]):
    """Strain buffer ``lead + (3, 2, n, n)`` and scratch planes
    ``(2,) + lead + (n, n)`` for fields with load axes ``lead`` (``()`` or
    ``(B,)``), as views of the operator's workspace."""
    loads = lead[0] if lead else 1
    if op._strain.shape[0] < loads:
        _grow_workspace(op, loads)
    if lead:
        return op._strain[:loads], op._planes[:, :loads]
    return op._strain[0], op._planes[:, 0]


def make_operator(density: ScalarField, material: MaterialModel) -> SystemOperator:
    grid = density.grid
    return SystemOperator(grid, density, material, fem.quadrature_weights(grid))


def _weighted_stress_adjoint(op: SystemOperator, sig: np.ndarray,
                             planes: np.ndarray) -> np.ndarray:
    """``B^T W rho C0`` applied to the strain held in the workspace buffer
    ``sig``, into a new array."""
    # W * rho * C0 * eps, fused: the uniform weight and the pixel density are
    # a single scale factor per pixel.
    stiffness_product_into(op.material, sig, planes)
    sig *= op._factor
    out = np.empty(sig.shape[:-4] + (2, op.grid.n, op.grid.n))
    fem.sym_gradient_adjoint_into(sig, op.grid.pixel_size, out, planes)
    return out


def apply_system(op: SystemOperator, u: VectorField) -> VectorField:
    """Apply ``K(rho) u`` element by element, cost O(n_nodes).  A stack
    ``u`` gives the stack of products, each bitwise equal to its load's
    product alone."""
    if u.grid != op.grid:
        raise ValueError("displacement lives on a different grid")
    strain, planes = _workspace(op, u.values.shape[:-3])
    fem.sym_gradient_into(u.values, op.grid.pixel_size, strain, planes)
    return VectorField(op.grid, _weighted_stress_adjoint(op, strain, planes))


def assemble_rhs(op: SystemOperator, eps_bar) -> VectorField:
    """Right-hand side ``f = -B^T W C(rho) E`` for a macroscopic strain.

    ``eps_bar`` is a Mandel vector broadcast to every quadrature point, or a
    ``(B, 3)`` array of them, which gives the stack of the ``B`` right-hand
    sides.  The result has zero mean per component.
    """
    eps_bar = np.asarray(eps_bar, dtype=np.float64)
    if eps_bar.shape[-1:] != (MANDEL_DIM,) or eps_bar.ndim > 2:
        raise ValueError(f"macroscopic strain must have shape ({MANDEL_DIM},) "
                         f"or (loads, {MANDEL_DIM})")
    if not np.all(np.isfinite(eps_bar)):
        raise ValueError("macroscopic strain must be finite")
    strain, planes = _workspace(op, eps_bar.shape[:-1])
    strain[...] = eps_bar[..., None, None, None]
    f = _weighted_stress_adjoint(op, strain, planes)
    np.negative(f, out=f)
    return VectorField(op.grid, f)


def total_strain(op: SystemOperator, u: VectorField, eps_bar) -> QuadField:
    """Macroscopic strain plus the fluctuation gradient, at quadrature points."""
    eps = fem.sym_gradient(u)
    eps.values += np.asarray(eps_bar, dtype=np.float64)[:, None, None, None]
    return eps


def homogenized_stress(op: SystemOperator, u: VectorField, eps_bar) -> np.ndarray:
    """Volume-averaged stress of the equilibrated cell, a Mandel vector."""
    sig = stress(op.density, op.material, total_strain(op, u, eps_bar))
    return fem.cell_average(sig, op.weights)
