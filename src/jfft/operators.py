"""Matrix-free system operator ``K(rho) = B^T W C(rho) B`` and right-hand
sides of the periodic cell problem."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fem
from .grid import MANDEL_DIM, Grid, QuadField, ScalarField, VectorField
from .material import MaterialModel, stiffness_product_into


@dataclass(frozen=True)
class SystemOperator:
    """Bundles everything needed to apply the stiffness action of one cell
    problem: grid, pixel densities and base material.

    The operator is symmetric positive semi-definite with the two rigid
    translations as its null space; it is never assembled as a matrix.  It
    owns the workspace of :func:`apply_system`, :func:`assemble_rhs` and
    :func:`homogenized_stress`: the per-pixel factor ``w * rho``, a
    strain/stress buffer and two scratch planes per load of the largest
    stack applied so far (one load until a stack arrives), so an
    application allocates only the field it returns, and nothing when the
    caller passes ``out=``.  A call on ``B`` loads works in the leading
    ``(3, 2, B, n, n)`` and ``(2, B, n, n)`` entries of the two flat
    buffers: component-major and C-contiguous, so that each plane of a
    stack is one block and one load's strain is a plain ``(3, 2, n, n)``
    array whatever stack grew the buffers.
    """

    grid: Grid
    density: ScalarField
    material: MaterialModel
    _factor: np.ndarray = field(init=False, repr=False, compare=False)
    _strain: np.ndarray = field(init=False, repr=False, compare=False)
    _planes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.density.grid != self.grid:
            raise ValueError("density grid mismatch")
        if not np.all(np.isfinite(self.density.values)):
            raise ValueError("non-finite density")
        if np.any(self.density.values < 0.0):
            raise ValueError("negative density")
        object.__setattr__(self, "_factor",
                           self.grid.quad_weight * self.density.values)
        _grow_workspace(self, 1)


def _grow_workspace(op: SystemOperator, loads: int) -> None:
    size = loads * op.grid.n ** 2
    object.__setattr__(op, "_strain", np.empty(MANDEL_DIM * 2 * size))
    object.__setattr__(op, "_planes", np.empty(2 * size))


def _workspace(op: SystemOperator, lead: tuple[int, ...]):
    """Strain buffer ``(3, 2) + lead + (n, n)`` and scratch planes
    ``(2,) + lead + (n, n)`` for fields with load axes ``lead`` (``()`` or
    ``(B,)``), as C-contiguous views of the operator's workspace."""
    n = op.grid.n
    loads = lead[0] if lead else 1
    if op._planes.size < 2 * loads * n * n:
        _grow_workspace(op, loads)
    strain_shape = (MANDEL_DIM, 2) + lead + (n, n)
    planes_shape = (2,) + lead + (n, n)
    return (op._strain[:math.prod(strain_shape)].reshape(strain_shape),
            op._planes[:math.prod(planes_shape)].reshape(planes_shape))


def make_operator(density: ScalarField, material: MaterialModel) -> SystemOperator:
    return SystemOperator(density.grid, density, material)


def _weighted_stress_adjoint(op: SystemOperator, sig: np.ndarray,
                             planes: np.ndarray,
                             out: np.ndarray | None = None) -> np.ndarray:
    """``B^T W rho C0`` applied to the strain held in the workspace buffer
    ``sig``, into ``out`` or a new array."""
    # W * rho * C0 * eps, fused: the uniform weight and the pixel density are
    # a single scale factor per pixel.
    stiffness_product_into(op.material, sig, planes)
    sig *= op._factor
    if out is None:
        out = np.empty(sig.shape[2:-2] + (2, op.grid.n, op.grid.n))
    fem.sym_gradient_adjoint_into(sig, op.grid.pixel_size, out, planes)
    return out


def apply_system(op: SystemOperator, u: VectorField,
                 out: np.ndarray | None = None) -> VectorField:
    """Apply ``K(rho) u`` element by element, cost O(n^2).  A stack
    ``u`` gives the stack of products, each bitwise equal to its load's
    product alone.  ``out``, when given, is a C-contiguous float array of
    ``u``'s shape that receives (and backs) the product; it may be
    ``u.values`` itself, which is read in full before ``out`` is written."""
    if u.grid != op.grid:
        raise ValueError("displacement lives on a different grid")
    strain, planes = _workspace(op, u.values.shape[:-3])
    fem.sym_gradient_into(u.values, op.grid.pixel_size, strain, planes)
    return VectorField(op.grid,
                       _weighted_stress_adjoint(op, strain, planes, out))


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
    strain[...] = np.moveaxis(eps_bar, -1, 0)[:, None, ..., None, None]
    f = _weighted_stress_adjoint(op, strain, planes)
    np.negative(f, out=f)
    return VectorField(op.grid, f)


def total_strain(u: VectorField, eps_bar) -> QuadField:
    """Macroscopic strain plus the fluctuation gradient, at quadrature points."""
    eps = fem.sym_gradient(u)
    eps.values += np.asarray(eps_bar, dtype=np.float64)[:, None, None, None]
    return eps


def homogenized_stress(op: SystemOperator, u: VectorField, eps_bar) -> np.ndarray:
    """Volume-averaged stress of the equilibrated cell, a Mandel vector.

    The total strain and then the stress ``rho C0 eps`` are built in the
    operator's strain buffer, with the operations of
    ``cell_average(stress(rho, C0, total_strain(u, eps_bar)))`` and bitwise
    its result, without a field-sized temporary.
    """
    if u.grid != op.grid or u.values.ndim != 3:
        raise ValueError("displacement must be one field on the operator's "
                         "grid")
    strain, planes = _workspace(op, ())
    fem.sym_gradient_into(u.values, op.grid.pixel_size, strain, planes)
    strain += np.asarray(eps_bar, dtype=np.float64)[:, None, None, None]
    stiffness_product_into(op.material, strain, planes)
    strain *= op.density.values
    return fem.cell_average(QuadField(op.grid, strain))
